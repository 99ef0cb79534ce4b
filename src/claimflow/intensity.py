"""Accident-occurrence intensity models and their hazard transforms.

The occurrence rate mu drives everything downstream: its running integral
Gamma is the hazard, and exp(-Gamma_t) is the probability that a policy has
had no accident by t.  Three models are provided:

* constant rate,
* piecewise-constant rate (right-continuous in time),
* exponential Ornstein-Uhlenbeck, i.e. mu_t = exp(x_t) with

      dx_t = a * (b - x_t) dt + sigma dW_t,

  simulated with the exact Gaussian transition so mu > 0 pathwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .errors import ConfigurationError
from .grids import TimeGrid
from ._rng import coerce_rng, Seed


@dataclass(frozen=True)
class ConstantIntensity:
    """Occurrence rate fixed at ``mu`` events per policy-year."""

    mu: float

    def __post_init__(self) -> None:
        if self.mu < 0.0:
            raise ConfigurationError(f"intensity must be >= 0, got {self.mu}")

    def values(self, grid: TimeGrid, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.full(len(grid.points), float(self.mu))


@dataclass(frozen=True)
class PiecewiseConstantIntensity:
    """Rate ``rates[k]`` on ``[breakpoints[k-1], breakpoints[k])``.

    ``rates`` has one more entry than ``breakpoints``; the final rate extends
    to infinity.  The rate is right-continuous at each breakpoint.
    """

    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        ra = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "rates", ra)
        if len(ra) != len(bp) + 1:
            raise ConfigurationError("need exactly one more rate than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if bp and bp[0] <= 0.0:
            raise ConfigurationError("breakpoints must be > 0")
        if any(r < 0.0 for r in ra):
            raise ConfigurationError("rates must be >= 0")

    def rate_at(self, t: np.ndarray | float) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.rates)[idx]

    def values(self, grid: TimeGrid, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.asarray(self.rate_at(grid.points), dtype=float)


@dataclass(frozen=True)
class LogOUIntensity:
    """Exponential Ornstein-Uhlenbeck rate, positive by construction.

    ``init`` is the starting rate mu_0 > 0 (so x_0 = log(init)).
    """

    mean_rev: float
    long_run_log_level: float
    vol: float
    init: float

    def __post_init__(self) -> None:
        if self.mean_rev < 0.0:
            raise ConfigurationError(f"mean reversion must be >= 0, got {self.mean_rev}")
        if self.vol < 0.0:
            raise ConfigurationError(f"volatility must be >= 0, got {self.vol}")
        if self.init <= 0.0:
            raise ConfigurationError(f"initial rate must be > 0, got {self.init}")

    def step_params(self, dt: float) -> tuple[float, float]:
        """Exact one-step transition: decay factor and innovation std dev."""
        a, sig = self.mean_rev, self.vol
        if a == 0.0:
            return 1.0, sig * np.sqrt(dt)
        decay = float(np.exp(-a * dt))
        return decay, sig * float(np.sqrt((1.0 - decay * decay) / (2.0 * a)))

    def values(self, grid: TimeGrid, rng: np.random.Generator | None = None) -> np.ndarray:
        if rng is None:
            if self.vol > 0.0:
                raise ConfigurationError("stochastic intensity needs a random generator")
            normals = np.zeros((1, grid.n_cells))
        else:
            normals = rng.standard_normal((1, grid.n_cells))
        return np.exp(self.log_levels(grid, normals)[:, 0])

    def log_level_paths(self, grid: TimeGrid, normals: np.ndarray) -> np.ndarray:
        """Exact-transition log-level paths from an array of N(0,1) draws.

        ``normals`` has shape (paths, n_cells); the result has one more
        column.  It is the path-major copy of ``log_levels``.
        """
        return np.ascontiguousarray(self.log_levels(grid, normals).T)

    def log_levels(self, grid: TimeGrid, normals: np.ndarray) -> np.ndarray:
        """The same recursion time-major: shape (n_cells + 1, paths).

        Row k holds x at node k on every path, so each step is a few passes
        over one contiguous row.  The step repeats ``b + (x - b) * decay +
        innov * z`` operation by operation (IEEE addition commutes), so the
        values equal a path-major recursion bit for bit.
        """
        decay, innov = self.step_params(grid.step)
        n_paths, n_cells = normals.shape
        x = np.empty((n_cells + 1, n_paths))
        x[0] = np.log(self.init)
        np.multiply(normals.T, innov, out=x[1:])
        b = self.long_run_log_level
        step = np.empty(n_paths)
        for k in range(n_cells):
            np.subtract(x[k], b, out=step)
            step *= decay
            step += b
            x[k + 1] += step
        return x


IntensityModel = Union[ConstantIntensity, PiecewiseConstantIntensity, LogOUIntensity]


def is_deterministic(model: IntensityModel) -> bool:
    return not isinstance(model, LogOUIntensity) or model.vol == 0.0


@dataclass(frozen=True, eq=False)
class IntensityPath:
    """One realization of mu on a grid plus its cumulative hazard.

    ``gamma`` is the trapezoidal running integral of ``mu`` anchored at 0 on
    the first grid point; queries between nodes interpolate linearly.

    A path is a value that never changes: ``mu`` and ``gamma`` are
    read-only copies of the arrays passed in, and equality and hashing are
    by identity (two paths on one grid may carry different rates).  That
    lets ``pricing`` memoize, per instance, arrays that depend on the path
    and a delay law but not on the valuation time (the refined half-step
    path and the node density); the memo lives as long as the path.
    """

    grid: TimeGrid
    mu: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("mu", "gamma"):
            values = np.array(getattr(self, name))
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if len(self.mu) != len(self.grid.points) or len(self.gamma) != len(self.mu):
            raise ConfigurationError("path arrays must match the grid")
        if np.any(self.mu < 0.0):
            raise ConfigurationError("realized intensity must be >= 0")
        if self.gamma[0] != 0.0:
            raise ConfigurationError(
                f"hazard must start at 0 on the first grid point, got gamma[0] = {self.gamma[0]}")
        if np.any(np.diff(self.gamma) < 0.0):
            raise ConfigurationError("hazard must be nondecreasing")

    def hazard(self, t: float) -> float:
        """Cumulative hazard Gamma_t, linearly interpolated between nodes."""
        self.grid.require_inside(t)
        return float(np.interp(t, self.grid.points, self.gamma))

    def survival(self, t: float) -> float:
        """No-accident probability exp(-Gamma_t), in (0, 1]."""
        return float(np.exp(-self.hazard(t)))

    def rate(self, t: float) -> float:
        """Realized mu at ``t``, linearly interpolated."""
        self.grid.require_inside(t)
        return float(np.interp(t, self.grid.points, self.mu))


def trapezoid_hazard(grid: TimeGrid, mu: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of ``mu`` along the grid, starting at zero."""
    increments = 0.5 * (mu[..., 1:] + mu[..., :-1]) * grid.step
    gamma = np.zeros(mu.shape)
    np.cumsum(increments, axis=-1, out=gamma[..., 1:])
    return gamma


#: Values (256 KiB of float64) per chunk of ``hazard_chunks``: a chunk's
#: rate, increments and hazard stay in one core's cache.
_HAZARD_CHUNK_VALUES = 1 << 15


def _hazard_chunk_rows(grid: TimeGrid) -> int:
    """Paths per chunk of ``hazard_chunks`` on ``grid``."""
    return max(1, _HAZARD_CHUNK_VALUES // len(grid.points))


def hazard_chunks(grid: TimeGrid, log_levels: np.ndarray
                  ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Rate and hazard of time-major log-level paths, a few paths at a time.

    ``log_levels`` is ``LogOUIntensity.log_levels`` output, (nodes, paths).
    Yields ``(rows, mu, gamma)``: a slice of the paths and their (rows,
    nodes) ``exp`` of the levels and its ``trapezoid_hazard``, equal bit
    for bit to the same transforms of the whole path-major array.  No
    rate or increments array of all the paths ever exists.
    """
    n_paths = log_levels.shape[1]
    size = _hazard_chunk_rows(grid)
    for start in range(0, n_paths, size):
        rows = slice(start, min(start + size, n_paths))
        mu = np.exp(log_levels[:, rows].T)
        yield rows, mu, trapezoid_hazard(grid, mu)


def simulate_intensity_path(model: IntensityModel, grid: TimeGrid, seed: Seed = 0) -> IntensityPath:
    """Realize an intensity path; a deterministic function of (model, grid, seed).

    Constant and piecewise models ignore the seed entirely.
    """
    rng = None if is_deterministic(model) else coerce_rng(seed)
    mu = model.values(grid, rng)
    return IntensityPath(grid=grid, mu=mu, gamma=trapezoid_hazard(grid, mu))
