"""Accident-occurrence intensity models and their hazard transforms.

The occurrence rate mu drives everything downstream: its running integral
Gamma is the hazard, and exp(-Gamma_t) is the probability that a policy has
had no accident by t.  Three models are provided:

* constant rate,
* piecewise-constant rate (right-continuous in time),
* exponential Ornstein-Uhlenbeck, i.e. mu_t = exp(x_t) with

      dx_t = a * (b - x_t) dt + sigma dW_t,

  simulated with the exact Gaussian transition so mu > 0 pathwise.

``LogOUIntensity.log_level_paths`` builds log-OU levels path-major;
``draw_hazard_chunks`` streams them a cache-sized part of paths at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .errors import ConfigurationError, SchemaError
from .grids import TimeGrid
from ._rng import coerce_rng, Seed


#: Largest rate of a constant or piecewise intensity, or log-OU start or
#: long-run rate, per policy-year.  The trapezoid adds two neighbouring
#: rates, so a rate near the float maximum overflowed the hazard to inf.
MAX_RATE = 1e300


@dataclass(frozen=True)
class ConstantIntensity:
    """Occurrence rate fixed at ``mu`` events per policy-year."""

    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= MAX_RATE:
            raise SchemaError("mu", f"must be >= 0 and <= {MAX_RATE}, got {self.mu}")

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
            raise SchemaError("rates", "need exactly one more rate than breakpoints")
        if not all(b2 > b1 for b1, b2 in zip(bp, bp[1:])):
            raise SchemaError("breakpoints", f"must be strictly increasing, got {list(bp)}")
        if not all(0.0 < b < math.inf for b in bp):
            raise SchemaError("breakpoints", f"must be finite and > 0, got {list(bp)}")
        if not all(0.0 <= r <= MAX_RATE for r in ra):
            raise SchemaError("rates", f"must be >= 0 and <= {MAX_RATE}, got {list(ra)}")

    def rate_at(self, t: np.ndarray | float) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.rates)[idx]

    def values(self, grid: TimeGrid, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.asarray(self.rate_at(grid.points), dtype=float)


#: Most e-folds of decay in one block of ``LogOUIntensity.log_level_paths``:
#: exp(_SPAN) = sqrt(float max), so exp(+-rate k) and scaled levels stay normal.
_SPAN = math.log(np.finfo(float).max) / 2


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
        if not 0.0 <= self.mean_rev < math.inf:
            raise SchemaError("mean_rev", f"must be finite and >= 0, got {self.mean_rev}")
        if not -math.inf < self.long_run_log_level <= math.log(MAX_RATE):
            raise SchemaError("long_run_log_level", f"must be finite and <= log({MAX_RATE}), "
                                                    f"got {self.long_run_log_level}")
        if not 0.0 <= self.vol < math.inf:
            raise SchemaError("vol", f"must be finite and >= 0, got {self.vol}")
        if not 0.0 < self.init <= MAX_RATE:
            raise SchemaError("init", f"must be > 0 and <= {MAX_RATE}, got {self.init}")

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
        return np.exp(self.log_level_paths(grid, normals)[0])

    def log_level_paths(self, grid: TimeGrid, normals: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Exact-transition log-level paths from an array of N(0,1) draws.

        ``normals`` has shape (paths, n_cells); the result has one more
        column.  In y = x - b, y[k+1] = d y[k] + w[k] with d = exp(-rate),
        rate = mean_rev * step, w = innov * z, so y[k] = d^k (y[0] +
        sum_{j<k} d^-(j+1) w[j]): a scaled cumulative sum along each path
        (Blelloch 1990, sec. 1.4), run in blocks of at most ``_SPAN``
        e-folds, each starting from the last level before it.  Past
        ``_SPAN`` e-folds per step the level is b + w to rounding.  The
        result is written to ``out`` when given.
        """
        innov = self.step_params(grid.step)[1]
        n_paths, n_cells = normals.shape
        b = self.long_run_log_level
        y = np.empty((n_paths, n_cells + 1)) if out is None else out
        y[:, 0] = np.log(self.init) - b
        np.multiply(normals, innov, out=y[:, 1:])
        rate = self.mean_rev * grid.step
        width = n_cells if rate * n_cells <= _SPAN else int(_SPAN / rate)
        if width:
            k = np.arange(width + 1)
            up, down = np.exp(rate * k), np.exp(-rate * k)
            for start in range(0, n_cells, width):
                block = y[:, start:start + width + 1]
                block *= up[:block.shape[1]]
                np.cumsum(block, axis=1, out=block)
                block *= down[:block.shape[1]]
        y += b
        y[:, 0] = np.log(self.init)
        return y


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
    and a delay law but not on the valuation time (the path on its even
    nodes, the cdf kernel and the node density); the memo lives as long as
    the path.
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
        if np.any(self.gamma[1:] < self.gamma[:-1]):  # no inf - inf where survival underflows
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


def trapezoid_hazard(grid: TimeGrid, mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid of ``mu`` along the grid, starting at zero.

    The increments are summed in place in the result (``out`` when given).
    """
    gamma = np.empty(mu.shape) if out is None else out
    increments = gamma[..., 1:]
    np.add(mu[..., 1:], mu[..., :-1], out=increments)
    increments *= 0.5
    increments *= grid.step
    np.cumsum(increments, axis=-1, out=increments)
    gamma[..., 0] = 0.0
    return gamma


@np.errstate(over="ignore")
def hazard_knots(model: IntensityModel, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Knot times and cumulative hazard of a deterministic rate over ``grid``.

    Gamma is linear between the knots and may overflow to inf, silently.
    A constant rate's knots are the grid's ends; a piecewise rate adds each
    breakpoint inside, so both are exact.  A zero-volatility log-OU rate
    keeps the grid nodes and their ``trapezoid_hazard``.
    """
    if isinstance(model, LogOUIntensity):
        return grid.points, trapezoid_hazard(grid, model.values(grid))
    if isinstance(model, ConstantIntensity):
        return np.array([0.0, grid.t_end]), np.array([0.0, float(model.mu) * grid.t_end])
    inside = [b for b in model.breakpoints if 0.0 < b < grid.t_end]
    times = np.array([0.0, *inside, grid.t_end])
    gamma = np.zeros(len(times))
    np.cumsum(model.rate_at(times[:-1]) * np.diff(times), out=gamma[1:])
    return times, gamma


#: Values (512 KiB of float64) per part of ``draw_hazard_chunks``, for both
#: legs: 179 paths on a daily year, so each numpy pass of the oracle's
#: inversion covers thousands of thresholds and threads wait less for the GIL.
_HAZARD_CHUNK_VALUES = 1 << 16


def _hazard_chunk_rows(grid: TimeGrid) -> int:
    """Paths per part of ``draw_hazard_chunks`` on ``grid``."""
    return max(1, _HAZARD_CHUNK_VALUES // len(grid.points))


def draw_hazard_chunks(model: LogOUIntensity, grid: TimeGrid, rng: np.random.Generator, n_paths: int,
                       normals: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Rate and hazard of ``n_paths`` fresh log-OU paths, a few paths at a time.

    Yields ``(rows, mu, gamma)`` for each part of ``_hazard_chunk_rows(grid)``
    paths in order: a slice of the paths, their (rows, nodes) rate and its
    ``trapezoid_hazard``, the rate built from ``rng.standard_normal((rows,
    n_cells))`` or, when given, ``normals[rows]`` (``rng`` unused).  Row
    parts of a draw equal one whole draw and each path depends on its own
    normals only, so the values and the generator's final state equal
    those of one whole draw fed to ``log_level_paths``, bit for bit.

    Every part is built in two buffers allocated once per call: the
    normals are drawn into the hazard's buffer, the levels and then the
    rate fill the other, and the hazard overwrites the normals.  So the
    yielded ``mu`` and ``gamma`` are views that the next part overwrites:
    reduce or copy them before asking for the next part.
    """
    size = _hazard_chunk_rows(grid)
    mu_buffer = np.empty((min(size, n_paths), len(grid.points)))
    gamma_buffer = np.empty_like(mu_buffer)
    for start in range(0, n_paths, size):
        rows = slice(start, min(start + size, n_paths))
        k = rows.stop - start
        mu, gamma = mu_buffer[:k], gamma_buffer[:k]
        if normals is None:
            z = rng.standard_normal(out=gamma_buffer.reshape(-1)[:k * grid.n_cells].reshape(k, -1))
        else:
            z = normals[rows]
        model.log_level_paths(grid, z, out=mu)
        np.exp(mu, out=mu)
        yield rows, mu, trapezoid_hazard(grid, mu, out=gamma)


def simulate_intensity_path(model: IntensityModel, grid: TimeGrid, seed: Seed = 0) -> IntensityPath:
    """Realize an intensity path; a deterministic function of (model, grid, seed).

    Constant and piecewise models ignore the seed entirely.
    """
    rng = None if is_deterministic(model) else coerce_rng(seed)
    mu = model.values(grid, rng)
    return IntensityPath(grid=grid, mu=mu, gamma=trapezoid_hazard(grid, mu))
