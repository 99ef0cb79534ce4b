"""Deflator paths and benchmarked cash-flow accumulation.

The engine works directly with the deflator, the ratio of the inflation
index to the benchmark (numeraire) portfolio.  A payment of amount X at
time s is worth deflator(s) * X in benchmarked nominal units, and a value
held at time t converts back to real units through division by
deflator(t).  Two models are supported: a deterministic deflator and a
driftless geometric Brownian one, which is a martingale by construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .claims import ClaimRecord
from .errors import ConfigurationError
from .grids import TimeGrid
from ._rng import Seed, coerce_rng


@dataclass(frozen=True)
class DeterministicDeflator:
    """Known deflator curve; pass a constant or a positive function of time."""

    level: Union[float, Callable[[float], float]] = 1.0

    def __post_init__(self) -> None:
        if not callable(self.level) and self.level <= 0.0:
            raise ConfigurationError(f"deflator level must be > 0, got {self.level}")

    @property
    def is_constant(self) -> bool:
        return not callable(self.level)

    def curve(self, times: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return np.full(len(times), float(self.level))
        values = np.asarray([float(self.level(t)) for t in times])
        if np.any(values <= 0.0):
            raise ConfigurationError("deflator function must be positive on the grid")
        return values


@dataclass(frozen=True)
class MartingaleDeflator:
    """Driftless geometric Brownian deflator: E[deflator(u) | time t] = deflator(t).

    ``corr_with_intensity`` couples the driving noise to the Brownian motion
    of a stochastic intensity model.  The marginal law (and the martingale
    property) is unchanged; only the joint simulation inside the Monte Carlo
    engine uses the correlation.
    """

    init: float = 1.0
    vol: float = 0.0
    corr_with_intensity: float = 0.0

    def __post_init__(self) -> None:
        if self.init <= 0.0:
            raise ConfigurationError(f"initial deflator must be > 0, got {self.init}")
        if self.vol < 0.0:
            raise ConfigurationError(f"deflator volatility must be >= 0, got {self.vol}")
        if not -1.0 <= self.corr_with_intensity <= 1.0:
            raise ConfigurationError("correlation must lie in [-1, 1]")

    def paths_from_normals(self, grid: TimeGrid, normals: np.ndarray) -> np.ndarray:
        """Exact lognormal steps with drift -vol^2/2, so each step has mean one."""
        dt = grid.step
        log_steps = (-0.5 * self.vol ** 2) * dt + self.vol * np.sqrt(dt) * normals
        out = np.empty((normals.shape[0], normals.shape[1] + 1))
        out[:, 0] = 0.0
        np.cumsum(log_steps, axis=1, out=out[:, 1:])
        return self.init * np.exp(out)


MarketModel = Union[DeterministicDeflator, MartingaleDeflator]


def value_at(model: DeterministicDeflator, t: float) -> float:
    return float(model.level) if model.is_constant else float(model.level(t))


def collapses_to_spot(model: MarketModel) -> bool:
    """True when the conditional expectation of any future deflator value
    equals the current one, the property the closed-form reserve relies on."""
    if isinstance(model, MartingaleDeflator):
        return True
    return model.is_constant


@dataclass(frozen=True)
class MarketPath:
    """A deflator realization on a grid; queries interpolate linearly."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != len(self.grid.points):
            raise ConfigurationError("market path must match its grid")
        if np.any(self.values <= 0.0):
            raise ConfigurationError("deflator values must be > 0")

    def deflator(self, t) -> float | np.ndarray:
        self.grid.require_inside(np.min(t))
        self.grid.require_inside(np.max(t))
        out = np.interp(t, self.grid.points, self.values)
        return float(out) if np.ndim(t) == 0 else out


def simulate_market(model: MarketModel, grid: TimeGrid, seed: Seed = 0) -> MarketPath:
    """Realize a deflator path; deterministic in (model, grid, seed)."""
    if isinstance(model, DeterministicDeflator):
        return MarketPath(grid=grid, values=model.curve(grid.points))
    rng = coerce_rng(seed)
    values = model.paths_from_normals(grid, rng.standard_normal((1, grid.n_cells)))[0]
    return MarketPath(grid=grid, values=values)


def benchmarked_cashflow(claims: Sequence[ClaimRecord], path: MarketPath, t: float, T: float) -> float:
    """Deflator-weighted sum of all payments with event time in (t, T].

    Additive over disjoint windows and over policies by construction.  The
    deflator is interpolated at all event times in one call and the products
    are accumulated in event order (``cumsum`` adds sequentially), so the
    sum is the same to the last bit as a per-event loop.
    """
    if t > T:
        raise ConfigurationError(f"window start {t} exceeds end {T}")
    path.grid.require_inside(t)
    path.grid.require_inside(T)
    times, amounts = array("d"), array("d")
    for claim in claims:
        for when, amount in claim.payment_events():
            if t < when <= T:
                times.append(when)
                amounts.append(amount)
    if not times:
        return 0.0
    products = np.interp(times, path.grid.points, path.values)
    products *= amounts
    return float(np.cumsum(products, out=products)[-1])
