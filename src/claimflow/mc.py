"""Monte Carlo oracle for the reserve: full-scenario brute force.

Each path simulates the intensity, every policy's claim history and the
deflator, then accumulates the deflated payments falling in the valuation
window.  A martingale deflator independent of the intensity is sampled
exactly at each path's payment times, so its cost follows the number of
payments rather than the grid size.  Under a log-OU intensity a block
builds its log-levels time-major and its hazards a few cached paths at a
time, and inverts them by a bisection made of whole-array numpy passes,
which release the GIL, so blocks on several threads run side by side.
Paths are generated in fixed-size blocks with one RNG substream per block,
so the estimate is bitwise identical for any thread count, and the draw
layout inside a block is fixed by the configuration and the seed alone.

The conditional variant buckets paths by the realized reported count at
the valuation time; under a deterministic intensity and deflator the
bucket mean is an unbiased estimate of the reserve given that count, by
exchangeability of the homogeneous portfolio.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .claims import DelayLaw, DevelopmentLaw, MarkLaw, _invert_gamma_rows
from .errors import ConfigurationError, InsufficientDataError
from .grids import DEFAULT_STEP, TimeGrid
from .intensity import IntensityModel, LogOUIntensity, hazard_chunks, is_deterministic, simulate_intensity_path
from .market import DeterministicDeflator, MarketModel, MartingaleDeflator, constant_level
from .pricing import ReserveResult
from ._rng import substream

#: Paths per RNG block; part of the reproducibility contract.
BLOCK_SIZE = 4096

_STREAM_MC_BLOCK = 0xB10C

#: Largest |z| at which the analytic reserve and the oracle agree.
Z_THRESHOLD = 3.0


@dataclass(frozen=True)
class McConfig:
    """Everything a Monte Carlo run needs, models included."""

    n_policies: int
    t: float
    T: float
    intensity: IntensityModel
    delay: DelayLaw
    first_mark: MarkLaw
    development: DevelopmentLaw
    market: MarketModel
    n_paths: int = 100_000
    seed: int = 0
    grid_step: float = DEFAULT_STEP
    conditioning: Optional[int] = None
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_policies < 0:
            raise ConfigurationError("portfolio size must be >= 0")
        if self.n_paths < 100:
            raise ConfigurationError(f"need at least 100 paths, got {self.n_paths}")
        if not 0.0 <= self.t <= self.T:
            raise ConfigurationError(f"need 0 <= t <= T, got t={self.t}, T={self.T}")
        if self.conditioning is None:
            if self.t != 0.0:
                raise ConfigurationError("unconditional valuation is supported at t = 0 only")
        else:
            if not 0 <= self.conditioning <= self.n_policies:
                raise ConfigurationError(
                    f"target reported count {self.conditioning} outside [0, {self.n_policies}]")
            if not is_deterministic(self.intensity):
                raise ConfigurationError("conditioning on the reported count needs a deterministic intensity")
            if constant_level(self.market) is None:
                raise ConfigurationError("conditioning on the reported count needs a deterministic deflator")
        if isinstance(self.market, MartingaleDeflator) and self.market.corr_with_intensity != 0.0:
            if is_deterministic(self.intensity):
                raise ConfigurationError("deflator correlation requires a stochastic intensity")
        if self.antithetic:
            if not (isinstance(self.market, MartingaleDeflator) and self.market.vol > 0.0):
                raise ConfigurationError("antithetic variates act on deflator draws; "
                                         "the deflator must be stochastic")
            if self.n_paths % 2 != 0:
                raise ConfigurationError("antithetic pairing needs an even path count")

    def grid(self) -> TimeGrid:
        return TimeGrid.regular(self.T, step=self.grid_step)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_effective: int
    ci95: tuple[float, float]


@dataclass(frozen=True)
class ComparisonReport:
    """Z-score agreement check between the analytic reserve and the oracle."""

    analytic_total: float
    mc_mean: float
    mc_std_error: float
    z: float
    passed: bool


def _interp_on_paths(times: np.ndarray, row: np.ndarray, grid: TimeGrid, paths: np.ndarray) -> np.ndarray:
    """Linear interpolation of per-path grid values at arbitrary times."""
    k = np.floor((times - grid.t0) / grid.step).astype(int)
    k = np.clip(k, 0, grid.n_cells - 1)
    frac = (times - grid.points[k]) / grid.step
    frac = np.clip(frac, 0.0, 1.0)
    return paths[row, k] * (1.0 - frac) + paths[row, k + 1] * frac


def _brownian_at_events(times: np.ndarray, rows: np.ndarray, rng: np.random.Generator,
                        antithetic: bool = False) -> np.ndarray:
    """Standard Brownian motion of each row sampled exactly at its event times.

    Events are sorted by row, then time; one normal is drawn per event in
    that order and ``sqrt(ds) * z`` is cumulated from ``W_0 = 0`` within
    each row (independent Gaussian increments, Glasserman 2004, sec. 3.1).
    With ``antithetic``, rows 2k and 2k + 1 share one motion sampled at the
    union of their times and the odd row takes ``-W``.
    """
    m = len(times)
    if m == 0:
        return np.empty(0)
    paths = rows // 2 if antithetic else rows
    # Two passes instead of np.lexsort: any sort by time, then a stable sort
    # by path on the narrowest integer type, which numpy radix-sorts.
    order = np.argsort(times)
    key = paths[order].astype(np.min_scalar_type(int(paths.max())))
    order = order[np.argsort(key, kind="stable")]
    s, p = times[order], paths[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(p[1:], p[:-1], out=first[1:])
    ds = np.diff(s, prepend=0.0)
    ds[first] = s[first]
    cum = np.cumsum(np.sqrt(ds) * rng.standard_normal(m))
    starts = np.flatnonzero(first)
    before = np.concatenate(([0.0], cum))[starts]
    w = np.empty(m)
    w[order] = cum - np.repeat(before, np.diff(starts, append=m))
    if antithetic:
        np.negative(w, out=w, where=rows % 2 == 1)
    return w


def _deflator_values(config: McConfig, grid: TimeGrid, rng: np.random.Generator,
                     first_times: np.ndarray, in_window: np.ndarray,
                     dev_times: np.ndarray, dev_rows: np.ndarray,
                     z_mu: np.ndarray | None, det_deflator: np.ndarray | float | None,
                     ) -> tuple[np.ndarray | float, np.ndarray | float, float]:
    """Deflator at the first reports, at the development events and at t.

    ``first_times`` and ``in_window`` are (paths, policies); values outside
    the window are unused.  The value at t is the same on every path, so it
    is one float.  A constant deflator (``det_deflator`` a float) is its
    level everywhere, which is exactly what ``np.interp`` of a flat curve
    returns; a time-varying one is interpolated on the grid.  A
    martingale deflator independent of the intensity is sampled exactly at
    the payment times; one correlated with a log-OU intensity shares its
    grid noise and is interpolated from an on-grid path.
    """
    points = grid.points
    n_block = first_times.shape[0]
    market = config.market
    if isinstance(det_deflator, float):
        return det_deflator, det_deflator, det_deflator
    if det_deflator is not None:
        at_t = float(np.interp(config.t, points, det_deflator))
        return (np.interp(first_times, points, det_deflator),
                np.interp(dev_times, points, det_deflator), at_t)

    assert isinstance(market, MartingaleDeflator) and market.vol > 0.0
    at_t = float(market.init)  # t = 0 in this regime
    rho = market.corr_with_intensity
    if rho == 0.0:
        times = np.concatenate((first_times[in_window], dev_times))
        rows = np.concatenate((np.nonzero(in_window)[0], dev_rows))
        w = _brownian_at_events(times, rows, rng, antithetic=config.antithetic)
        values = market.init * np.exp(market.vol * w - (0.5 * market.vol ** 2) * times)
        first = np.zeros(first_times.shape)
        n_first = int(np.count_nonzero(in_window))
        first[in_window] = values[:n_first]
        return first, values[n_first:], at_t

    if config.antithetic:
        half = rng.standard_normal((n_block // 2, grid.n_cells))
        z_i = np.empty((n_block, grid.n_cells))
        z_i[0::2] = half
        z_i[1::2] = -half
    else:
        z_i = rng.standard_normal((n_block, grid.n_cells))
    assert z_mu is not None
    z_i = rho * z_mu + math.sqrt(1.0 - rho * rho) * z_i
    paths = market.paths_from_normals(grid, z_i)
    rows = np.broadcast_to(np.arange(n_block)[:, None], first_times.shape)
    return (_interp_on_paths(first_times, rows, grid, paths),
            _interp_on_paths(dev_times, dev_rows, grid, paths), at_t)


def _log_ou_hazards(config: McConfig, grid: TimeGrid, rng: np.random.Generator,
                    n_block: int) -> tuple[np.ndarray | None, np.ndarray]:
    """A block's intensity normals, if a correlated deflator reads them, and
    its per-path hazards (paths, nodes).

    The levels are built time-major and turned into hazards a few cached
    rows at a time, so beside the result at most the normals and the
    levels, one block-sized array each, are alive at once.
    """
    assert isinstance(config.intensity, LogOUIntensity)
    normals = rng.standard_normal((n_block, grid.n_cells))
    levels = config.intensity.log_levels(grid, normals)
    market = config.market
    if not (isinstance(market, MartingaleDeflator) and market.corr_with_intensity != 0.0):
        normals = None
    gamma = np.empty((n_block, grid.n_cells + 1))
    for rows, _, part in hazard_chunks(grid, levels):
        gamma[rows] = part
    return normals, gamma


def _block_paths(config: McConfig, grid: TimeGrid, block: int,
                 det_gamma: np.ndarray | None,
                 det_deflator: np.ndarray | float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Simulate one block; returns (payoffs, reported counts or None).

    The draw order is fixed: intensity normals, accident thresholds, delays
    (in ``DelayLaw.sample_many``'s layout), first marks, development counts,
    offsets and marks, then the deflator: for a martingale deflator
    independent of the intensity one normal per payment event in the
    window, ordered by path (antithetic pair) and then time; for one
    correlated with the intensity one normal per path (pair) and grid cell.
    """
    start = block * BLOCK_SIZE
    n_block = min(BLOCK_SIZE, config.n_paths - start)
    rng = substream(config.seed, _STREAM_MC_BLOCK, block)
    n = config.n_policies
    t, T = config.t, config.T
    points = grid.points

    z_mu = None
    if det_gamma is None:
        z_mu, gamma = _log_ou_hazards(config, grid, rng, n_block)
    e = rng.exponential(size=(n_block, n))
    if det_gamma is not None:
        tau0 = np.interp(e, det_gamma, points)
        tau0 = np.where(e > det_gamma[-1], np.inf, tau0)
    else:
        tau0 = _invert_gamma_rows(gamma, points, e)
        del gamma  # before the per-policy arrays below are allocated

    tau1 = tau0 + config.delay.sample_many(rng, (n_block, n))

    x1 = np.asarray(config.first_mark.sample(rng, size=(n_block, n)))

    dev = config.development
    dev_times, dev_marks, dev_rows = np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
    if dev.rate > 0.0 and n > 0:
        horizon = np.clip(T - tau1, 0.0, None)
        horizon = np.where(np.isfinite(horizon), horizon, 0.0)
        counts = rng.poisson(dev.rate * horizon)
        total = int(counts.sum())
        if total > 0:
            flat = counts.ravel()
            cell = np.repeat(np.arange(flat.size), flat)
            base_tau1 = tau1.ravel()[cell]
            base_h = horizon.ravel()[cell]
            offsets = (1.0 - rng.random(total)) * base_h
            times = base_tau1 + offsets
            keep = times > t
            dev_times = times[keep]
            dev_marks = np.asarray(dev.mark.sample(rng, size=total))[keep]
            dev_rows = (cell // n)[keep]

    in_window = (tau1 > t) & (tau1 <= T)
    first_times = np.where(in_window, tau1, t)
    defl_first, defl_dev, deflator_at_t = _deflator_values(
        config, grid, rng, first_times, in_window, dev_times, dev_rows, z_mu, det_deflator)

    payoffs = np.zeros(n_block)
    payoffs += np.sum(np.where(in_window, defl_first * x1, 0.0), axis=1)
    payoffs += np.bincount(dev_rows, weights=defl_dev * dev_marks, minlength=n_block)
    payoffs = payoffs / deflator_at_t
    reported = None
    if config.conditioning is not None:
        reported = np.sum(tau1 <= t, axis=1).astype(int)
    return payoffs, reported


def _run_blocks(config: McConfig, threads: int) -> tuple[np.ndarray, np.ndarray | None]:
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    grid = config.grid()
    det_gamma = None
    if is_deterministic(config.intensity):
        det_gamma = simulate_intensity_path(config.intensity, grid, seed=0).gamma
    det_deflator: np.ndarray | float | None = constant_level(config.market)
    if det_deflator is None and isinstance(config.market, DeterministicDeflator):
        det_deflator = config.market.curve(grid.points)

    n_blocks = (config.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    if threads == 1 or n_blocks == 1:
        results = [_block_paths(config, grid, b, det_gamma, det_deflator) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda b: _block_paths(config, grid, b, det_gamma, det_deflator),
                range(n_blocks)))
    payoffs = np.concatenate([r[0] for r in results])
    reported = None
    if config.conditioning is not None:
        reported = np.concatenate([r[1] for r in results])
    return payoffs, reported


def _estimate(samples: np.ndarray) -> McEstimate:
    m = len(samples)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n_effective=m,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se))


def mc_reserve(config: McConfig, threads: int = 1) -> McEstimate:
    """Unconditional value at t = 0 of the payments in (0, T], real units.

    Averages the deflated payment sum over full-scenario paths; with the
    antithetic flag, deflator noise is mirrored in consecutive paths and
    the standard error is computed on pair means.
    """
    if config.conditioning is not None:
        raise ConfigurationError("use mc_conditional_reserve for a conditioned run")
    if config.n_policies == 0:
        return McEstimate(mean=0.0, std_error=0.0, n_effective=config.n_paths, ci95=(0.0, 0.0))
    payoffs, _ = _run_blocks(config, threads)
    if config.antithetic:
        even = payoffs[0 : 2 * (len(payoffs) // 2) : 2]
        odd = payoffs[1 : 2 * (len(payoffs) // 2) : 2]
        payoffs = 0.5 * (even + odd)
    return _estimate(payoffs)


def mc_conditional_reserve(config: McConfig, threads: int = 1) -> McEstimate:
    """Reserve at t given the realized reported count equals the target.

    Simulates unconditionally, buckets paths by the reported count at t and
    returns the statistics of the target bucket.  Needs a deterministic
    intensity and deflator so that the bucket mean identifies the
    conditional value.
    """
    if config.conditioning is None:
        raise ConfigurationError("config.conditioning must name the target reported count")
    payoffs, reported = _run_blocks(config, threads)
    mask = reported == config.conditioning
    count = int(np.sum(mask))
    if count < 100:
        raise InsufficientDataError(
            f"only {count} of {config.n_paths} paths realized a reported count of "
            f"{config.conditioning}; need at least 100")
    return _estimate(payoffs[mask])


def compare(analytic: ReserveResult, mc: McEstimate) -> ComparisonReport:
    """Agreement report: z = (analytic - mc) / SE, passing iff |z| <= Z_THRESHOLD.

    SE combines the oracle's standard error with the analytic reserve's own
    Monte Carlo error, ``diagnostics["outer_std_error"]``, which is nonzero
    when the reserve averages over sampled intensity paths.
    """
    diff = analytic.total - mc.mean
    se = math.hypot(mc.std_error, analytic.diagnostics.get("outer_std_error", 0.0))
    if se == 0.0:
        if diff == 0.0:
            return ComparisonReport(analytic.total, mc.mean, 0.0, z=0.0, passed=True)
        return ComparisonReport(analytic.total, mc.mean, 0.0,
                                z=math.copysign(math.inf, diff), passed=False)
    z = float(diff / se)
    return ComparisonReport(analytic.total, mc.mean, mc.std_error, z=z,
                            passed=bool(abs(z) <= Z_THRESHOLD))
