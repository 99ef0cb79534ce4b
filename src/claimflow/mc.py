"""Monte Carlo oracle for the reserve: full-scenario brute force.

Each path simulates the intensity, every policy's claim history and the
deflator.  A block runs in stages, each a function whose temporaries die
when it returns: accident times, delays added to them in place, the
claims reported by T, their first marks and development counts, one event
list (time, path, amount) of its payments in the valuation window, the
deflator at those events, and the deflated amounts summed by path.  No
stage after the claims are taken out holds a (paths, policies) array, and
the delays and first marks, drawn for every cell, are drawn a piece of
cells at a time.  The claims' arrays are freed one by one as the event
list is built from them: every claim's first report at its front, the
developments after them.  A martingale deflator independent of the
intensity is sampled exactly at the event times, put in (path, time)
order by one sort of a float key, so its cost follows the number of
payments rather than the grid size.
Accident times come from one inverter, ``claims._invert_gamma_rows``,
whether the hazard is one deterministic curve or per path.  A constant or
piecewise rate gives its exact knots (``intensity.hazard_knots``), so the
oracle shares no grid error with the analytic leg.  Under a log-OU
intensity a block draws its accident thresholds, then its levels a
cache-sized part of paths at a time (``draw_hazard_chunks``, two buffers
reused from part to part), and inverts each part's hazard before
the generator overwrites it, so no array of the block's levels or hazards
exists; only a deflator correlated with the intensity makes it draw the
normals as one block-sized array, which the deflator reads.  A block's
memory thus follows its policies and payments, not its grid.  The
per-path inversion is a bisection made of whole-array numpy passes over
a part's thousands of thresholds.  numpy releases the GIL inside each
pass, but a pass of that size takes microseconds, so blocks on two
threads overlap little: on 2 cores, inverting 8 blocks' hazard parts ran
1.18x as fast on 2 threads as on one, and 2.05x on 2 processes.  Paths are
generated in fixed-size blocks with one RNG substream per block, mapped
over a thread pool that the caller may share with other work, so the
estimate is bitwise identical for any thread count, and the draw layout
inside a block is fixed by the configuration and the seed alone.

``McConfig`` is the one record of a book (the CLI's ``ScenarioConfig`` is
an ``McConfig`` plus four CLI fields).  Its constructor refuses each
book-level bound (seed, horizon and the rate's hazard over it, a log-OU
rate's along its median path, grid size, mark means), then each
cross-field contradiction, as a ``SchemaError`` naming the config field.

``mc_reserve`` is the one entry point.  It first calls
``check_oracle_bounds``, which refuses a book too large for the oracle's
arrays, or a moving deflator at t > 0, before anything is allocated; the
CLI's ``--analytic-only`` never calls it.  At t = 0 ``mc_reserve``
averages every path (or every antithetic pair).  With ``conditioning``
set it buckets paths by the realized reported count at the valuation
time; under a deterministic intensity and deflator the bucket mean is an
unbiased estimate of the reserve given that count, by exchangeability of
the homogeneous portfolio.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .claims import _DRAW_PIECE, DelayLaw, DevelopmentLaw, MarkLaw, _invert_gamma_rows
from .errors import ConfigurationError, InsufficientDataError, SchemaError
from .grids import DEFAULT_STEP, TimeGrid
from .intensity import (
    IntensityModel,
    LogOUIntensity,
    draw_hazard_chunks,
    hazard_knots,
    is_deterministic,
)
from .market import (
    DeterministicDeflator,
    MarketModel,
    MartingaleDeflator,
    constant_level,
    correlated_with_intensity,
)
from .pricing import ReserveResult
from ._rng import substream

#: Paths per RNG block; part of the reproducibility contract.
BLOCK_SIZE = 4096

_STREAM_MC_BLOCK = 0xB10C

#: Largest |z| at which the analytic reserve and the oracle agree.
Z_THRESHOLD = 3.0

#: Most values (128 MiB of float64) in one per-path array: policies x paths
#: per Monte Carlo block for the oracle.  Under a log-OU intensity with a
#: correlated deflator also cells x paths of the block's normals, and for
#: the stochastic reserve its draws (one bracket each).  Other log-OU
#: levels are built a cache-sized part of paths at a time.
MAX_PATH_GRID_VALUES = 1 << 24

#: Bytes an oracle block may hold for its development events (512 MiB).
DEVELOPMENT_BUDGET_BYTES = 1 << 29

#: Most bytes a block holds at its peak per development event: its event
#: list entry (20) and the deflator's temporaries at the event.  Measured
#: with tracemalloc as the growth of a block's peak from 50,000 to 200,000
#: expected developments (4 policies x 256 paths): 28 under a constant
#: deflator, 53 under an independent martingale one, 57 antithetic, 60
#: correlated with the intensity; rounded up.
BYTES_PER_DEVELOPMENT = 64

#: Most grid cells a book may ask for: an hourly grid over about 60 years.
#: The analytic run at this size takes about 6 s and 250 MB.
MAX_GRID_CELLS = 1 << 19

#: Largest mean of a first or development mark.  A sampled mark exceeds its
#: mean by at most about e^(z^2 / 2) < 1e18 (lognormal, |z| <= 9; an
#: exponential by about 37), and so does a martingale deflator's ratio.  So
#: a payoff stays below payments x 1e136, and the sum of squares in the
#: oracle's standard error below paths x payments^2 x 1e272: finite for
#: up to 1e36 paths x payments^2, beyond any book the other bounds admit.
MAX_MARK_MEAN = 1e100


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
        n, k, t, T, market = self.n_policies, self.conditioning, self.t, self.T, self.market
        if not self.seed >= 0:
            raise SchemaError("seed", f"must be >= 0, got {self.seed}")
        if not self.grid_step > 0.0:
            raise SchemaError("grid.step", f"must be > 0, got {self.grid_step}")
        if not 0.0 < T < math.inf:
            raise SchemaError("valuation.T", f"must be finite and > 0, got {T}")
        ratio = T / self.grid_step  # TimeGrid.regular makes round(ratio) cells
        cells = max(1, round(ratio)) if math.isfinite(ratio) else math.inf
        if cells > MAX_GRID_CELLS:
            raise SchemaError("grid.step", f"valuation.T / grid.step = {ratio:.6g} grid cells "
                                           f"exceeds the limit of {MAX_GRID_CELLS}")
        # A log-OU rate is held to its median path, the one at zero volatility.
        median = replace(self.intensity, vol=0.0) if isinstance(self.intensity, LogOUIntensity) else self.intensity
        if math.isinf(hazard_knots(median, self.grid())[1][-1]):
            raise SchemaError("valuation.T", "the intensity's hazard over [0, T] is not finite")
        if isinstance(self.intensity, LogOUIntensity) and correlated_with_intensity(market):
            rows = min(BLOCK_SIZE, self.n_paths)
            if cells * rows > MAX_PATH_GRID_VALUES:
                raise SchemaError("grid.step", f"{cells} grid cells x {rows} Monte Carlo paths of normals "
                                               f"exceed {MAX_PATH_GRID_VALUES} values per path array")
        for field, mean in (("first_mark.mean", self.first_mark.mean),
                            ("development.mark_mean", self.development.mark_mean)):
            if not mean <= MAX_MARK_MEAN:
                raise SchemaError(field, f"must be <= {MAX_MARK_MEAN}, got {mean}")
        if n < 0:
            raise SchemaError("portfolio.n", f"must be >= 0, got {n}")
        if self.n_paths < 100:
            raise SchemaError("mc.n_paths", f"must be >= 100, got {self.n_paths}")
        if correlated_with_intensity(market) and is_deterministic(self.intensity):
            raise SchemaError("market.corr_with_intensity",
                              "must be 0 unless the intensity is a stochastic log_ou")
        if k is not None and not 0 <= k <= n:
            raise SchemaError("portfolio.reported_count", f"must be in [0, portfolio size {n}], got {k}")
        if not 0.0 <= t <= T:
            raise SchemaError("valuation.t", f"must be in [0, T = {T}], got {t}")
        if t == 0.0 and k:
            raise SchemaError("portfolio.reported_count", "must be 0 when valuing at t = 0")
        if t > 0.0 and k is None:
            raise SchemaError("portfolio.reported_count", "must be set when valuing at t > 0")
        if t > 0.0 and not is_deterministic(self.intensity):
            raise SchemaError("valuation.t", "must be 0 under a stochastic log_ou intensity: "
                                             "no pricing leg conditions on a partial intensity history")
        if self.antithetic:
            if not (isinstance(market, MartingaleDeflator) and market.vol > 0.0):
                raise SchemaError("mc.antithetic", "needs a martingale deflator with market.vol > 0: "
                                                   "antithetic variates mirror its draws")
            if k is not None:
                raise SchemaError("mc.antithetic", "cannot bucket by portfolio.reported_count: "
                                                   "the two paths of a pair may fall in different buckets")
            if self.n_paths % 2 != 0:
                raise SchemaError("mc.n_paths", f"must be even under mc.antithetic, got {self.n_paths}")

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


def _two_pass_order(times: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """Indices that sort events by path, then time: any sort by time, then a
    stable sort by path on the narrowest integer type, which numpy
    radix-sorts."""
    order = np.argsort(times)
    key = paths[order].astype(np.min_scalar_type(int(paths.max())))
    return order[np.argsort(key, kind="stable")]


def _increments(s: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time increments of events sorted by path ``p`` and time ``s``, each
    path's first measured from 0, and the mask of those first events."""
    m = len(s)
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(p[1:], p[:-1], out=first[1:])
    ds = np.empty(m)
    np.subtract(s[1:], s[:-1], out=ds[1:])
    np.copyto(ds, s, where=first)
    return ds, first


def _brownian_at_events(times: np.ndarray, rows: np.ndarray, rng: np.random.Generator,
                        antithetic: bool = False) -> np.ndarray:
    """Standard Brownian motion of each row sampled exactly at its event times.

    Events are sorted by row, then time; one normal is drawn per event in
    that order and ``sqrt(ds) * z`` is cumulated from ``W_0 = 0`` within
    each row (independent Gaussian increments, Glasserman 2004, sec. 3.1).
    With ``antithetic``, rows 2k and 2k + 1 share one motion sampled at the
    union of their times and the odd row takes ``-W``.

    The order is one ``argsort`` of the float key ``path + time / span``,
    ``span`` a power of two above twice the latest time: a path's keys lie
    in [path, path + 1/2], so paths cannot mix, and rounding never
    reverses two times.  It can tie two times of one path less than an ulp
    of the key apart, and ``argsort`` may then put them in either order; a
    negative increment shows it, and the two-pass sort orders that block.
    Times must be >= 0.
    """
    m = len(times)
    if m == 0:
        return np.empty(0)
    paths = rows // 2 if antithetic else rows
    key = times * math.ldexp(1.0, -math.frexp(times.max())[1] - 1)
    key += paths
    order = np.argsort(key)
    del key
    ds, first = _increments(times[order], paths[order])
    if ds.min() < 0.0:
        order = _two_pass_order(times, paths)
        ds, first = _increments(times[order], paths[order])
    z = rng.standard_normal(m)
    cum = np.sqrt(ds, out=ds)
    cum *= z
    np.cumsum(cum, out=cum)
    starts = np.flatnonzero(first)
    before = cum[starts - 1]
    before[0] = 0.0
    cum -= np.repeat(before, np.diff(starts, append=m))
    w = z
    w[order] = cum
    if antithetic:
        np.negative(w, out=w, where=rows % 2 == 1)
    return w


def _deflator_values(config: McConfig, grid: TimeGrid, rng: np.random.Generator,
                     times: np.ndarray, rows: np.ndarray,
                     z_mu: np.ndarray | None, det_deflator: np.ndarray | float | None,
                     ) -> tuple[np.ndarray | float, float]:
    """Deflator at a block's payment events and at t.

    ``times`` and ``rows`` are the events' times and paths.  The value at t
    is the same on every path, so it is one float.  A constant deflator
    (``det_deflator`` a float) is its level everywhere, which is exactly
    what ``np.interp`` of a flat curve returns; a time-varying one is
    interpolated on the grid.  A martingale deflator independent of the
    intensity is sampled exactly at the event times; one correlated with a
    log-OU intensity shares its grid noise and is interpolated from an
    on-grid path.
    """
    points = grid.points
    market = config.market
    if isinstance(det_deflator, float):
        return det_deflator, det_deflator
    if det_deflator is not None:
        return np.interp(times, points, det_deflator), float(np.interp(config.t, points, det_deflator))

    assert isinstance(market, MartingaleDeflator) and market.vol > 0.0
    at_t = float(market.init)  # t = 0 in this regime
    rho = market.corr_with_intensity
    if rho == 0.0:
        deflator = _brownian_at_events(times, rows, rng, antithetic=config.antithetic)
        deflator *= market.vol
        deflator -= (0.5 * market.vol ** 2) * times
        np.exp(deflator, out=deflator)
        deflator *= market.init
        return deflator, at_t

    assert z_mu is not None
    n_block = len(z_mu)
    if config.antithetic:
        half = rng.standard_normal((n_block // 2, grid.n_cells))
        z_i = np.empty((n_block, grid.n_cells))
        z_i[0::2] = half
        z_i[1::2] = -half
    else:
        z_i = rng.standard_normal((n_block, grid.n_cells))
    z_i = rho * z_mu + math.sqrt(1.0 - rho * rho) * z_i
    paths = market.paths_from_normals(grid, z_i)
    return _interp_on_paths(times, rows, grid, paths), at_t


def _accident_times(config: McConfig, grid: TimeGrid, rng: np.random.Generator, n_block: int,
                    knots: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray | None, np.ndarray]:
    """The intensity normals, if a correlated deflator reads them, and the
    accident times (paths, policies), inf where a policy has none by T.

    Draws the accident thresholds and, under a deterministic rate, inverts
    them at its hazard ``knots`` (times, Gamma) in one search.  Under a
    log-OU intensity it then draws the normals: a part of paths at a time
    straight into the generator's buffers (``draw_hazard_chunks``, at the
    stochastic reserve's part size), unless a correlated deflator needs
    them as one array.  Each part's hazard is inverted before the next
    part overwrites it, and its thresholds are overwritten by their
    accident times.  So neither the block's levels nor its hazards, nor
    without a correlated deflator its normals, ever exist as one array.
    """
    tau = rng.exponential(size=(n_block, config.n_policies))
    if knots is not None:
        times, gamma = knots
        return None, _invert_gamma_rows(gamma, times, tau)
    normals = None
    if correlated_with_intensity(config.market):
        normals = rng.standard_normal((n_block, grid.n_cells))
    for rows, _, gamma in draw_hazard_chunks(config.intensity, grid, rng, n_block, normals):
        tau[rows] = _invert_gamma_rows(gamma, grid.points, tau[rows])
    return normals, tau


def _reported_claims(config: McConfig, tau1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The claims reported by T, row-major: their cells (path x n_policies
    + policy) as int32, which holds any block ``check_oracle_bounds``
    admits, and their report times."""
    flat = tau1.reshape(-1)
    reported = flat <= config.T
    return np.flatnonzero(reported).astype(np.int32), flat[reported]


def _first_marks(config: McConfig, rng: np.random.Generator, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """The first marks of the claims at ``cells`` (sorted) of a block's
    ``n_cells`` cells: every cell's mark is drawn, ``_DRAW_PIECE`` cells at
    a time, the same values as one draw, and only the claims' are kept."""
    marks = np.empty(len(cells))
    for lo in range(0, n_cells, _DRAW_PIECE):
        hi = min(lo + _DRAW_PIECE, n_cells)
        a, b = cells.searchsorted((lo, hi))
        piece = config.first_mark.sample(rng, size=hi - lo)
        piece.take(cells[a:b] - lo, out=marks[a:b], mode="clip")
    return marks


def _development_owners(config: McConfig, rng: np.random.Generator, report: np.ndarray) -> np.ndarray:
    """Each development's claim, an int32 index into the claims' ``report``
    times, in claim order.

    A claim reported at ``tau1 <= T`` pays a Poisson(rate x (T - tau1))
    number of developments.  One reported at T, like a cell never reported
    by T, has mean 0, which numpy's Poisson answers without a draw, so
    drawing the claims' counts alone draws what every cell's would.
    """
    dev = config.development
    if not dev.rate > 0.0:
        return np.empty(0, dtype=np.int32)
    counts = rng.poisson(dev.rate * (config.T - report))
    return np.repeat(np.arange(len(report), dtype=np.int32), counts)


def _event_list(config: McConfig, rng: np.random.Generator,
                claims: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The event list of the payments in (t, T], row-major: every claim's
    first report, then every development; their times, paths (int32) and
    amounts.

    ``claims`` holds the claims' cells, report times and first marks, and
    the ``_development_owners``.  The list is emptied, and each array is
    dropped once the event list holds what it needs of it: the list's
    times, paths and amounts are built in that order, so at most the first
    marks exist beside the whole list.  Each development falls at a uniform
    time in (report, T]: the offsets' uniforms are drawn into its amounts,
    then its marks over them.  Events at or before t, first reports or
    developments, are then dropped in place.
    """
    cells, report, marks, owners = claims
    claims.clear()
    n_claims, size = len(report), len(report) + len(owners)
    times = np.empty(size)
    times[:n_claims] = report
    report.take(owners, out=times[n_claims:], mode="clip")
    del report
    rows = np.empty(size, dtype=np.int32)
    rows[:n_claims] = cells
    cells.take(owners, out=rows[n_claims:], mode="clip")
    del cells, owners
    rows //= config.n_policies
    amounts = np.empty(size)
    amounts[:n_claims] = marks
    del marks
    dev_times, dev_amounts = times[n_claims:], amounts[n_claims:]
    rng.random(out=dev_amounts)
    np.subtract(1.0, dev_amounts, out=dev_amounts)  # 1 - U lies in (0, 1]
    dev_amounts *= config.T - dev_times
    dev_times += dev_amounts
    dev_amounts[:] = config.development.mark.sample(rng, size=len(dev_amounts))
    events = (times, rows, amounts)
    keep = times > config.t
    if keep.all():
        return events
    end = np.count_nonzero(keep)
    for buffer in events:
        buffer[:end] = buffer[keep]
    return tuple(buffer[:end] for buffer in events)


def _block_paths(config: McConfig, grid: TimeGrid, block: int,
                 knots: tuple[np.ndarray, np.ndarray] | None,
                 det_deflator: np.ndarray | float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Simulate one block; returns (payoffs, reported counts or None).

    The stages are the module docstring's, each a function whose
    temporaries die when it returns; accident times are inverted at the
    hazard ``knots`` of a deterministic rate, or per path under a log-OU
    one.  The deflator and the deflated amounts are computed in place.  The
    draw order is fixed: accident thresholds, then under a log-OU
    intensity its normals (paths, cells) path by path, delays (in
    ``DelayLaw.add_to``'s layout), every cell's first mark, the
    development counts of the claims reported before T, offsets and marks,
    then the deflator: for a martingale deflator independent of the
    intensity one normal per payment event in the window, ordered by path
    (antithetic pair) and then time; for one correlated with the intensity
    one normal per path (pair) and grid cell.
    """
    start = block * BLOCK_SIZE
    n_block = min(BLOCK_SIZE, config.n_paths - start)
    rng = substream(config.seed, _STREAM_MC_BLOCK, block)
    z_mu, tau1 = _accident_times(config, grid, rng, n_block, knots)
    config.delay.add_to(rng, tau1)  # report times, in place
    reported = None
    if config.conditioning is not None:
        reported = np.sum(tau1 <= config.t, axis=1).astype(int)
    cells, report = _reported_claims(config, tau1)
    del tau1  # from here on a block holds its claims, not its cells
    marks = _first_marks(config, rng, cells, n_block * config.n_policies)
    owners = _development_owners(config, rng, report)
    claims = [cells, report, marks, owners]
    del cells, report, marks, owners  # _event_list drops each when done with it
    times, rows, amounts = _event_list(config, rng, claims)
    deflator, deflator_at_t = _deflator_values(config, grid, rng, times, rows, z_mu, det_deflator)
    amounts *= deflator
    # bincount's sums, bit for bit (each path's in event order), without
    # its intp copy of the paths.
    payoffs = np.zeros(n_block)
    np.add.at(payoffs, rows, amounts)
    payoffs /= deflator_at_t
    return payoffs, reported


def _run_blocks(config: McConfig, pool: Executor) -> tuple[np.ndarray, np.ndarray | None]:
    """Every block's payoffs and reported counts, the blocks mapped over
    ``pool``; a deterministic rate's hazard knots and deflator values are
    built once, for all blocks."""
    grid = config.grid()
    knots = hazard_knots(config.intensity, grid) if is_deterministic(config.intensity) else None
    det_deflator: np.ndarray | float | None = constant_level(config.market)
    if det_deflator is None and isinstance(config.market, DeterministicDeflator):
        det_deflator = config.market.curve(grid.points)

    results = list(pool.map(lambda b: _block_paths(config, grid, b, knots, det_deflator),
                            range(n_blocks(config))))
    payoffs = np.concatenate([r[0] for r in results])
    reported = None
    if config.conditioning is not None:
        reported = np.concatenate([r[1] for r in results])
    return payoffs, reported


def n_blocks(config: McConfig) -> int:
    """Number of ``BLOCK_SIZE``-path blocks of the oracle's paths."""
    return (config.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE


def _estimate(samples: np.ndarray) -> McEstimate:
    m = len(samples)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n_effective=m,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se))


def check_oracle_bounds(config: McConfig) -> None:
    """Refuse, as ``SchemaError``, a book the closed form prices but the oracle cannot.

    The oracle holds one entry per path, and per policy and path of a
    block; each count is held to ``MAX_PATH_GRID_VALUES`` before anything
    is allocated.  A block's expected development events, at most
    policies x paths x rate x T, are held to what
    ``DEVELOPMENT_BUDGET_BYTES`` buys at ``BYTES_PER_DEVELOPMENT`` each.
    Its reported-count buckets at t > 0 need a deflator that never moves.
    """
    n_paths, n, dev = config.n_paths, config.n_policies, config.development
    if n_paths > MAX_PATH_GRID_VALUES:
        raise SchemaError("mc.n_paths", f"{n_paths} paths exceed {MAX_PATH_GRID_VALUES} values "
                                        f"per path array")
    rows = min(BLOCK_SIZE, n_paths)
    if n * rows > MAX_PATH_GRID_VALUES:
        raise SchemaError("portfolio.n", f"{n} policies x {rows} Monte Carlo paths per block "
                                         f"exceed {MAX_PATH_GRID_VALUES} values per path array")
    dev_events = n * rows * dev.rate * config.T
    dev_limit = DEVELOPMENT_BUDGET_BYTES // BYTES_PER_DEVELOPMENT
    if dev_events > dev_limit:
        raise SchemaError("development.rate",
                          f"{n} policies x {rows} Monte Carlo paths per block x rate {dev.rate:g} "
                          f"x T = {config.T:g} expect {dev_events:.6g} development events per "
                          f"block, over the {dev_limit} that {DEVELOPMENT_BUDGET_BYTES} bytes hold "
                          f"at {BYTES_PER_DEVELOPMENT} bytes each")
    if config.t > 0.0 and constant_level(config.market) is None:
        if isinstance(config.market, DeterministicDeflator):
            raise SchemaError("market.level", "must be constant for the Monte Carlo oracle at valuation.t > 0")
        raise SchemaError("market.vol", "must be 0 for the Monte Carlo oracle at valuation.t > 0")


def mc_reserve(config: McConfig, threads: int = 1, *, pool: Executor | None = None) -> McEstimate:
    """Value of the payments in (t, T], real units, estimated by the oracle.

    Averages the deflated payment sum over full-scenario paths.  With the
    antithetic flag, deflator noise is mirrored in consecutive paths and
    the standard error is computed on pair means.  With
    ``config.conditioning`` set, paths are bucketed by the reported count
    at t and the target bucket's statistics are returned; it needs at
    least 100 paths (``InsufficientDataError``).  A book beyond
    ``check_oracle_bounds`` is refused before anything is allocated.
    The blocks run on ``pool`` when given, which may hold other tasks
    (the CLI's ``--validate`` runs the analytic reserve on it), else on a
    pool of ``threads`` workers made for this call.
    """
    check_oracle_bounds(config)
    if pool is not None:
        payoffs, reported = _run_blocks(config, pool)
    else:
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        with ThreadPoolExecutor(max_workers=threads) as own:
            payoffs, reported = _run_blocks(config, own)
    if config.antithetic:
        payoffs = 0.5 * (payoffs[0::2] + payoffs[1::2])
    if reported is not None:
        payoffs = payoffs[reported == config.conditioning]
        if len(payoffs) < 100:
            raise InsufficientDataError(
                f"only {len(payoffs)} of {config.n_paths} paths realized a reported count of "
                f"{config.conditioning}; need at least 100")
    return _estimate(payoffs)


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
