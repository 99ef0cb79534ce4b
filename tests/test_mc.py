"""Monte Carlo oracle: estimates, buckets, comparison contract."""
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimflow import (
    ConfigurationError,
    ConstantIntensity,
    DelayLaw,
    DeterministicDeflator,
    DevelopmentLaw,
    ExponentialDelay,
    GammaDelay,
    InsufficientDataError,
    IntensityPath,
    LogOUIntensity,
    MarkLaw,
    MartingaleDeflator,
    McConfig,
    McEstimate,
    PiecewiseConstantIntensity,
    PortfolioState,
    ReserveResult,
    SchemaError,
    compare,
    mc_reserve,
    TimeGrid,
    invert_hazard,
    reserve,
)
from claimflow import mc
from claimflow.cli import parse_config
from claimflow.claims import MAX_SIGMA_LN, _BISECT_CHUNK, _DRAW_PIECE, _invert_gamma_rows
from claimflow.intensity import _hazard_chunk_rows, hazard_knots, trapezoid_hazard
from claimflow.market import MAX_DEFLATOR_LEVEL, MAX_DEFLATOR_VOL
from claimflow.mc import BLOCK_SIZE, Z_THRESHOLD, _accident_times, _brownian_at_events


def _config(**overrides):
    base = dict(
        n_policies=4,
        t=0.0,
        T=1.0,
        intensity=ConstantIntensity(1.0),
        delay=DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)),
        first_mark=MarkLaw(mean=1.0, kind="exponential"),
        development=DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5, kind="exponential")),
        market=DeterministicDeflator(1.0),
        n_paths=4000,
        seed=1,
    )
    base.update(overrides)
    return McConfig(**base)


def test_zero_policies_give_zero():
    # n_effective counts antithetic pairs here as in any other antithetic run.
    plain = _config(n_policies=0)
    paired = _config(n_policies=0, n_paths=8192, market=MartingaleDeflator(init=1.0, vol=0.3),
                     antithetic=True)
    for config, n_effective in [(plain, plain.n_paths), (paired, 4096)]:
        estimate = mc_reserve(config)
        assert estimate.mean == 0.0
        assert estimate.std_error == 0.0
        assert estimate.n_effective == n_effective


def test_degenerate_scenario_has_zero_std_error():
    # Near-certain immediate accident, instant report, fixed payment of 2.0:
    # every path pays exactly the same amount.
    config = _config(
        n_policies=1,
        intensity=ConstantIntensity(1000.0),
        delay=DelayLaw(alpha0=1.0),
        first_mark=MarkLaw(mean=2.0),
        development=DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
        n_paths=500,
    )
    estimate = mc_reserve(config)
    assert estimate.mean == 2.0
    assert estimate.std_error == 0.0


def test_std_error_scaling_with_path_count():
    small = mc_reserve(_config(n_paths=4000, seed=21))
    large = mc_reserve(_config(n_paths=16000, seed=22))
    ratio = small.std_error / large.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_thread_count_does_not_change_results():
    # Event-time deflator, plain and antithetic, the on-grid deflator that
    # shares noise with a log-OU intensity, and a conditioned run at t > 0;
    # each spans several blocks.
    stochastic = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    configs = [
        _config(n_paths=10_000, market=MartingaleDeflator(init=1.0, vol=0.2)),
        _config(n_paths=10_000, market=MartingaleDeflator(init=1.0, vol=0.2), antithetic=True),
        _config(n_paths=BLOCK_SIZE + 1000, intensity=stochastic,
                market=MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5)),
        _config(n_paths=BLOCK_SIZE + 1000, t=0.5, conditioning=1),
    ]
    for config in configs:
        assert config.n_paths > BLOCK_SIZE
        assert mc_reserve(config, threads=1) == mc_reserve(config, threads=3)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_is_an_error(threads):
    # Raised before any block runs, so no worker thread is started.
    with pytest.raises(ConfigurationError, match="threads"):
        mc_reserve(_config(), threads=threads)
    with pytest.raises(ConfigurationError, match="threads"):
        mc_reserve(_config(t=0.5, conditioning=1), threads=threads)


def test_reproducible_across_calls():
    config = _config(n_paths=5000)
    assert mc_reserve(config) == mc_reserve(config)


def test_antithetic_matches_analytic_and_halves_effective_count():
    config = _config(n_paths=40_000, market=MartingaleDeflator(init=1.0, vol=0.3),
                     antithetic=True, seed=8)
    estimate = mc_reserve(config)
    assert estimate.n_effective == 20_000
    state = PortfolioState.from_counts(0.0, 4, 0)
    analytic = reserve(state, config.intensity, config.delay, config.first_mark,
                       config.development, config.T, market=config.market)
    assert abs(analytic.total - estimate.mean) <= 3.0 * estimate.std_error


def test_antithetic_with_correlated_deflator():
    # Mirrored on-grid deflator noise: thread invariant, counted in pairs,
    # and in agreement with the plain run of the same book.
    stochastic = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    market = MartingaleDeflator(1.0, 0.3, corr_with_intensity=0.5)
    paired = _config(intensity=stochastic, market=market, n_paths=8192, seed=21, antithetic=True)
    estimate = mc_reserve(paired)
    assert mc_reserve(paired, threads=2) == estimate
    assert estimate.n_effective == 4096
    plain = mc_reserve(_config(intensity=stochastic, market=market, n_paths=8192, seed=21))
    z = (estimate.mean - plain.mean) / math.hypot(estimate.std_error, plain.std_error)
    assert abs(z) <= Z_THRESHOLD


def test_time_varying_deterministic_deflator():
    # One policy, rate 1, instant report of a unit mark on (0, 1], deflated
    # by 1 + s: the value is int_0^1 (1 + s) e^(-s) ds = 2 - 3/e.
    config = _config(n_policies=1, delay=DelayLaw(alpha0=1.0), first_mark=MarkLaw(mean=1.0),
                     development=DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
                     market=DeterministicDeflator(lambda s: 1.0 + s), n_paths=100_000, seed=12)
    estimate = mc_reserve(config)
    z = (estimate.mean - (2.0 - 3.0 / math.e)) / estimate.std_error
    assert abs(z) <= Z_THRESHOLD


def test_ci_is_mean_plus_minus_1_96_se():
    estimate = mc_reserve(_config(n_paths=2000))
    lo, hi = estimate.ci95
    assert lo == pytest.approx(estimate.mean - 1.96 * estimate.std_error)
    assert hi == pytest.approx(estimate.mean + 1.96 * estimate.std_error)


def _pinned_configs():
    log_ou = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    return {
        "log_ou_n64": _config(
            n_policies=64, intensity=log_ou, n_paths=BLOCK_SIZE + 904, seed=3,
            development=DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential"))),
        "constant_level": _config(
            T=2.0, intensity=ConstantIntensity(0.8),
            delay=DelayLaw(alpha0=0.0, density=GammaDelay(2.0, 3.0)),
            first_mark=MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.5),
            market=DeterministicDeflator(1.25), n_paths=3000, seed=5),
        "flat_martingale": _config(
            n_policies=3, intensity=ConstantIntensity(1.2), delay=DelayLaw(alpha0=1.0),
            first_mark=MarkLaw(mean=2.0, kind="exponential"),
            development=DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential")),
            market=MartingaleDeflator(init=0.8, vol=0.0), n_paths=3000, seed=7),
        "conditional": _config(
            n_policies=3, t=0.5, delay=DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0)),
            development=DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5)),
            market=DeterministicDeflator(1.1), n_paths=3000, seed=9, conditioning=1),
        "log_ou_correlated": _config(
            n_policies=8, intensity=log_ou, n_paths=BLOCK_SIZE + 904, seed=4,
            market=MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5)),
        "log_ou_correlated_antithetic": _config(
            n_policies=8, intensity=log_ou, n_paths=BLOCK_SIZE + 904, seed=4, antithetic=True,
            market=MartingaleDeflator(init=1.0, vol=0.3, corr_with_intensity=-0.4)),
        "event_martingale": _config(
            n_policies=6, n_paths=BLOCK_SIZE + 904, seed=6, market=MartingaleDeflator(init=1.0, vol=0.2)),
        "event_martingale_antithetic": _config(
            n_policies=6, n_paths=BLOCK_SIZE + 904, seed=6, antithetic=True,
            market=MartingaleDeflator(init=1.0, vol=0.2)),
    }


@pytest.mark.parametrize("name, mean, std_error", [
    ("log_ou_n64", "0x1.35a2c192ab4b1p+5", "0x1.02e034b7f74abp-3"),
    ("constant_level", "0x1.d58d477b0da6dp+1", "0x1.27b2ef2ac6f73p-5"),
    ("flat_martingale", "0x1.5b2225995eff0p+2", "0x1.1b6473a4817f7p-4"),
    ("conditional", "0x1.ef2609c2b4066p-1", "0x1.14bbf3a6cb236p-5"),
    ("log_ou_correlated", "0x1.1ecf82145eb69p+2", "0x1.53f621a6d9b95p-5"),
    ("log_ou_correlated_antithetic", "0x1.1966917078636p+2", "0x1.420b181bacf72p-5"),
    ("event_martingale", "0x1.a0cddb345dc71p+1", "0x1.16a3af7a66211p-5"),
    ("event_martingale_antithetic", "0x1.a0ba830a58826p+1", "0x1.1511d1355e909p-5"),
])
def test_oracle_numbers_are_pinned(name, mean, std_error):
    # The draw layout and the arithmetic of a block, bit for bit: a log-OU
    # book over two blocks (per-row hazard inversion), a constant
    # deterministic and a zero-volatility martingale deflator, the three
    # delay layouts (alpha0 in (0, 1), 0 and 1), a conditional run, and a
    # deflator correlated with a log-OU intensity, plain and antithetic,
    # whose block draws the intensity normals as one array.  A log-OU block
    # draws its accident thresholds before its intensity normals.  The two
    # event_martingale books sample an independent martingale deflator at
    # every payment date (the README command's oracle), plain and antithetic.
    # Thread invariance cannot see a change in these numbers; this can.
    config = _pinned_configs()[name]
    estimate = mc_reserve(config)
    assert (estimate.mean.hex(), estimate.std_error.hex()) == (mean, std_error)


# ---------------------------------------------------------------------------
# Block kernels: hazard inversion and the event-time Brownian motion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_nodes, n_policies, n_rows", [
    (2, 9, 40), (37, 9, 40), (64, 9, 40), (366, 64, 40),
    (65, 9, 40), (731, 9, 40), (366, 1, 40), (65, 1, 40), (366, 160, 400),
], ids=["2", "37", "64", "366", "65", "731", "366-n1", "65-n1", "366-several-passes"])
def test_invert_gamma_rows_matches_scalar_inverter(n_nodes, n_policies, n_rows):
    rng = np.random.default_rng(11)
    grid = TimeGrid.regular(2.0, step=2.0 / (n_nodes - 1))
    increments = rng.exponential(0.1, size=(n_rows, n_nodes - 1))
    increments[rng.random(increments.shape) < 0.2] = 0.0  # flat stretches
    increments[6:12, : max(1, (n_nodes - 1) // 4)] = 0.0  # flat from the start
    gamma = np.zeros((n_rows, n_nodes))
    np.cumsum(increments, axis=1, out=gamma[:, 1:])
    e = rng.uniform(0.0, 1.3 * gamma[:, -1:], size=(n_rows, n_policies))
    if n_policies >= 4:
        e[:, 0] = gamma[:, -1] * 1.01 + 1e-9   # beyond the horizon: inf
        e[:, 1] = gamma[:, -1]                  # exactly the last node
        e[:, 2] = gamma[:, n_nodes // 2]        # exactly an interior node
        e[:, 3] = 0.0
    e[4] = gamma[4, -1] + rng.uniform(1e-9, 1.0, size=n_policies)  # no threshold crosses
    e[5] = rng.uniform(0.0, gamma[5, -1], size=n_policies)         # every threshold crosses
    # Where a bisection that is off by one step or one comparison shows:
    # 0, Gamma_T and one ulp above it, and exactly at nodes, flat ones too.
    columns = range(4, n_policies) if n_policies >= 4 else range(n_policies)
    for r in range(6, n_rows):
        flat = np.flatnonzero(increments[r] == 0.0)
        at_flat = gamma[r, rng.choice(flat)] if len(flat) else 0.0
        special = (0.0, gamma[r, -1], np.nextafter(gamma[r, -1], np.inf), at_flat,
                   gamma[r, rng.integers(n_nodes)])
        for j, col in enumerate(columns):
            e[r, col] = special[(r + j) % len(special)]
    if n_rows > 40:
        assert np.count_nonzero(e <= gamma[:, -1:]) > 2 * _BISECT_CHUNK
    out = _invert_gamma_rows(gamma, grid.points, e)
    expected = np.empty_like(e)
    for r in range(n_rows):
        path = IntensityPath(grid=grid, mu=np.zeros(n_nodes), gamma=gamma[r])
        for j in range(n_policies):
            expected[r, j] = invert_hazard(path, float(e[r, j]))
    if n_policies >= 4:
        assert np.all(np.isinf(np.delete(out[:, 0], 5)))
    assert np.all(np.isinf(out[4]))
    assert np.all(np.isfinite(out[5]))
    assert np.array_equal(out, expected)


def test_deterministic_accident_times_invert_the_exact_knots():
    # A breakpoint at 0.3 inside the cell [0.25, 0.5] of a coarse grid: the
    # grid trapezoid would average the two rates over that cell.  The
    # oracle's accident times are the exact inverse of the piecewise
    # hazard, 0.5 t up to 0.3 and 0.15 + 2 (t - 0.3) after it.
    model = PiecewiseConstantIntensity(breakpoints=(0.3,), rates=(0.5, 2.0))
    config = _config(intensity=model, grid_step=0.25)
    grid = config.grid()
    _, tau = _accident_times(config, grid, np.random.default_rng(9), 500, hazard_knots(model, grid))
    e = np.random.default_rng(9).exponential(size=(500, config.n_policies))
    exact = np.where(e <= 0.15, e / 0.5, 0.3 + (e - 0.15) / 2.0)
    exact[e > 0.15 + 2.0 * 0.7] = np.inf
    assert np.count_nonzero(np.isfinite(exact) & (exact > 0.3)) > 100
    np.testing.assert_allclose(tau, exact, rtol=1e-14, atol=0.0)


def _sample_brownian(times_per_row, n_rows, seed=4, antithetic=False):
    """W at fixed times in every row, events fed in shuffled order."""
    rng = np.random.default_rng(seed)
    k = len(times_per_row)
    rows = np.repeat(np.arange(n_rows), k)
    times = np.tile(np.asarray(times_per_row, dtype=float), n_rows)
    shuffle = rng.permutation(len(times))
    w = np.empty(len(times))
    w[shuffle] = _brownian_at_events(times[shuffle], rows[shuffle], rng, antithetic=antithetic)
    return w.reshape(n_rows, k)


#: An oracle block's stages in run order: (owner, function name).
_STAGES = ((mc, "_accident_times"), (DelayLaw, "add_to"), (mc, "_reported_claims"),
           (mc, "_first_marks"), (mc, "_development_owners"), (mc, "_event_list"),
           (mc, "_deflator_values"))


def _stage_peaks(monkeypatch, config):
    """tracemalloc peaks of one oracle run on one thread, in bytes, by stage.

    A stage's entry is the peak while it runs; "before <stage>" is that of
    the code run since the previous stage, and "after" that of the code
    after the last one.  So the largest entry is the run's peak, and its
    key names the stage that set it.
    """
    peaks = {}

    def record(key):
        peaks[key] = max(peaks.get(key, 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def staged(name, function):
        def run(*args, **kwargs):
            record(f"before {name}")
            try:
                return function(*args, **kwargs)
            finally:
                record(name)
        return run

    with monkeypatch.context() as patch:
        for owner, name in _STAGES:
            patch.setattr(owner, name, staged(name, getattr(owner, name)))
        tracemalloc.start()
        try:
            mc_reserve(config, threads=1)
            record("after")
        finally:
            tracemalloc.stop()
    return peaks


def _over(peaks, bound):
    """The entries of ``peaks`` at or above ``bound`` bytes, in MiB."""
    return {key: round(peak / 2**20, 2) for key, peak in peaks.items() if peak >= bound}


def test_log_ou_block_peak_memory(monkeypatch):
    # One 4,096-path block of the stochastic_validate book at n = 64.  Its
    # levels are built a cache-sized part at a time, each part's hazard is
    # inverted as it is built, its delays and first marks are drawn a piece
    # at a time, and no stage after the claims are taken out holds a
    # (paths, policies) array.  The peak, 4.7 MiB, is set by the event list
    # beside the first marks; the bound allows 0.3 MiB over it.  Holding
    # every cell's draws, the development counts peaked at 8.7 MiB.
    config = _config(
        n_policies=64, intensity=LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
        development=DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential")),
        n_paths=BLOCK_SIZE, seed=3)
    peaks = _stage_peaks(monkeypatch, config)
    assert set(name for _, name in _STAGES) <= set(peaks)
    assert not _over(peaks, 5 * 2**20)


def test_log_ou_accident_stage_memory_does_not_follow_the_grid():
    # 100 paths on 20,000 cells: one (nodes, paths) levels array would take
    # 16 MB.  The stage holds one part's normals, levels and hazard (a
    # quarter of a MiB at most) besides its accident times.
    config = _config(intensity=LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
                     grid_step=1.0 / 20_000, n_paths=100)
    grid = config.grid()
    assert grid.n_cells == 20_000
    tracemalloc.start()
    try:
        _accident_times(config, grid, np.random.default_rng(0), config.n_paths, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_deterministic_block_peak_memory(monkeypatch):
    # One 4,096-path block of configs/example.json.  Its event-time deflator
    # sets the peak (3.5 MiB) only if the stages before it have freed their
    # (paths, policies) arrays and development temporaries, and the event
    # list is built in one buffer: concatenating the first reports and the
    # developments held the list twice and peaked at 5.8 MiB.
    example = parse_config((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    assert not _over(_stage_peaks(monkeypatch, replace(example, n_paths=BLOCK_SIZE)), 5 * 2**20)


_MOVING = MartingaleDeflator(init=1.0, vol=0.2)
_CORRELATED = MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5)


@pytest.mark.parametrize("market, antithetic", [
    (DeterministicDeflator(1.0), False), (_MOVING, False), (_MOVING, True),
    (_CORRELATED, False), (_CORRELATED, True),
], ids=["constant", "martingale", "antithetic", "correlated", "correlated-antithetic"])
def test_development_bound_holds_a_block_to_its_budget(monkeypatch, market, antithetic):
    # At a 4 MiB budget the bound admits 65,536 expected developments per
    # block.  Accidents near 0 and instant reports make a book's
    # developments nearly its expected policies x paths x rate x T, so at
    # 97% of the bound a block's developments must add at most the budget
    # to its peak without them, under each deflator; at 103% the book is
    # refused.
    monkeypatch.setattr(mc, "DEVELOPMENT_BUDGET_BYTES", 4 * 2**20)
    limit = mc.DEVELOPMENT_BUDGET_BYTES // mc.BYTES_PER_DEVELOPMENT
    n, paths = 4, 128
    intensity = ConstantIntensity(1000.0)
    if market is _CORRELATED:
        intensity = LogOUIntensity(mean_rev=2.0, long_run_log_level=math.log(1000.0), vol=0.1, init=1000.0)

    def book(rate):
        return _config(n_policies=n, n_paths=paths, intensity=intensity, delay=DelayLaw(alpha0=1.0),
                       development=DevelopmentLaw(rate=rate, mark=MarkLaw(mean=0.5, kind="exponential")),
                       market=market, antithetic=antithetic, grid_step=1.0 / 365)

    with pytest.raises(SchemaError) as err:
        mc.check_oracle_bounds(book(1.03 * limit / (n * paths)))
    assert err.value.field == "development.rate"
    edge = _stage_peaks(monkeypatch, book(0.97 * limit / (n * paths)))
    bare = _stage_peaks(monkeypatch, book(0.0))
    assert max(edge.values()) - max(bare.values()) <= mc.DEVELOPMENT_BUDGET_BYTES, _over(edge, 0)


def test_development_bound_stays_within_the_path_array_bound():
    assert mc.DEVELOPMENT_BUDGET_BYTES // mc.BYTES_PER_DEVELOPMENT <= mc.MAX_PATH_GRID_VALUES


@pytest.mark.parametrize("mark", [
    MarkLaw(mean=1.0, kind="exponential"),
    MarkLaw(mean=2.0, kind="lognormal", sigma_ln=0.6),
    MarkLaw(mean=0.5),
], ids=["exponential", "lognormal", "deterministic"])
def test_pieced_first_marks_match_one_draw_of_every_cell(mark):
    # Three pieces and a part; the claims include both cells at each seam.
    n_cells = 3 * _DRAW_PIECE + 11
    claim = np.random.default_rng(1).random(n_cells) < 0.4
    claim[[_DRAW_PIECE - 1, _DRAW_PIECE, n_cells - 1]] = True
    cells = np.flatnonzero(claim).astype(np.int32)
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    marks = mc._first_marks(_config(first_mark=mark), rng, cells, n_cells)
    assert np.array_equal(marks, np.asarray(mark.sample(ref, size=n_cells)).take(cells))
    assert rng.random() == ref.random()  # the same number of draws


def _per_cell_events(config, rng, tau1):
    """The event list as the oracle once built it from its (paths, policies)
    report times ``tau1``, every cell's first mark and development count
    drawn as one array each: a reference copy of that code."""
    x1 = np.asarray(config.first_mark.sample(rng, size=tau1.shape))
    first = np.flatnonzero((tau1 > config.t) & (tau1 <= config.T))
    parts = [(tau1.take(first), first // config.n_policies, x1.take(first))]
    dev = config.development
    if dev.rate > 0.0:
        counts = rng.poisson(dev.rate * np.clip(config.T - tau1, 0.0, None)).ravel()
        cell = np.repeat(np.arange(counts.size), counts)
        report = tau1.ravel().take(cell)
        times = (config.T - report) * (1.0 - rng.random(len(cell))) + report
        amounts = dev.mark.sample(rng, size=len(cell))
        keep = times > config.t
        parts.append((times[keep], cell[keep] // config.n_policies, amounts[keep]))
    return tuple(np.concatenate(column) for column in zip(*parts))


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("first_mark, development", [
    (MarkLaw(mean=1.0, kind="exponential"), DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="lognormal",
                                                                                  sigma_ln=0.4))),
    (MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.7), DevelopmentLaw(rate=3.0, mark=MarkLaw(mean=0.5))),
    (MarkLaw(mean=1.0), DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=0.5))),
], ids=["exponential", "lognormal", "no-development"])
def test_event_list_matches_the_per_cell_reference(t, first_mark, development):
    # Report times over more than one piece of cells: some never reported
    # (inf), some after T, some at exactly 0, t and T (a claim whose
    # Poisson mean is 0, and draws nothing).
    config = _config(n_policies=64, t=t, T=1.0, conditioning=None if t == 0.0 else 1,
                     first_mark=first_mark, development=development)
    tau1 = np.random.default_rng(3).uniform(0.0, 1.4, size=(1_100, 64))
    tau1.ravel()[::7] = np.inf
    tau1.ravel()[[5, 6, 8, 9]] = (0.0, t, 1.0, 1.0)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    cells, report = mc._reported_claims(config, tau1)
    marks = mc._first_marks(config, rng, cells, tau1.size)
    owners = mc._development_owners(config, rng, report)
    events = mc._event_list(config, rng, [cells, report, marks, owners])
    expected = _per_cell_events(config, ref, tau1)
    assert events[1].dtype == np.int32
    for got, want in zip(events, expected):
        assert np.array_equal(got, want)
    assert len(events[0]) > tau1.size // 4
    assert rng.random() == ref.random()


@pytest.mark.parametrize("correlated", [False, True], ids=["independent", "correlated"])
def test_streamed_accident_times_match_whole_block_inversion(correlated):
    # The log-OU stage against its one-array reference: the accident
    # thresholds, then the block's normals in one draw, the (paths, nodes)
    # hazard of all its paths, then one inversion.  Path counts straddle
    # the hazard part, and about a third of the thresholds lie above their
    # row's Gamma_T and map to inf.
    market = (MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5) if correlated
              else DeterministicDeflator(1.0))
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    config = _config(n_policies=9, intensity=model, market=market)
    grid = config.grid()
    chunk = _hazard_chunk_rows(grid)
    for n_block in (chunk - 1, 1_120):
        rng = np.random.default_rng(n_block)
        e = rng.exponential(size=(n_block, config.n_policies))
        normals = rng.standard_normal((n_block, grid.n_cells))
        gamma = trapezoid_hazard(grid, np.exp(model.log_level_paths(grid, normals)))
        expected = _invert_gamma_rows(gamma, grid.points, e)
        assert 0.1 < np.mean(np.isinf(expected)) < 0.9
        streamed = np.random.default_rng(n_block)
        z_mu, tau0 = _accident_times(config, grid, streamed, n_block, None)
        assert np.array_equal(tau0, expected)
        assert streamed.random() == rng.random()
        if correlated:
            assert np.array_equal(z_mu, normals)
        else:
            assert z_mu is None


def test_event_brownian_has_brownian_covariance():
    times = [1.5, 0.3, 0.7, 0.3001]
    n_rows = 40_000
    w = _sample_brownian(times, n_rows)
    cov = np.cov(w, rowvar=False)
    for a, s in enumerate(times):
        for b, u in enumerate(times):
            exact = min(s, u)
            # Standard error of a sample covariance of a Gaussian pair.
            se = math.sqrt((s * u + exact * exact) / n_rows)
            assert abs(cov[a, b] - exact) <= 5.0 * se, (s, u, cov[a, b])
    assert np.all(np.abs(w.mean(axis=0)) <= 5.0 * np.sqrt(np.asarray(times) / n_rows))


def test_event_brownian_restarts_at_every_row():
    # One event per row: W must be sqrt(s) * z with the row's own normal,
    # drawn in row order, with nothing carried over from earlier rows.
    n_rows = 2000
    rng = np.random.default_rng(9)
    times = rng.uniform(0.1, 2.0, size=n_rows)
    w = _brownian_at_events(times, np.arange(n_rows), np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal(n_rows)
    np.testing.assert_allclose(w, np.sqrt(times) * z, rtol=0.0, atol=1e-12)
    # Two events per row: consecutive rows are uncorrelated.
    w2 = _sample_brownian([0.5, 1.0], 40_000)
    assert abs(np.corrcoef(w2[:-1, 1], w2[1:, 0])[0, 1]) <= 5.0 / math.sqrt(40_000)
    assert abs(np.var(w2[:, 0]) - 0.5) <= 5.0 * 0.5 * math.sqrt(2.0 / 40_000)


def test_event_brownian_antithetic_pairs_mirror():
    n_pairs = 20_000
    rng = np.random.default_rng(2)
    # Both rows of a pair pay at 0.5; each also pays at its own other time.
    own = rng.uniform(0.0, 2.0, size=2 * n_pairs)
    rows = np.concatenate((np.arange(2 * n_pairs), np.arange(2 * n_pairs)))
    times = np.concatenate((np.full(2 * n_pairs, 0.5), own))
    w = _brownian_at_events(times, rows, rng, antithetic=True)
    shared, other = w[: 2 * n_pairs], w[2 * n_pairs :]
    assert np.array_equal(shared[0::2], -shared[1::2])
    # One motion per pair: the odd row's other time sits on the negated
    # path of the even row, so Cov(W_even(0.5), -W_odd(u)) = min(0.5, u).
    u = own[1::2]
    late = u > 0.5
    resid = -other[1::2][late] - shared[0::2][late]
    assert abs(np.mean(resid * shared[0::2][late])) <= 5.0 * 0.5 * math.sqrt(1.0 / late.sum())
    assert abs(np.var(shared[0::2]) - 0.5) <= 5.0 * 0.5 * math.sqrt(2.0 / n_pairs)


def _two_pass_brownian(times, rows, rng, antithetic=False):
    """The event-time Brownian motion ordered by two sorts, time and then a
    stable sort by path: the reference for the one-key sort."""
    m = len(times)
    if m == 0:
        return np.empty(0)
    paths = rows // 2 if antithetic else rows
    order = np.argsort(times)
    order = order[np.argsort(paths[order], kind="stable")]
    s, p = times[order], paths[order]
    first = np.concatenate(([True], p[1:] != p[:-1]))
    ds = np.diff(s, prepend=0.0)
    ds[first] = s[first]
    cum = np.cumsum(np.sqrt(ds) * rng.standard_normal(m))
    starts = np.flatnonzero(first)
    before = np.concatenate(([0.0], cum))[starts]
    w = np.empty(m)
    w[order] = cum - np.repeat(before, np.diff(starts, append=m))
    if antithetic:
        w[rows % 2 == 1] *= -1.0
    return w


def _assert_brownian_matches_two_pass(times, rows):
    for antithetic in (False, True):
        one, two = np.random.default_rng(6), np.random.default_rng(6)
        w = _brownian_at_events(times, rows, one, antithetic=antithetic)
        expected = _two_pass_brownian(times, rows, two, antithetic=antithetic)
        assert w.tobytes() == expected.tobytes()
        assert one.random() == two.random()


_EVENT_TIMES = st.builds(lambda base, ulps: float(base + ulps * np.spacing(base)),
                         st.sampled_from([1e-3, 0.1, 0.5, 1.0, 1.5, 2.0]), st.integers(0, 3))
_EVENT_ROWS = st.one_of(st.sampled_from([0, 1, 2, BLOCK_SIZE - 2, BLOCK_SIZE - 1]),
                        st.integers(0, BLOCK_SIZE - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(events=st.lists(st.tuples(_EVENT_ROWS, _EVENT_TIMES), max_size=40))
def test_one_key_event_order_matches_the_two_pass_sort(events):
    # Repeated times, times an ulp or three apart (which the key
    # path + time / span may tie on a path > 0), rows up to BLOCK_SIZE - 1
    # and the empty list: bit for bit the motion of the two-pass order.
    times = np.array([time for _, time in events], dtype=float)
    rows = np.array([row for row, _ in events], dtype=np.intp)
    _assert_brownian_matches_two_pass(times, rows)


def test_tied_event_keys_take_the_two_pass_sort(monkeypatch):
    # Two times one ulp apart at path 4,095 share one key, and argsort
    # orders equal keys the same way whatever their times; so one of the
    # two feeding orders comes out reversed and must be repaired.
    calls = []
    two_pass = mc._two_pass_order
    monkeypatch.setattr(mc, "_two_pass_order", lambda *args: calls.append(1) or two_pass(*args))
    rows = np.full(2, BLOCK_SIZE - 1)
    for times in ([1.0, np.nextafter(1.0, 2.0)], [np.nextafter(1.0, 2.0), 1.0]):
        _assert_brownian_matches_two_pass(np.array(times), rows)
    assert len(calls) == 2  # once plain, once antithetic
    # The same pair on path 0 keys apart and needs no repair.
    calls.clear()
    _assert_brownian_matches_two_pass(np.array([np.nextafter(1.0, 2.0), 1.0]), np.zeros(2, dtype=np.intp))
    assert not calls


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        _config(n_paths=50)
    with pytest.raises(ConfigurationError):
        _config(t=0.5)  # unconditional valuation away from zero
    with pytest.raises(ConfigurationError):
        _config(t=0.5, T=0.4, conditioning=0)
    with pytest.raises(ConfigurationError):
        _config(antithetic=True)  # deterministic deflator has no noise to mirror
    with pytest.raises(ConfigurationError):
        _config(market=MartingaleDeflator(init=1.0, vol=0.1, corr_with_intensity=0.5))
    # The two paths of an antithetic pair may fall in different reported-count buckets.
    with pytest.raises(SchemaError) as err:
        _config(conditioning=0, antithetic=True, market=MartingaleDeflator(init=1.0, vol=0.2), n_paths=2000)
    assert err.value.field == "mc.antithetic"


def test_conditional_regime_validation():
    stochastic = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    with pytest.raises(ConfigurationError):
        _config(t=0.5, conditioning=1, intensity=stochastic)
    with pytest.raises(ConfigurationError):
        _config(t=0.5, conditioning=5)  # more reported than policies
    # The closed form prices a moving deflator at t > 0; only the oracle,
    # which buckets on the reported count, refuses it.
    moving = _config(t=0.5, conditioning=1, market=MartingaleDeflator(init=1.0, vol=0.2))
    with pytest.raises(SchemaError) as err:
        mc_reserve(moving)
    assert err.value.field == "market.vol"
    curve = _config(t=0.5, conditioning=1, market=DeterministicDeflator(level=lambda u: 1.0 + u))
    with pytest.raises(SchemaError) as err:
        mc_reserve(curve)
    assert err.value.field == "market.level"


def test_oracle_refuses_an_oversized_book_before_allocating(monkeypatch):
    # 1e8 policies x 4,000 paths would take 2.9 TiB per block array.
    def forbidden(*args, **kwargs):
        raise AssertionError("ran the oracle on a book beyond its bounds")
    monkeypatch.setattr(mc, "_run_blocks", forbidden)
    with pytest.raises(SchemaError) as err:
        mc_reserve(_config(n_policies=10**8))
    assert err.value.field == "portfolio.n"


_LOG_OU = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)


@pytest.mark.parametrize("field, overrides", [
    # a block's correlated normals: 200,000 cells x 4,096 paths, 819,200,000 values (6.1 GiB)
    ("grid.step", dict(intensity=_LOG_OU, grid_step=1.0 / 200_000, n_paths=BLOCK_SIZE,
                       market=MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5))),
    ("grid.step", dict(grid_step=1e-300)),  # 1e300 grid cells
    ("seed", dict(seed=-1)),  # numpy's seeding refuses a negative seed
], ids=["log_ou_block", "1e-300", "negative_seed"])
def test_book_bounds_refuse_a_library_config_before_allocating(monkeypatch, field, overrides):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran the oracle on a book beyond its bounds")
    monkeypatch.setattr(mc, "_run_blocks", forbidden)
    with pytest.raises(SchemaError) as err:
        mc_reserve(_config(**overrides))
    assert err.value.field == field


_LAWS = {
    ConstantIntensity: dict(mu=1.0),
    PiecewiseConstantIntensity: dict(breakpoints=(0.5,), rates=(1.0, 2.0)),
    LogOUIntensity: dict(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
    ExponentialDelay: dict(rate=2.0),
    GammaDelay: dict(shape=2.0, rate=2.0),
    DelayLaw: dict(alpha0=0.2, density=ExponentialDelay(2.0)),
    MarkLaw: dict(mean=1.0, kind="lognormal", sigma_ln=0.5),
    DevelopmentLaw: dict(rate=1.0, mark=MarkLaw(mean=0.5)),
    DeterministicDeflator: dict(level=1.0),
    MartingaleDeflator: dict(init=1.0, vol=0.2, corr_with_intensity=0.0),
}

#: (record, attribute, NaN value, out-of-range value) for every bounded field.
_LAW_BOUNDS = [
    (ConstantIntensity, "mu", math.nan, -1.0),
    (PiecewiseConstantIntensity, "breakpoints", (math.nan,), (0.0,)),
    (PiecewiseConstantIntensity, "rates", (1.0, math.nan), (1.0, -1.0)),
    (LogOUIntensity, "mean_rev", math.nan, -1.0),
    (LogOUIntensity, "vol", math.nan, -1.0),
    (LogOUIntensity, "init", math.nan, 0.0),
    (ExponentialDelay, "rate", math.nan, 0.0),
    (GammaDelay, "shape", math.nan, 0.5),
    (GammaDelay, "rate", math.nan, 0.0),
    (DelayLaw, "alpha0", math.nan, 1.5),
    (MarkLaw, "mean", math.nan, 0.0),
    (MarkLaw, "sigma_ln", math.nan, -1.0),
    (DevelopmentLaw, "rate", math.nan, -1.0),
    (DeterministicDeflator, "level", math.nan, 0.0),
    (MartingaleDeflator, "init", math.nan, 0.0),
    (MartingaleDeflator, "vol", math.nan, -1.0),
    (MartingaleDeflator, "corr_with_intensity", math.nan, 1.5),
]


@pytest.mark.parametrize("record, attribute, nan, bad", _LAW_BOUNDS,
                         ids=[f"{r.__name__}.{a}" for r, a, _, _ in _LAW_BOUNDS])
def test_each_law_bound_refuses_nan_naming_its_attribute(record, attribute, nan, bad):
    record(**_LAWS[record])
    for value in (nan, bad):
        with pytest.raises(SchemaError) as err:
            record(**{**_LAWS[record], attribute: value})
        assert err.value.field == attribute


#: (record, attribute, finite value past the record's bound, the bound): a
#: value that overflowed the record's own arithmetic or the oracle's.
_LAW_CEILINGS = [
    (MarkLaw, "sigma_ln", 1e308, MAX_SIGMA_LN),
    (DeterministicDeflator, "level", 1e308, MAX_DEFLATOR_LEVEL),
    (MartingaleDeflator, "init", 1e308, MAX_DEFLATOR_LEVEL),
    (MartingaleDeflator, "vol", 1e155, MAX_DEFLATOR_VOL),
]


@pytest.mark.parametrize("record, attribute, huge, bound", _LAW_CEILINGS,
                         ids=[f"{r.__name__}.{a}" for r, a, _, _ in _LAW_CEILINGS])
def test_each_law_ceiling_refuses_a_huge_finite_value_naming_its_attribute(record, attribute, huge, bound):
    # sigma_ln = 1e308 raised a bare OverflowError from sigma_ln ** 2; the
    # deflator values overflowed the oracle (see test_cli).
    record(**{**_LAWS[record], attribute: bound})
    with pytest.raises(SchemaError) as err:
        record(**{**_LAWS[record], attribute: huge})
    assert err.value.field == attribute


#: (record, attribute, how a number becomes the attribute's value) for
#: every numeric field of a law record.
_LAW_NUMBERS = [
    (ConstantIntensity, "mu", float),
    (PiecewiseConstantIntensity, "breakpoints", lambda v: (v,)),
    (PiecewiseConstantIntensity, "rates", lambda v: (1.0, v)),
    (LogOUIntensity, "mean_rev", float),
    (LogOUIntensity, "long_run_log_level", float),
    (LogOUIntensity, "vol", float),
    (LogOUIntensity, "init", float),
    (ExponentialDelay, "rate", float),
    (GammaDelay, "shape", float),
    (GammaDelay, "rate", float),
    (DelayLaw, "alpha0", float),
    (MarkLaw, "mean", float),
    (MarkLaw, "sigma_ln", float),
    (DevelopmentLaw, "rate", float),
    (DeterministicDeflator, "level", float),
    (MartingaleDeflator, "init", float),
    (MartingaleDeflator, "vol", float),
    (MartingaleDeflator, "corr_with_intensity", float),
]


@pytest.mark.parametrize("record, attribute, value_of", _LAW_NUMBERS,
                         ids=[f"{r.__name__}.{a}" for r, a, _ in _LAW_NUMBERS])
def test_each_law_field_refuses_non_finite_numbers(record, attribute, value_of):
    # An infinite rate or level would price silently, or fail far from its
    # cause in reserve's check that the total is the sum of its components.
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(SchemaError) as err:
            record(**{**_LAWS[record], attribute: value_of(value)})
        assert err.value.field == attribute


def test_conditional_insufficient_data():
    # With a tiny hazard the all-reported bucket is essentially unreachable.
    config = _config(t=0.5, T=1.0, conditioning=4,
                     intensity=ConstantIntensity(0.01), n_paths=2000, seed=3)
    with pytest.raises(InsufficientDataError):
        mc_reserve(config)


def test_conditional_bucket_matches_reported_only_value():
    # All policies reported by t: the bucket mean is the pure development
    # accrual rate * mean * n * (T - t).
    config = _config(
        n_policies=2, t=0.5, T=1.5,
        intensity=ConstantIntensity(30.0),
        delay=DelayLaw(alpha0=1.0),
        development=DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential")),
        n_paths=30_000, conditioning=2, seed=5,
    )
    estimate = mc_reserve(config)
    expected = 2.0 * 0.5 * 2 * 1.0
    assert abs(estimate.mean - expected) <= 3.0 * estimate.std_error


def test_conditional_bucket_none_reported_matches_ratio_formula():
    # Zero delay, no development: each unreported policy is worth
    # E[X1] * (reporting mass in (t, T]) / (surviving mass at t).
    mu, t, T = 1.0, 0.5, 1.5
    config = _config(
        n_policies=2, t=t, T=T,
        intensity=ConstantIntensity(mu),
        delay=DelayLaw(alpha0=1.0),
        first_mark=MarkLaw(mean=2.0),
        development=DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
        n_paths=50_000, conditioning=0, seed=6,
    )
    estimate = mc_reserve(config)
    expected = 2 * 2.0 * (math.exp(-mu * t) - math.exp(-mu * T)) / math.exp(-mu * t)
    assert abs(estimate.mean - expected) <= 3.0 * estimate.std_error


# ---------------------------------------------------------------------------
# Comparison contract
# ---------------------------------------------------------------------------

def _analytic(total, diagnostics=None):
    return ReserveResult(as_of=0.0, horizon=1.0, reported_component=total,
                         unreported_component=0.0, total=total,
                         diagnostics=diagnostics or {})


def _mc(mean, se):
    return McEstimate(mean=mean, std_error=se, n_effective=1000,
                      ci95=(mean - 1.96 * se, mean + 1.96 * se))


def test_compare_passes_small_z():
    report = compare(_analytic(20.0), _mc(20.01, 0.02))
    assert report.z == pytest.approx(-0.5)
    assert report.passed


def test_compare_fails_large_z():
    report = compare(_analytic(20.0), _mc(21.0, 0.1))
    assert report.z == pytest.approx(-10.0)
    assert not report.passed


def test_compare_exact_degenerate_match():
    report = compare(_analytic(0.0), _mc(0.0, 0.0))
    assert report.passed
    assert report.z == 0.0


def test_compare_degenerate_mismatch_hard_fails():
    report = compare(_analytic(1.0), _mc(0.0, 0.0))
    assert not report.passed
    assert math.isinf(report.z)


def test_compare_without_outer_std_error_uses_mc_se_alone():
    # Deterministic regimes report an outer SE of zero.
    report = compare(_analytic(20.0, {"outer_std_error": 0.0}), _mc(20.1, 0.03))
    assert report.z == pytest.approx(-0.1 / 0.03)
    assert not report.passed


def test_compare_includes_outer_std_error():
    report = compare(_analytic(20.0, {"outer_std_error": 0.04}), _mc(20.1, 0.03))
    assert report.z == pytest.approx(-2.0)
    assert report.passed
    assert report.mc_std_error == 0.03
    # A deterministic oracle against a sampled reserve is not a degenerate case.
    report = compare(_analytic(20.0, {"outer_std_error": 0.04}), _mc(20.1, 0.0))
    assert report.z == pytest.approx(-2.5)
    assert report.passed
