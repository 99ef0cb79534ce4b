"""Monte Carlo oracle: estimates, buckets, comparison contract."""
import math
import tracemalloc

import numpy as np
import pytest

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
    PortfolioState,
    ReserveResult,
    compare,
    mc_conditional_reserve,
    mc_reserve,
    TimeGrid,
    invert_hazard,
    reserve,
)
from claimflow.claims import _BISECT_CHUNK, _invert_gamma_rows
from claimflow.market import constant_level
from claimflow.mc import BLOCK_SIZE, _block_paths, _brownian_at_events


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
    estimate = mc_reserve(_config(n_policies=0))
    assert estimate.mean == 0.0
    assert estimate.std_error == 0.0


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
    # Event-time deflator, plain and antithetic, and the on-grid deflator
    # that shares noise with a log-OU intensity; each spans several blocks.
    stochastic = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    configs = [
        _config(n_paths=10_000, market=MartingaleDeflator(init=1.0, vol=0.2)),
        _config(n_paths=10_000, market=MartingaleDeflator(init=1.0, vol=0.2), antithetic=True),
        _config(n_paths=BLOCK_SIZE + 1000, intensity=stochastic,
                market=MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5)),
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
        mc_conditional_reserve(_config(t=0.5, conditioning=1), threads=threads)


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
    }


@pytest.mark.parametrize("name, mean, std_error", [
    ("log_ou_n64", "0x1.35bad63f18387p+5", "0x1.013627eab9ca5p-3"),
    ("constant_level", "0x1.d58d477b0da6dp+1", "0x1.27b2ef2ac6f74p-5"),
    ("flat_martingale", "0x1.5b2225995eff0p+2", "0x1.1b6473a4817f7p-4"),
    ("conditional", "0x1.ef2609c2b4066p-1", "0x1.14bbf3a6cb236p-5"),
])
def test_oracle_numbers_are_pinned(name, mean, std_error):
    # The draw layout and the arithmetic of a block, bit for bit: a log-OU
    # book over two blocks (per-row hazard inversion), a constant
    # deterministic and a zero-volatility martingale deflator, the three
    # delay layouts (alpha0 in (0, 1), 0 and 1) and a conditional run.
    # Thread invariance cannot see a change in these numbers; this can.
    config = _pinned_configs()[name]
    run = mc_reserve if config.conditioning is None else mc_conditional_reserve
    estimate = run(config)
    assert (estimate.mean.hex(), estimate.std_error.hex()) == (mean, std_error)


# ---------------------------------------------------------------------------
# Block kernels: hazard inversion and the event-time Brownian motion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_nodes, n_policies, n_rows", [
    (2, 9, 40), (37, 9, 40), (64, 9, 40), (366, 64, 40),
    (65, 9, 40), (731, 9, 40), (366, 1, 40), (65, 1, 40), (366, 64, 400),
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


def test_log_ou_block_peak_memory():
    # One 4,096-path block of the stochastic_validate book at n = 64.  The
    # time-major builder keeps at most two block-sized arrays beside the
    # hazard; a path-major build with whole-block rate and increments
    # arrays peaked at about 5x one (4,096 x 366) float64 array.
    config = _config(
        n_policies=64, intensity=LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
        development=DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential")),
        n_paths=BLOCK_SIZE, seed=3)
    grid = config.grid()
    tracemalloc.start()
    try:
        _block_paths(config, grid, 0, None, constant_level(config.market))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * BLOCK_SIZE * len(grid.points) * 8


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


def test_conditional_regime_validation():
    stochastic = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    with pytest.raises(ConfigurationError):
        _config(t=0.5, conditioning=1, intensity=stochastic)
    with pytest.raises(ConfigurationError):
        _config(t=0.5, conditioning=1, market=MartingaleDeflator(init=1.0, vol=0.2))
    with pytest.raises(ConfigurationError):
        _config(t=0.5, conditioning=5)  # more reported than policies


def test_conditional_insufficient_data():
    # With a tiny hazard the all-reported bucket is essentially unreachable.
    config = _config(t=0.5, T=1.0, conditioning=4,
                     intensity=ConstantIntensity(0.01), n_paths=2000, seed=3)
    with pytest.raises(InsufficientDataError):
        mc_conditional_reserve(config)


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
    estimate = mc_conditional_reserve(config)
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
    estimate = mc_conditional_reserve(config)
    expected = 2 * 2.0 * (math.exp(-mu * t) - math.exp(-mu * T)) / math.exp(-mu * t)
    assert abs(estimate.mean - expected) <= 3.0 * estimate.std_error


def test_mc_reserve_rejects_conditioned_config():
    config = _config(t=0.5, conditioning=1)
    with pytest.raises(ConfigurationError):
        mc_reserve(config)
    with pytest.raises(ConfigurationError):
        mc_conditional_reserve(_config())


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
