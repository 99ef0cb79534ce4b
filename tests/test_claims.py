"""Portfolio simulation: sampling laws, records, observable state."""
import math

import numpy as np
import pytest
from scipy import stats

from claimflow import (
    ClaimRecord,
    ConfigurationError,
    ConstantIntensity,
    DelayLaw,
    DevelopmentLaw,
    ExponentialDelay,
    GammaDelay,
    IntensityPath,
    MarkLaw,
    PiecewiseConstantIntensity,
    PortfolioState,
    TimeGrid,
    invert_hazard,
    observed_state,
    sample_accident_time,
    sample_delay,
    sample_development,
    simulate_intensity_path,
    simulate_portfolio,
)
from claimflow.claims import (
    STREAM_ACCIDENT,
    STREAM_DELAY,
    STREAM_DEVELOPMENT,
    STREAM_FIRST_MARK,
    _crossing_times,
    _invert_gamma_rows,
    _lower_bound,
)
from claimflow._rng import substream


def _unit_path(t_end=2.0):
    return simulate_intensity_path(ConstantIntensity(1.0), TimeGrid.regular(t_end))


# ---------------------------------------------------------------------------
# Accident times
# ---------------------------------------------------------------------------

def test_invert_hazard_identity_for_unit_rate():
    path = _unit_path()
    assert invert_hazard(path, math.log(2.0)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert invert_hazard(path, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_invert_hazard_never_reaches_threshold():
    path = _unit_path()  # total hazard 2.0
    assert invert_hazard(path, 5.0) == math.inf


def test_hazard_must_start_at_zero():
    # Anchored anywhere else, a threshold below gamma[0] would invert to a
    # time before the grid: -0.4 for threshold 0.1 on this path.
    grid = TimeGrid.regular(1.0, step=0.25)
    with pytest.raises(ConfigurationError, match="hazard must start at 0"):
        IntensityPath(grid=grid, mu=np.ones(5), gamma=0.5 + grid.points)


@pytest.mark.parametrize("n_nodes", [2, 37, 731])
def test_invert_gamma_rows_shared_hazard_matches_scalar_inverter(n_nodes):
    # One hazard shared by every threshold: the record simulator's case.
    rng = np.random.default_rng(12)
    grid = TimeGrid.regular(2.0, step=2.0 / (n_nodes - 1))
    increments = rng.exponential(0.1, size=n_nodes - 1)
    increments[rng.random(n_nodes - 1) < 0.2] = 0.0  # flat stretches
    increments[0] = 0.0                               # flat from the start
    gamma = np.zeros(n_nodes)
    np.cumsum(increments, out=gamma[1:])
    path = IntensityPath(grid=grid, mu=np.zeros(n_nodes), gamma=gamma)
    e = rng.uniform(0.0, 1.3 * gamma[-1], size=200)
    e[:4] = (gamma[-1] * 1.01 + 1e-9, gamma[-1], gamma[n_nodes // 2], 0.0)
    out = _invert_gamma_rows(gamma, grid.points, e)
    expected = np.array([invert_hazard(path, float(x)) for x in e])
    assert np.isinf(out[0])
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("n_nodes", [2, 37, 731])
def test_shared_hazard_search_matches_searchsorted(n_nodes):
    # The one-hazard branch searches with the same branchless lower bound
    # as the per-row branch; indices and times equal searchsorted's, for
    # thresholds at 0, exactly at node values (flat stretches included)
    # and beyond the last node, in any threshold shape.
    rng = np.random.default_rng(7)
    grid = TimeGrid.regular(2.0, step=2.0 / (n_nodes - 1))
    increments = rng.exponential(0.1, size=n_nodes - 1)
    increments[rng.random(n_nodes - 1) < 0.2] = 0.0
    gamma = np.zeros(n_nodes)
    np.cumsum(increments, out=gamma[1:])
    e = np.concatenate([[0.0, 0.0], gamma, rng.uniform(0.0, 1.3 * gamma[-1], size=500),
                        [gamma[-1] * 1.01 + 1e-9, np.nextafter(gamma[-1], np.inf)]])
    idx = np.zeros(len(e), dtype=np.intp)
    _lower_bound(gamma, e, idx, n_nodes)
    expected = gamma.searchsorted(e)  # side="left"
    assert np.array_equal(idx, expected)
    times = _crossing_times(gamma, grid.points, e, expected, expected)
    assert np.array_equal(_invert_gamma_rows(gamma, grid.points, e), times)
    order = rng.permutation(len(e))[: 4 * (len(e) // 4)]
    blocks = _invert_gamma_rows(gamma, grid.points, e[order].reshape(4, -1))
    assert np.array_equal(blocks, times[order].reshape(4, -1))


def test_accident_times_follow_exponential_law():
    # Kolmogorov-Smirnov against the exact law 1 - exp(-t) for unit rate.
    path = simulate_intensity_path(ConstantIntensity(1.0), TimeGrid.regular(30.0))
    rng = np.random.default_rng(5)
    n = 100_000
    draws = np.array([sample_accident_time(path, rng) for _ in range(n)])
    assert np.all(np.isfinite(draws))
    result = stats.kstest(draws, lambda t: 1.0 - np.exp(-t))
    assert result.statistic < 1.36 / math.sqrt(n)


# ---------------------------------------------------------------------------
# Delay law
# ---------------------------------------------------------------------------

def test_delay_all_mass_at_zero():
    law = DelayLaw(alpha0=1.0)
    assert all(sample_delay(law, seed) == 0.0 for seed in range(50))
    assert law.cdf(0.0) == 1.0
    assert law.cdf(-0.5) == 0.0


def test_delay_exponential_mean():
    law = DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))
    rng = np.random.default_rng(11)
    n = 100_000
    draws = law.sample_many(rng, n)
    assert abs(draws.mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(n)


def test_delay_atom_fraction():
    law = DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0))
    rng = np.random.default_rng(13)
    n = 100_000
    draws = law.sample_many(rng, n)
    frac = float(np.mean(draws == 0.0))
    assert abs(frac - 0.3) <= 0.0045


@pytest.mark.parametrize("alpha0", [0.0, 0.3, 1.0])
def test_delay_sample_many_draw_layout(alpha0):
    # Nothing at alpha0 = 1, magnitudes only at 0, otherwise all uniforms
    # and then all magnitudes; the oracle's blocks rely on this layout.
    density = None if alpha0 == 1.0 else GammaDelay(2.0, 3.0)
    law = DelayLaw(alpha0=alpha0, density=density)
    shape = (7, 5)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = law.sample_many(rng, shape)
    if alpha0 == 1.0:
        expected = np.zeros(shape)
    elif alpha0 == 0.0:
        expected = density.sample(ref, size=shape)
    else:
        zero = ref.random(shape) < alpha0
        expected = np.where(zero, 0.0, density.sample(ref, size=shape))
    assert draws.shape == shape
    assert np.array_equal(draws, expected)
    assert rng.random() == ref.random()  # the same number of draws


def test_delay_law_validation():
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=1.2, density=None)
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=1.0, density=ExponentialDelay(1.0))
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=0.5, density=None)
    with pytest.raises(ConfigurationError):
        GammaDelay(shape=0.5, rate=1.0)


def test_delay_cdf_is_proper():
    law = DelayLaw(alpha0=0.25, density=GammaDelay(shape=2.0, rate=3.0))
    xs = np.linspace(0.0, 20.0, 200)
    values = law.cdf(xs)
    assert values[0] == pytest.approx(0.25)
    assert np.all(np.diff(values) >= -1e-15)
    assert values[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("shape", [1.0, 2.3, 3.0])
def test_gamma_delay_matches_scipy_stats_bit_for_bit(shape):
    law = GammaDelay(shape=shape, rate=2.7)
    ref = stats.gamma(a=shape, scale=1.0 / 2.7)
    x = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(1e-6, 12.0, 4001), [40.0, 400.0]])
    np.testing.assert_array_equal(law.cdf(x), ref.cdf(x))
    np.testing.assert_array_equal(law.pdf(x), ref.pdf(x))
    negative = np.array([-1e-300, -0.5, -7.0])
    np.testing.assert_array_equal(law.cdf(negative), 0.0)
    np.testing.assert_array_equal(law.pdf(negative), 0.0)
    assert law.pdf(0.0) == ref.pdf(0.0)  # 2.7 at shape 1, else 0


# ---------------------------------------------------------------------------
# Development process
# ---------------------------------------------------------------------------

def test_development_zero_rate_is_empty():
    law = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    assert sample_development(law, 3.0, seed=1) == ()


def test_development_event_count_mean():
    law = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    rng = np.random.default_rng(17)
    n = 100_000
    counts = [len(sample_development(law, 3.0, rng)) for _ in range(n)]
    mean = float(np.mean(counts))
    assert abs(mean - 6.0) <= 3.0 * math.sqrt(6.0) / math.sqrt(n)


def test_development_total_mark_mean():
    # Expected cumulative payment over the horizon is rate * mean * horizon.
    law = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential"))
    rng = np.random.default_rng(19)
    n = 50_000
    totals = np.array([sum(x for _, x in sample_development(law, 3.0, rng)) for _ in range(n)])
    se = totals.std(ddof=1) / math.sqrt(n)
    assert abs(totals.mean() - 3.0) <= 3.0 * se


def test_development_offsets_strictly_increasing_within_horizon():
    law = DevelopmentLaw(rate=5.0, mark=MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.4))
    rng = np.random.default_rng(23)
    for _ in range(200):
        events = sample_development(law, 2.0, rng)
        offsets = [o for o, _ in events]
        assert all(0.0 < o <= 2.0 for o in offsets)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert all(x >= 0.0 for _, x in events)


# ---------------------------------------------------------------------------
# Portfolio simulation
# ---------------------------------------------------------------------------

def _laws():
    delay = DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0))
    fm = MarkLaw(mean=1.5, kind="exponential")
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential"))
    return delay, fm, dev


def test_portfolio_deterministic_given_seed():
    path = _unit_path()
    delay, fm, dev = _laws()
    a = simulate_portfolio(3, path, delay, fm, dev, horizon=2.0, seed=42)
    b = simulate_portfolio(3, path, delay, fm, dev, horizon=2.0, seed=42)
    assert a == b
    c = simulate_portfolio(3, path, delay, fm, dev, horizon=2.0, seed=43)
    assert a != c


def test_portfolio_record_invariants():
    path = _unit_path()
    delay, fm, dev = _laws()
    claims = simulate_portfolio(200, path, delay, fm, dev, horizon=2.0, seed=3)
    assert len(claims) == 200
    for claim in claims:
        if not claim.occurred:
            assert claim.delay is None and claim.first_mark is None
            assert claim.developments == ()
            continue
        assert claim.report_time == claim.accident_time + claim.delay
        assert claim.first_mark >= 0.0
        times = [when for when, _ in claim.payment_events()]
        assert all(b > a for a, b in zip(times, times[1:]))
        # reported after the horizon means no development window at all
        if claim.report_time > 2.0:
            assert claim.developments == ()


def test_substream_isolation_of_delays():
    # Drawing the policy's delay from its dedicated substream reproduces the
    # accident times bit for bit no matter how the delay law behaves.
    path = _unit_path()
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    heavy = DelayLaw(alpha0=0.0, density=GammaDelay(shape=3.0, rate=0.5))
    light = DelayLaw(alpha0=0.9, density=ExponentialDelay(4.0))
    a = simulate_portfolio(50, path, heavy, fm, dev, horizon=2.0, seed=9)
    b = simulate_portfolio(50, path, light, fm, dev, horizon=2.0, seed=9)
    for x, y in zip(a, b):
        assert x.accident_time == y.accident_time


def test_accident_substream_matches_direct_sampler():
    path = _unit_path()
    delay, fm, dev = _laws()
    claims = simulate_portfolio(5, path, delay, fm, dev, horizon=2.0, seed=77)
    for i, claim in enumerate(claims):
        direct = sample_accident_time(path, substream(77, STREAM_ACCIDENT, i))
        assert claim.accident_time == direct or (math.isinf(claim.accident_time) and math.isinf(direct))


def _reference_portfolio(n, intensity, delay, first_mark, dev, horizon, seed):
    """Policy by policy, one fresh keyed generator per (purpose, policy): the
    draw layout that simulate_portfolio reproduces bit for bit."""
    records = []
    for i in range(n):
        accident = sample_accident_time(intensity, substream(seed, STREAM_ACCIDENT, i))
        if math.isinf(accident):
            records.append(ClaimRecord(accident_time=math.inf))
            continue
        theta = 0.0 if delay.alpha0 == 1.0 else delay.sample(substream(seed, STREAM_DELAY, i))
        report = accident + theta
        mark = (first_mark.mean if first_mark.kind == "deterministic"
                else float(first_mark.sample(substream(seed, STREAM_FIRST_MARK, i))))
        devs = ()
        if dev.rate > 0.0 and report < horizon:
            devs = sample_development(dev, horizon - report, substream(seed, STREAM_DEVELOPMENT, i))
        records.append(ClaimRecord(accident_time=accident, delay=theta, report_time=report,
                                   first_mark=mark, developments=devs))
    return records


@pytest.mark.parametrize("delay", [
    DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0)),
    DelayLaw(alpha0=0.0, density=GammaDelay(shape=2.3, rate=3.0)),
    DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0)),
    DelayLaw(alpha0=0.3, density=GammaDelay(shape=2.3, rate=3.0)),
    DelayLaw(alpha0=1.0),
], ids=["a0-exp", "a0-gamma", "a03-exp", "a03-gamma", "a1"])
@pytest.mark.parametrize("first_mark", [
    MarkLaw(mean=1.0),
    MarkLaw(mean=1.5, kind="exponential"),
    MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.8),
], ids=["deterministic", "exponential", "lognormal"])
@pytest.mark.parametrize("dev_rate", [0.0, 1.5])
def test_portfolio_matches_per_policy_reference(delay, first_mark, dev_rate):
    # A zero-rate stretch gives the hazard a flat piece; at rate 1.2 over 2
    # years some policies have no accident at all.
    grid = TimeGrid.regular(2.0)
    path = simulate_intensity_path(
        PiecewiseConstantIntensity(breakpoints=(0.5, 1.0), rates=(0.6, 0.0, 1.2)), grid)
    dev = DevelopmentLaw(rate=dev_rate, mark=MarkLaw(mean=0.5, kind="exponential"))
    for n in (1, 2, 200):
        for seed, horizon in ((17, 2.0), (np.random.SeedSequence(777, spawn_key=(n,)), 1.5)):
            got = simulate_portfolio(n, path, delay, first_mark, dev, horizon, seed)
            assert got == _reference_portfolio(n, path, delay, first_mark, dev, horizon, seed)


def test_claim_record_validation():
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=math.inf, delay=0.1)
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=1.0, delay=0.5, report_time=1.4, first_mark=1.0)
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
                    developments=((0.3, 1.0), (0.3, 2.0)))


# ---------------------------------------------------------------------------
# Observable state
# ---------------------------------------------------------------------------

def _sample_claim():
    return ClaimRecord(accident_time=0.6, delay=0.4, report_time=1.0, first_mark=2.0,
                       developments=((0.5, 1.0), (1.5, 0.25)))


def test_observed_state_hides_unreported():
    late = ClaimRecord(accident_time=2.0, delay=0.5, report_time=2.5, first_mark=1.0)
    state = observed_state([late], 2.0)
    assert state.reported_count == 0
    assert state.visible == ()


def test_observed_state_truncates_developments():
    state = observed_state([_sample_claim()], 2.0)
    assert state.reported_count == 1
    seen = state.visible[0]
    assert seen.report_time == 1.0
    assert seen.developments == ((0.5, 1.0),)  # the offset-1.5 event is at 2.5


def test_observed_state_counts_everyone_when_all_reported():
    claims = [_sample_claim() for _ in range(4)]
    state = observed_state(claims, 5.0)
    assert state.reported_count == 4
    assert state.n_policies == 4


def test_observed_state_monotone_in_time():
    path = _unit_path()
    delay, fm, dev = _laws()
    claims = simulate_portfolio(100, path, delay, fm, dev, horizon=2.0, seed=31)

    def event_set(state):
        out = set()
        for v in state.visible:
            out.add((v.report_time, v.first_mark))
            out.update((v.report_time + o, x) for o, x in v.developments)
        return out

    previous = set()
    for t in np.linspace(0.25, 2.0, 8):
        current = event_set(observed_state(claims, float(t)))
        assert previous <= current
        previous = current


def test_state_from_counts_bounds():
    state = PortfolioState.from_counts(1.0, 10, 4)
    assert state.reported_count == 4
    assert state.visible == ()
    with pytest.raises(ConfigurationError):
        PortfolioState.from_counts(1.0, 10, -1)
    with pytest.raises(ConfigurationError):
        PortfolioState.from_counts(1.0, 10, 11)


def test_state_count_must_match_visible_claims():
    visible = observed_state([_sample_claim()], 2.0).visible
    assert PortfolioState(as_of=2.0, n_policies=3, visible=visible).reported_count == 1
    assert PortfolioState(as_of=2.0, n_policies=3, visible=visible, reported_count=1).visible == visible
    with pytest.raises(ConfigurationError):
        PortfolioState(as_of=2.0, n_policies=3, visible=visible, reported_count=2)
    with pytest.raises(ConfigurationError):
        PortfolioState(as_of=2.0, n_policies=0, visible=visible)
