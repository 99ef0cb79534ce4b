"""Closed-form pricing: reporting law, backlog probability, reserve."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimflow import (
    GridRangeError,
    ConstantIntensity,
    DegenerateStateError,
    DelayLaw,
    DeterministicDeflator,
    DevelopmentLaw,
    ExponentialDelay,
    GammaDelay,
    LogOUIntensity,
    MarkLaw,
    MartingaleDeflator,
    PiecewiseConstantIntensity,
    PortfolioState,
    TimeGrid,
    UnsupportedRegimeError,
    expected_development,
    ibnr_probability,
    reporting_cdf,
    reporting_curve,
    reporting_density,
    reserve,
    simulate_intensity_path,
    simulate_portfolio,
)
from claimflow.pricing import (
    _bracket_functional,
    _cell_masses,
    _fft_convolve,
    _kernel_arrays,
    _unreported_integrand_weights,
)

EXACT_CDF_1 = 1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0)
EXACT_DENSITY_1 = 2.0 * (math.exp(-1.0) - math.exp(-2.0))


def _unit_path(t_end=2.0):
    return simulate_intensity_path(ConstantIntensity(1.0), TimeGrid.regular(t_end))


def _exp_delay():
    return DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))


# ---------------------------------------------------------------------------
# Expected development
# ---------------------------------------------------------------------------

def test_expected_development_values():
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    assert expected_development(dev, -0.5) == 0.0
    assert expected_development(dev, 3.0) == pytest.approx(3.0)
    none = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    assert expected_development(none, 7.0) == 0.0


# ---------------------------------------------------------------------------
# Reporting probability and density
# ---------------------------------------------------------------------------

def test_reporting_cdf_zero_at_origin():
    assert reporting_cdf(_unit_path(), _exp_delay(), 0.0) == 0.0


def test_reporting_cdf_zero_delay_reduction():
    path = _unit_path()
    life = DelayLaw(alpha0=1.0)
    assert reporting_cdf(path, life, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


def test_reporting_cdf_closed_form():
    value = reporting_cdf(_unit_path(), _exp_delay(), 1.0)
    assert value == pytest.approx(EXACT_CDF_1, abs=1e-6)


def test_reporting_density_zero_delay_reduction():
    path = _unit_path()
    life = DelayLaw(alpha0=1.0)
    assert reporting_density(path, life, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_reporting_density_closed_form():
    value = reporting_density(_unit_path(), _exp_delay(), 1.0)
    assert value == pytest.approx(EXACT_DENSITY_1, abs=2e-6)


def test_density_cumulates_to_cdf():
    path = _unit_path()
    for delay in (_exp_delay(), DelayLaw(alpha0=1.0), DelayLaw(alpha0=0.4, density=ExponentialDelay(3.0))):
        grid = path.grid
        i1 = grid.node_index(1.0)
        dens = np.array([reporting_density(path, delay, float(u)) for u in grid.points[: i1 + 1]])
        cumulative = float(np.trapezoid(dens, dx=grid.step))
        assert cumulative == pytest.approx(reporting_cdf(path, delay, 1.0), abs=1e-6)


def test_curve_matches_pointwise_operations():
    path = _unit_path()
    delay = DelayLaw(alpha0=0.3, density=ExponentialDelay(1.5))
    curve = reporting_curve(path, delay)
    for i in (0, 100, 365, 730):
        t = float(path.grid.points[i])
        assert curve.cdf[i] == pytest.approx(reporting_cdf(path, delay, t), abs=1e-13)
        assert curve.density[i] == pytest.approx(reporting_density(path, delay, t), abs=1e-13)


@pytest.mark.parametrize("kind", ["random", "ones"])
@pytest.mark.parametrize("n", [1, 2, 730, 5841])
def test_fft_convolve_matches_direct_sums(n, kind):
    rng = np.random.default_rng(n)
    a, b = (rng.random(n), rng.random(n)) if kind == "random" else (np.ones(n), np.ones(n))
    direct = np.convolve(a, b)
    assert np.max(np.abs(_fft_convolve(a, b) - direct)) <= 1e-14 * direct.max()
    # correlation, as _bracket_functional uses it: a convolution with b reversed
    direct = np.correlate(np.concatenate([a, np.zeros(n)]), b, mode="valid")[:n]
    via_fft = _fft_convolve(a, b[::-1])[n - 1 : 2 * n - 1]
    assert np.max(np.abs(via_fft - direct)) <= 1e-14 * direct.max()


def test_curve_matches_direct_convolution():
    # a 3-hour grid over two years with a seasonal rate and a gamma delay
    months = np.arange(1, 24) / 12.0
    model = PiecewiseConstantIntensity(breakpoints=tuple(months),
                                       rates=tuple(0.8 + 0.3 * np.sin(np.arange(24))))
    path = simulate_intensity_path(model, TimeGrid.regular(2.0, step=1 / 2920))
    delay = DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.3, rate=3.0))
    curve = reporting_curve(path, delay)
    masses = _cell_masses(path.gamma)
    n = len(masses)
    direct_cdf = np.convolve(masses, _kernel_arrays(delay.cdf, path.grid))[: n]
    direct_pdf = np.convolve(masses, _kernel_arrays(delay.pdf, path.grid))[: n]
    assert curve.cdf[0] == 0.0
    assert np.max(np.abs(curve.cdf[1:] - direct_cdf)) <= 1e-14
    atom = delay.alpha0 * curve.survival * path.mu
    assert np.max(np.abs(curve.density[1:] - atom[1:] - direct_pdf)) <= 1e-14


def test_kernel_arrays_share_node_evaluations():
    grid = TimeGrid.regular(1.0, step=1 / 50)
    law = DelayLaw(alpha0=0.2, density=GammaDelay(shape=2.3, rate=4.0))
    calls = []

    def fn(x):
        calls.append(len(x))
        return law.cdf(x)

    h, j = grid.step, np.arange(1, grid.n_cells + 1)
    three_calls = (law.cdf(j * h) + 4.0 * law.cdf((j - 0.5) * h) + law.cdf((j - 1.0) * h)) / 6.0
    np.testing.assert_array_equal(_kernel_arrays(fn, grid), three_calls)
    assert calls == [grid.n_cells + 1, grid.n_cells]


def test_reporting_law_nonnegative_after_reporting_dies_out():
    # No accidents after 0.5 and a delay of about 8 hours: the exact density
    # over [1, 2] is ~1e-215, below the FFT's rounding, which must not turn
    # it negative and make the unreported component fail its sign check.
    model = PiecewiseConstantIntensity(breakpoints=(0.5,), rates=(10.0, 0.0))
    path = simulate_intensity_path(model, TimeGrid.regular(2.0))
    delay = DelayLaw(alpha0=0.0, density=ExponentialDelay(1000.0))
    curve = reporting_curve(path, delay)
    assert curve.density.min() >= 0.0 and curve.cdf.min() >= 0.0
    fm, dev = MarkLaw(mean=1.0), DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5))
    result = reserve(PortfolioState.from_counts(1.0, 10, 3), path, delay, fm, dev, 2.0)
    assert 0.0 <= result.unreported_component < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    alpha0=st.floats(min_value=0.0, max_value=1.0),
    rate=st.floats(min_value=0.1, max_value=5.0),
    mu=st.floats(min_value=0.1, max_value=3.0),
)
def test_reporting_cdf_bounds_and_monotonicity(alpha0, rate, mu):
    path = simulate_intensity_path(ConstantIntensity(mu), TimeGrid.regular(2.0, step=1 / 64))
    delay = DelayLaw(alpha0=alpha0) if alpha0 == 1.0 else DelayLaw(alpha0=alpha0, density=ExponentialDelay(rate))
    previous = 0.0
    for t in np.linspace(0.0, 2.0, 9):
        p = reporting_cdf(path, delay, float(t))
        assert 0.0 <= p <= 1.0 - path.survival(float(t)) + 1e-12
        assert p >= previous - 1e-12
        previous = p


# ---------------------------------------------------------------------------
# Backlog (incurred-but-unreported) probability
# ---------------------------------------------------------------------------

def test_ibnr_zero_when_reporting_is_instant():
    path = _unit_path()
    life = DelayLaw(alpha0=1.0)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert ibnr_probability(path, life, t) == 0.0


def test_ibnr_closed_form_difference():
    value = ibnr_probability(_unit_path(), _exp_delay(), 1.0)
    assert value == pytest.approx(math.exp(-1.0) - math.exp(-2.0), abs=2e-6)


def test_ibnr_matches_simulated_fraction():
    path = _unit_path()
    delay = DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0))
    n = 30_000
    claims = simulate_portfolio(n, path, delay, MarkLaw(mean=1.0),
                                DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
                                horizon=2.0, seed=404)
    hits = sum(1 for c in claims if c.occurred and c.accident_time <= 1.0 < c.report_time)
    p = ibnr_probability(path, delay, 1.0)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) <= 3.0 * se


# ---------------------------------------------------------------------------
# Reserve
# ---------------------------------------------------------------------------

def _book():
    delay = _exp_delay()
    fm = MarkLaw(mean=1.0, kind="exponential")
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential"))
    return delay, fm, dev


def test_reserve_fully_reported_book():
    path = _unit_path(3.0)
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(1.0, 10, 10)
    result = reserve(state, path, delay, fm, dev, 3.0, market=DeterministicDeflator(1.0))
    assert result.reported_component == pytest.approx(20.0)
    assert result.unreported_component == 0.0
    assert result.total == pytest.approx(20.0)


def test_reserve_empty_book():
    path = _unit_path()
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 0, 0)
    result = reserve(state, path, delay, fm, dev, 2.0)
    assert result.total == 0.0


def test_reserve_life_reduction_closed_form():
    path = _unit_path(1.0)
    life = DelayLaw(alpha0=1.0)
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    state = PortfolioState.from_counts(0.0, 1, 0)
    result = reserve(state, path, life, fm, dev, 1.0, market=DeterministicDeflator(1.0))
    assert result.reported_component == 0.0
    assert result.unreported_component == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_reserve_scales_exactly_with_book_size():
    path = _unit_path(3.0)
    delay, fm, dev = _book()
    small = reserve(PortfolioState.from_counts(1.0, 5, 2), path, delay, fm, dev, 3.0)
    large = reserve(PortfolioState.from_counts(1.0, 10, 4), path, delay, fm, dev, 3.0)
    assert large.reported_component == 2.0 * small.reported_component
    assert large.unreported_component == 2.0 * small.unreported_component


def test_reserve_accepts_deterministic_model_directly():
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 4, 0)
    via_model = reserve(state, ConstantIntensity(1.0), delay, fm, dev, 2.0)
    via_path = reserve(state, _unit_path(2.0), delay, fm, dev, 2.0)
    assert via_model.total == via_path.total


def test_reserve_degenerate_conditioning():
    # A huge hazard makes reporting essentially certain; with unreported
    # policies left the conditional expectation has nothing to stand on.
    path = simulate_intensity_path(ConstantIntensity(50.0), TimeGrid.regular(2.0))
    delay = DelayLaw(alpha0=1.0)
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    state = PortfolioState.from_counts(1.0, 5, 3)
    with pytest.raises(DegenerateStateError):
        reserve(state, path, delay, fm, dev, 2.0)
    # with every policy reported the degenerate branch is never taken
    full = reserve(PortfolioState.from_counts(1.0, 5, 5), path, delay, fm, dev, 2.0)
    assert full.total == 0.0


def test_reserve_rejects_correlated_deflator():
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 4, 0)
    market = MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.4)
    with pytest.raises(UnsupportedRegimeError):
        reserve(state, _unit_path(), delay, fm, dev, 2.0, market=market)


def test_reserve_rejects_time_varying_deterministic_deflator():
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 4, 0)
    market = DeterministicDeflator(lambda t: 1.0 + 0.1 * t)
    with pytest.raises(UnsupportedRegimeError):
        reserve(state, _unit_path(), delay, fm, dev, 2.0, market=market)


def test_reserve_rejects_stochastic_intensity_after_time_zero():
    delay, fm, dev = _book()
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    state = PortfolioState.from_counts(1.0, 4, 1)
    with pytest.raises(UnsupportedRegimeError):
        reserve(state, model, delay, fm, dev, 2.0)


def test_reserve_supports_off_grid_valuation_time():
    # 0.5 is not a node of the daily grid; the partial-cell quadrature must
    # land between the values at the two neighbouring nodes.
    delay, fm, dev = _book()
    path = _unit_path()
    grid = path.grid
    k = int(0.5 / grid.step)
    lo_t, hi_t = float(grid.points[k]), float(grid.points[k + 1])
    values = [
        reserve(PortfolioState.from_counts(u, 4, 1), path, delay, fm, dev, 2.0).total
        for u in (lo_t, 0.5, hi_t)
    ]
    assert min(values[0], values[2]) - 1e-9 <= values[1] <= max(values[0], values[2]) + 1e-9


def test_reserve_reads_node_reporting_cdf_off_the_curve():
    delay, fm, dev = _book()
    path = _unit_path()
    curve = reporting_curve(path, delay)
    t = float(path.grid.points[365])
    p_t = reserve(PortfolioState.from_counts(t, 4, 1), path, delay, fm, dev, 2.0
                  ).diagnostics["reporting_cdf_at_t"]
    assert p_t == curve.cdf[365]
    assert p_t == pytest.approx(reporting_cdf(path, delay, t), abs=1e-15)
    off = t + path.grid.step / 3.0
    p_off = reserve(PortfolioState.from_counts(off, 4, 1), path, delay, fm, dev, 2.0
                    ).diagnostics["reporting_cdf_at_t"]
    assert p_off == reporting_cdf(path, delay, off)


def test_reserve_rejects_out_of_range_times():
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 4, 0)
    with pytest.raises(GridRangeError):
        reserve(state, _unit_path(), delay, fm, dev, 5.0)


def test_stochastic_reserve_reproducible_and_reports_error():
    delay, fm, dev = _book()
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    state = PortfolioState.from_counts(0.0, 4, 0)
    a = reserve(state, model, delay, fm, dev, 2.0, intensity_draws=512, seed=9)
    b = reserve(state, model, delay, fm, dev, 2.0, intensity_draws=512, seed=9)
    assert a.total == b.total
    assert a.diagnostics["outer_std_error"] > 0.0
    assert a.diagnostics["intensity_draws"] == 512


def test_unreported_integral_second_order():
    # Constant rate 1, exponential delay rate 2, unit first mark and unit
    # development slope over [0, 1]: the payout integral is
    #   int_0^1 (2 - u) * 2 (exp(-u) - exp(-2u)) du = (1 + exp(-2)) / 2,
    # by elementary integration.  Halving the step divides the quadrature
    # error by about four.
    exact = 0.5 * (1.0 + math.exp(-2.0))
    delay = _exp_delay()
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    state = PortfolioState.from_counts(0.0, 1, 0)
    errs = []
    for divisor in (1, 2):
        grid = TimeGrid.regular(1.0, step=1.0 / (365 * divisor))
        path = simulate_intensity_path(ConstantIntensity(1.0), grid)
        result = reserve(state, path, delay, fm, dev, 1.0)
        errs.append(abs(result.unreported_component - exact))
    assert errs[0] <= 1e-5
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_reserve_error_estimate_tracks_true_error():
    # Same configuration as the order test: the Richardson diagnostic should
    # match the actual quadrature error closely.
    exact = 0.5 * (1.0 + math.exp(-2.0))
    delay = _exp_delay()
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    state = PortfolioState.from_counts(0.0, 1, 0)
    result = reserve(state, _unit_path(1.0), delay, fm, dev, 1.0)
    true_err = abs(result.unreported_component - exact)
    estimate = result.diagnostics["unreported_error_estimate"]
    assert 0.5 * true_err <= estimate <= 2.0 * true_err


def test_bracket_functional_matches_direct_quadrature():
    # The fast path-functional used for the stochastic-intensity average
    # must reproduce the direct trapezoid of c_i * density_i exactly.
    grid = TimeGrid.regular(2.0, step=1 / 73)
    model = PiecewiseConstantIntensity(breakpoints=(0.7,), rates=(0.6, 1.8))
    path = simulate_intensity_path(model, grid)
    delay = DelayLaw(alpha0=0.35, density=ExponentialDelay(1.7))
    fm = MarkLaw(mean=1.3)
    dev = DevelopmentLaw(rate=0.9, mark=MarkLaw(mean=0.4))
    curve = reporting_curve(path, delay)
    c = _unreported_integrand_weights(grid, 0, grid.n_cells, fm, dev)
    direct = float(np.dot(c, curve.density))
    q, atom_w = _bracket_functional(c, delay, grid)
    masses = np.exp(-path.gamma[:-1]) - np.exp(-path.gamma[1:])
    fast = float(masses @ q) + delay.alpha0 * float((np.exp(-path.gamma) * path.mu) @ atom_w)
    assert fast == pytest.approx(direct, rel=1e-12)
