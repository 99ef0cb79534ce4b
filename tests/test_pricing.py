"""Closed-form pricing: reporting law, backlog probability, reserve."""
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimflow import (
    ConfigurationError,
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
    SchemaError,
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
from claimflow import intensity, pricing
from claimflow.cli import parse_config
from claimflow.intensity import IntensityPath, draw_hazard_chunks, trapezoid_hazard
from claimflow.pricing import (
    _bracket_functional,
    _brackets,
    _cell_masses,
    _fft_convolve,
    _kernel_arrays,
    _unreported_integrand_weights,
)
from claimflow._rng import substream

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
    masses = _cell_masses(np.exp(-path.gamma))
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


def _three_call_stieltjes(path, t, factor):
    """_stieltjes as it was written with separate factor calls for the node
    ends, the midpoints and each point of the partial cell."""
    points = path.grid.points
    k, frac = path.grid.locate(t)
    if frac == 1.0:
        k, frac = k + 1, 0.0
    masses = _cell_masses(np.exp(-path.gamma[: k + 1]))
    nodes = points[: k + 1]
    ends = factor(nodes)
    weights = (ends[:-1] + 4.0 * factor(0.5 * (nodes[:-1] + nodes[1:])) + ends[1:]) / 6.0
    total = float(np.dot(weights, masses))
    if frac > 0.0:
        mass = math.exp(-path.gamma[k]) - math.exp(-path.hazard(t))
        s_lo = points[k]
        w = (factor(s_lo) + 4.0 * factor(0.5 * (s_lo + t)) + factor(np.asarray(t))) / 6.0
        total += float(w) * mass
    return total


def test_stieltjes_shares_node_evaluations():
    # p(t) a third of a step past node 182 covers 182 whole cells and a
    # partial one: the factor runs once, on the 183 nodes, the 182
    # midpoints, the partial cell's midpoint and t, and the sum equals what
    # separate calls for each of those give.
    path = _unit_path()
    delay = DelayLaw(alpha0=0.2, density=GammaDelay(shape=2.3, rate=4.0))
    t = float(path.grid.points[182]) + path.grid.step / 3.0
    calls = []

    def factor(s):
        calls.append(np.size(s))
        return delay.cdf(t - s)

    k = 182
    expected = _three_call_stieltjes(path, t, factor)
    calls.clear()
    value = pricing._stieltjes(path, t, factor)
    assert calls == [(k + 1) + k + 2]
    assert value == expected


@pytest.mark.parametrize("delay", [
    DelayLaw(alpha0=0.2, density=GammaDelay(shape=2.3, rate=4.0)),
    DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0)),
    DelayLaw(alpha0=1.0),
], ids=["gamma", "exponential", "zero-delay"])
def test_pointwise_reporting_law_matches_three_call_stieltjes(delay):
    # One factor call gives the bits of separate calls: on nodes, one ulp
    # below a node (where the last cell's right end lies past t) and off
    # the nodes.  Off the nodes that sum is reporting_cdf's value.
    path = simulate_intensity_path(_SEASONAL, TimeGrid.regular(2.0, step=1.0 / 730.0))
    points = path.grid.points
    dates = [0.0, 2.0, 0.5, 1.0 / 3.0]
    for i in (1, 17, 365, 1000, 1460):
        node = float(points[i])
        dates += [node, float(np.nextafter(node, 0.0)), node - path.grid.step / 3.0]
    for t in dates:
        cdf = _three_call_stieltjes(path, t, lambda s: delay.cdf(t - s))
        assert pricing._stieltjes(path, t, lambda s: delay.cdf(t - s)) == cdf
        if not np.any(points == t):
            assert reporting_cdf(path, delay, t) == cdf
        if delay.density is not None:
            atom = delay.alpha0 * path.survival(t) * path.rate(t)
            density = atom + _three_call_stieltjes(path, t, lambda u: delay.pdf(t - u))
            assert reporting_density(path, delay, t) == density


def test_on_node_reporting_cdf_is_the_stieltjes_rule_as_one_dot():
    # Every node of a 3-hour grid: _stieltjes sums the same whole cells,
    # including where t_i / step rounds below i, and the two differ only
    # where t_i - s_k and (i - k) h round differently.
    grid = TimeGrid.regular(0.5, step=1.0 / (365.0 * 8.0))
    path = simulate_intensity_path(_SEASONAL, grid)
    delay = DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.3, rate=3.5))
    assert reporting_cdf(path, delay, 0.0) == 0.0
    for t in grid.points[1:]:
        t = float(t)
        pointwise = pricing._stieltjes(path, t, lambda s: delay.cdf(t - s))
        assert grid.locate(t)[1] in (0.0, 1.0)
        assert abs(reporting_cdf(path, delay, t) - pointwise) <= 1e-15 * pointwise
    # One ulp off a node runs _stieltjes itself.
    for i in (1, 56, 175 * 8, grid.n_cells):
        for t in (float(np.nextafter(grid.points[i], 0.0)), float(np.nextafter(grid.points[i], 1.0))):
            if t <= grid.t_end:
                assert reporting_cdf(path, delay, t) == pricing._stieltjes(
                    path, t, lambda s: delay.cdf(t - s))


def test_warm_on_node_valuations_call_no_delay_cdf(monkeypatch):
    # One memo fill per path and delay law (the kernel's node and midpoint
    # evaluations); warm on-node p(t), reserve and reporting_curve then call
    # the delay cdf no more.
    calls = []
    cdf = DelayLaw.cdf
    monkeypatch.setattr(DelayLaw, "cdf", lambda self, x: calls.append(np.size(x)) or cdf(self, x))
    grid = TimeGrid.regular(2.0, step=1.0 / (365.0 * 8.0))
    path = simulate_intensity_path(_SEASONAL, grid)
    _, fm, dev = _book()
    n = grid.n_cells
    reporting_cdf(path, _GAMMA_DELAY, float(grid.points[56]))
    assert calls == [n + 1, n]
    for week in range(1, 53):
        t = float(grid.points[56 * week])
        reporting_cdf(path, _GAMMA_DELAY, t)
        reserve(PortfolioState.from_counts(t, 40, 3), path, _GAMMA_DELAY, fm, dev, 2.0)
    reporting_curve(path, _GAMMA_DELAY)
    # An equal law built anew reads the same entry; another law fills its own.
    reporting_cdf(path, DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.0, rate=3.0)), 1.0)
    assert calls == [n + 1, n]
    reporting_cdf(path, _exp_delay(), 1.0)
    assert calls == [n + 1, n, n + 1, n]


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


@pytest.mark.parametrize("t, T, tol", [(1.0012, 1.0015, 1e-9), (0.0, 1.0015, 1e-6)],
                         ids=["one-cell", "off-node-T"])
def test_payout_integral_end_cells_closed_form(t, T, tol):
    # One unreported zero-delay policy with a unit mark under rate 1 pays in
    # (t, T] with probability 1 - e^(-(T - t)); the window either lies in one
    # cell or ends inside a cell.
    life = DelayLaw(alpha0=1.0)
    dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    result = reserve(PortfolioState.from_counts(t, 1, 0), _unit_path(), life, MarkLaw(mean=1.0), dev, T)
    assert abs(result.total - (1.0 - math.exp(-(T - t)))) <= tol


def test_reserve_reads_reporting_cdf_pointwise_at_every_t():
    # p(t) has one source, on a node, an ulp below one and between nodes;
    # on a node it agrees with the whole-grid curve up to rounding.
    delay, fm, dev = _book()
    path = _unit_path()
    points = path.grid.points
    node = float(points[365])
    p = {}
    for t in (node, float(np.nextafter(points[365], 0)), node + path.grid.step / 3.0):
        p[t] = reserve(PortfolioState.from_counts(t, 4, 1), path, delay, fm, dev, 2.0
                       ).diagnostics["reporting_cdf_at_t"]
        assert p[t] == reporting_cdf(path, delay, t)
    assert p[node] == pytest.approx(reporting_curve(path, delay).cdf[365], abs=1e-15)


_SEASONAL = PiecewiseConstantIntensity(breakpoints=(0.25, 0.5, 1.0), rates=(0.6, 1.4, 0.9, 1.1))
_GAMMA_DELAY = DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.0, rate=3.0))


def _ladder_values(path, delay, t):
    _, fm, dev = _book()
    # No claim is reported yet at t = 0.
    res = reserve(PortfolioState.from_counts(t, 40, 3 if t > 0.0 else 0), path, delay, fm, dev, 2.0)
    return res.total.hex(), res.diagnostics["unreported_error_estimate"].hex()


def test_memoized_reserve_matches_fresh_paths():
    # Re-valuing on one path reads the memoized density, its tail sums and
    # the path on its even nodes; at ten dates every value must equal the
    # one from a fresh path, bit for bit.
    delay = _GAMMA_DELAY
    grid = TimeGrid.regular(2.0, step=1.0 / 730.0)
    path = simulate_intensity_path(_SEASONAL, grid)
    node = float(grid.points[400])
    for t in (node, node + grid.step / 3.0, float(np.nextafter(node, 0.0)), 0.5, 0.0,
              7.0 / 365.0, 1.0, 1.5 - grid.step / 4.0, 1.99, 2.0):
        fresh = simulate_intensity_path(_SEASONAL, grid)
        assert _ladder_values(path, delay, t) == _ladder_values(fresh, delay, t)


def test_memo_keeps_one_density_per_delay_law():
    grid = TimeGrid.regular(2.0, step=1.0 / 730.0)
    path = simulate_intensity_path(_SEASONAL, grid)
    slow = _GAMMA_DELAY
    fast = DelayLaw(alpha0=0.3, density=ExponentialDelay(8.0))
    for delay in (slow, fast, slow, fast):
        fresh = simulate_intensity_path(_SEASONAL, grid)
        assert _ladder_values(path, delay, 0.7) == _ladder_values(fresh, delay, 0.7)
    # An equal law built anew reads the same entry.
    same = reporting_curve(path, DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.0, rate=3.0)))
    assert same.density is reporting_curve(path, slow).density
    assert reporting_curve(path, fast).density is not same.density
    assert not same.density.flags.writeable


def test_memo_filled_by_racing_threads_gives_fresh_values():
    # Threads that fill one path's memo at once each compute the same bits;
    # a lost update only repeats work.  Short switch interval, more threads
    # than cores.
    delay = _GAMMA_DELAY
    grid = TimeGrid.regular(2.0)
    dates = (0.1, 0.5 + grid.step / 3.0, 1.2, 1.9)
    expected = [_ladder_values(simulate_intensity_path(_SEASONAL, grid), delay, t) for t in dates]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            path = simulate_intensity_path(_SEASONAL, grid)
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda: [_ladder_values(path, delay, t) for t in dates])
                           for _ in range(6)]
                results = [f.result(timeout=60) for f in futures]
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(switch)


def test_memo_skips_convolutions_after_first_reserve(monkeypatch):
    calls = []
    convolve = pricing._fft_convolve
    monkeypatch.setattr(pricing, "_fft_convolve", lambda a, b: calls.append(1) or convolve(a, b))
    delay = _GAMMA_DELAY
    path = simulate_intensity_path(_SEASONAL, TimeGrid.regular(2.0))
    _ladder_values(path, delay, 0.25)
    # The node density on the grid and on its even nodes.
    assert len(calls) == 2
    for t in (0.25, 0.5, 0.5 + 1e-3, 1.9):
        _ladder_values(path, delay, t)
    assert len(calls) == 2


def test_tail_sums_filled_once_per_path_and_delay(monkeypatch):
    calls = []
    tail_sums = pricing._tail_sums
    monkeypatch.setattr(pricing, "_tail_sums", lambda x: calls.append(len(x)) or tail_sums(x))
    path = simulate_intensity_path(_SEASONAL, TimeGrid.regular(2.0))
    n = path.grid.n_cells
    _ladder_values(path, _GAMMA_DELAY, 0.25)
    # Two sums on the grid and two on its even nodes.
    assert calls == [n + 1, n + 1, n // 2 + 1, n // 2 + 1]
    for t in (0.25, 0.5, 0.5 + 1e-3, 1.0, 1.9):
        _ladder_values(path, _GAMMA_DELAY, t)
    assert len(calls) == 4


def _trapezoid_payout(path, delay, fm, dev, t, T):
    """The payout integral as np.trapezoid of psi * p' over the whole
    cells, plus the partial end cells from pointwise densities."""
    grid = path.grid

    def psi(u):
        return fm.mean + dev.rate * dev.mark_mean * (T - u)

    i_lo = min(max(int(math.ceil(t / grid.step - 1e-12)), 0), grid.n_cells)
    i_hi = min(max(int(math.floor(T / grid.step + 1e-12)), 0), grid.n_cells)
    if i_lo > i_hi:
        d_t, d_T = reporting_density(path, delay, t), reporting_density(path, delay, T)
        return 0.5 * (psi(t) * d_t + psi(T) * d_T) * (T - t)
    nodes = grid.points[i_lo : i_hi + 1]
    values = psi(nodes) * reporting_curve(path, delay).density[i_lo : i_hi + 1]
    total = float(np.trapezoid(values, dx=grid.step))
    if nodes[0] - t > 1e-12 * grid.step:
        total += 0.5 * (psi(t) * reporting_density(path, delay, t) + values[0]) * (nodes[0] - t)
    if T - nodes[-1] > 1e-12 * grid.step:
        total += 0.5 * (values[-1] + psi(T) * reporting_density(path, delay, T)) * (T - nodes[-1])
    return total


_DAY = 1.0 / 365.0


@pytest.mark.parametrize("delay, t, T", [
    (_exp_delay(), 100 * _DAY, 2.0),
    (_exp_delay(), 100 * _DAY, 500 * _DAY),
    (_exp_delay(), 1.0012, 1.0015),
    (_exp_delay(), 0.5, 1.7 + _DAY / 3.0),
    (_exp_delay(), 0.1, 0.3),
    (_GAMMA_DELAY, 0.5, 2.0),
    (_GAMMA_DELAY, 0.0, 1.2 + _DAY / 5.0),
    (DelayLaw(alpha0=1.0), 0.25, 2.0),
    (DelayLaw(alpha0=1.0), 0.3 + _DAY / 2.0, 1.4),
], ids=["T-grid-end", "T-inside", "one-cell", "off-node", "short-early", "gamma",
        "gamma-off-node-T", "alpha0-1", "alpha0-1-off-node"])
def test_payout_integral_matches_trapezoid_reference(delay, t, T):
    fm = MarkLaw(mean=1.3)
    dev = DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5))
    grid = TimeGrid.regular(2.0)
    expected = _trapezoid_payout(simulate_intensity_path(_SEASONAL, grid), delay, fm, dev, t, T)
    path = simulate_intensity_path(_SEASONAL, grid)
    for _ in range(2):  # cold, then warm
        value = pricing._payout_integral(path, delay, fm, dev, t, T)
        assert value == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_reserve_rejects_out_of_range_times():
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(0.0, 4, 0)
    with pytest.raises(GridRangeError):
        reserve(state, _unit_path(), delay, fm, dev, 5.0)
    with pytest.raises(ConfigurationError, match="valuation time 1.5 exceeds horizon 1.0"):
        reserve(PortfolioState.from_counts(1.5, 4, 0), _unit_path(), delay, fm, dev, 1.0)


def test_stochastic_reserve_reproducible_and_reports_error():
    delay, fm, dev = _book()
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    state = PortfolioState.from_counts(0.0, 4, 0)
    a = reserve(state, model, delay, fm, dev, 2.0, intensity_draws=512, seed=9)
    b = reserve(state, model, delay, fm, dev, 2.0, intensity_draws=512, seed=9)
    assert a.total == b.total
    assert a.diagnostics["outer_std_error"] > 0.0
    assert a.diagnostics["intensity_draws"] == 512


def test_stochastic_reserve_names_its_draws_bound():
    delay, fm, dev = _book()
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    state = PortfolioState.from_counts(0.0, 4, 0)
    with pytest.raises(SchemaError) as err:
        reserve(state, model, delay, fm, dev, 1.0, intensity_draws=1)
    assert err.value.field == "intensity_draws"


@pytest.mark.parametrize("intensity", [
    _unit_path(),
    LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
], ids=["deterministic", "stochastic"])
def test_reserve_refuses_reported_claims_at_time_zero(intensity):
    delay, fm, dev = _book()
    with pytest.raises(ConfigurationError, match="reported at time zero"):
        reserve(PortfolioState.from_counts(0.0, 5, 3), intensity, delay, fm, dev, 2.0)


def _unchunked_stochastic_reserve(model, delay, fm, dev, T, grid, draws, seed, n):
    """The outer average over all draws at once: (unreported, outer SE).

    Each bracket is summed row by row, as the reserve sums it; a
    matrix-vector product rounds a row by the rows beside it.
    """
    c = _unreported_integrand_weights(grid, grid.node_index(T), fm, dev)
    q = _bracket_functional(c, delay, grid)
    normals = substream(seed, 0x1A7E).standard_normal((draws, grid.n_cells))
    mu = np.exp(model.log_level_paths(grid, normals))
    gamma = trapezoid_hazard(grid, mu)
    brackets = np.einsum("ij,j->i", _cell_masses(np.exp(-gamma)), q)
    if delay.alpha0 > 0.0:
        brackets += delay.alpha0 * np.einsum("ij,j->i", np.exp(-gamma) * mu, c)
    se = float(np.std(brackets, ddof=1) / math.sqrt(draws))
    return n * float(np.mean(brackets)), n * se


@pytest.mark.parametrize("alpha0", [0.0, 0.2, 1.0])
def test_stochastic_reserve_chunks_match_one_pass(alpha0):
    # The streamed outer average must equal the one-pass formula bit for
    # bit.  At alpha0 = 1 (instant reporting) there is no density bracket.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    density = None if alpha0 == 1.0 else ExponentialDelay(2.0)
    delay = DelayLaw(alpha0=alpha0, density=density)
    fm = MarkLaw(mean=1.0, kind="exponential")
    dev = DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential"))
    grid = TimeGrid.regular(1.0, step=1 / 52)
    state = PortfolioState.from_counts(0.0, 64, 0)
    for draws in (2, 1023, 1024, 1025, 2049):
        result = reserve(state, model, delay, fm, dev, 1.0, grid=grid,
                         intensity_draws=draws, seed=3)
        expected = _unchunked_stochastic_reserve(model, delay, fm, dev, 1.0, grid, draws, 3, 64)
        assert (result.total, result.diagnostics["outer_std_error"]) == expected
    # The outer average is the mean of the deterministic reserve on the same drawn paths.
    result = reserve(state, model, delay, fm, dev, 1.0, grid=grid, intensity_draws=300, seed=3)
    totals = []
    for _, mu, gamma in draw_hazard_chunks(model, grid, substream(3, 0x1A7E), 300):
        totals += [reserve(state, IntensityPath(grid=grid, mu=m, gamma=g), delay, fm, dev, 1.0).total
                   for m, g in zip(mu, gamma)]
    assert result.total == pytest.approx(np.mean(totals), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cells", [365, 9000])
def test_brackets_of_a_part_equal_its_rows_bracketed_alone(cells):
    # A whole part of the generator (179 paths on the daily year, 7 on a
    # 9,000-cell grid) against its rows bracketed alone or in smaller
    # calls.  With a matrix-vector product the first row alone, or the
    # first 90, differed from the same rows of the 179 in the last bit;
    # past 8,192 cells numpy's own einsum cuts a row by its neighbours.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    delay, fm, dev = DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)), MarkLaw(mean=1.0), _book()[2]
    grid = TimeGrid.regular(1.0, step=1 / cells)
    rows = intensity._hazard_chunk_rows(grid)
    c = _unreported_integrand_weights(grid, grid.n_cells, fm, dev)
    q = _bracket_functional(c, delay, grid)
    mu = np.exp(model.log_level_paths(grid, np.random.default_rng(3).standard_normal((rows, cells))))
    surv = np.exp(-trapezoid_hazard(grid, mu))
    part = _brackets(surv, mu, q, c, delay.alpha0)
    for alone in (slice(0, 1), slice(0, rows // 2), slice(rows // 2, rows), slice(rows - 1, rows)):
        assert np.array_equal(_brackets(surv[alone].copy(), mu[alone].copy(), q, c, delay.alpha0),
                              part[alone])


def test_stochastic_reserve_does_not_depend_on_the_part_size(monkeypatch):
    # Parts of 11, 89 and 179 paths on the daily year give the same total,
    # outer standard error and Richardson estimate, bit for bit.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    delay, fm, dev = DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)), MarkLaw(mean=1.0), _book()[2]
    state = PortfolioState.from_counts(0.0, 64, 0)
    results = set()
    for values in (1 << 12, 1 << 15, 1 << 16):
        monkeypatch.setattr(intensity, "_HAZARD_CHUNK_VALUES", values)
        assert intensity._hazard_chunk_rows(TimeGrid.regular(1.0)) == values // 366
        result = reserve(state, model, delay, fm, dev, 1.0, grid=TimeGrid.regular(1.0),
                         intensity_draws=2049, seed=7)
        results.add((result.total, result.diagnostics["outer_std_error"],
                     result.diagnostics["unreported_error_estimate"]))
    assert len(results) == 1


@pytest.mark.parametrize("draws", [2, 1023, 1024, 2049])
@pytest.mark.parametrize("cells", [52, 51], ids=["even", "odd"])
def test_stochastic_error_estimate_matches_one_pass_coarse(cells, draws):
    # The Richardson estimate reads the first min(draws, 1024) draws on
    # every other node: rates mu[:, ::2], the hazard kept at those nodes and
    # the coarse grid's own payout weights, both rules over [0, t_e], t_e
    # the last even node, with the payout to T = 1.  Streamed as one
    # difference bracket, it matches the two one-pass brackets.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    delay, fm, dev = DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)), MarkLaw(mean=1.0), _book()[2]
    grid = TimeGrid.regular(1.0, step=1 / cells)
    i_e = cells - cells % 2
    coarse = TimeGrid.regular(float(grid.points[i_e]), step=2 / cells)
    state = PortfolioState.from_counts(0.0, 64, 0)
    result = reserve(state, model, delay, fm, dev, 1.0, grid=grid, intensity_draws=draws, seed=3)
    k = draws
    mu = np.exp(model.log_level_paths(grid, substream(3, 0x1A7E).standard_normal((k, grid.n_cells))))
    gamma = trapezoid_hazard(grid, mu)
    gaps = 0.0
    for g, i_end, rates, hazard, sign in ((grid, i_e, mu, gamma, 1.0),
                                          (coarse, i_e // 2, mu[:, : i_e + 1 : 2],
                                           gamma[:, : i_e + 1 : 2], -1.0)):
        c = _unreported_integrand_weights(g, i_end, fm, dev, 1.0)
        surv = np.exp(-hazard)
        brackets = _cell_masses(surv) @ _bracket_functional(c, delay, g) + 0.2 * ((surv * rates) @ c)
        gaps = gaps + sign * brackets
    assert result.diagnostics["unreported_error_estimate"] == pytest.approx(
        64 * abs(float(np.mean(gaps))) / 3.0, rel=1e-9)


_LOG_OU = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)


@pytest.mark.parametrize("alpha0", [0.0, 0.2, 1.0])
def test_deterministic_reserve_on_the_effective_path_is_the_stochastic_total(alpha0):
    # The payout integral is linear in exp(-Gamma) and exp(-Gamma) mu, so the
    # deterministic leg on the path of their means is the mean bracket, and
    # its Richardson estimate is the stochastic reserve's, bit for bit.
    delay = DelayLaw(alpha0=alpha0, density=None if alpha0 == 1.0 else ExponentialDelay(2.0))
    fm, dev = MarkLaw(mean=1.0), _book()[2]
    grid = TimeGrid.regular(1.0, step=1 / 52)
    state = PortfolioState.from_counts(0.0, 64, 0)
    result = reserve(state, _LOG_OU, delay, fm, dev, 1.0, grid=grid, intensity_draws=1000, seed=3)
    on_path = reserve(state, result.path, delay, fm, dev, 1.0)
    assert on_path.total == pytest.approx(result.total, rel=1e-12, abs=0.0)
    estimate = "unreported_error_estimate"
    assert on_path.diagnostics[estimate] == result.diagnostics[estimate]
    path, brackets = pricing.effective_path(_LOG_OU, grid, 1000, seed=3)
    assert brackets is None
    assert np.array_equal(path.gamma, result.path.gamma) and np.array_equal(path.mu, result.path.mu)


def test_effective_path_does_not_depend_on_the_part_size(monkeypatch):
    # Parts of 11, 89 and 179 paths give the bits of a loop that adds the
    # draws of one whole draw row by row.
    grid = TimeGrid.regular(1.0)
    mu = np.exp(_LOG_OU.log_level_paths(grid, substream(7, 0x1A7E).standard_normal((2049, grid.n_cells))))
    surv = np.exp(-trapezoid_hazard(grid, mu))
    sums = np.zeros((2, len(grid.points)))
    for s, m in zip(surv, mu):
        sums[0] += s
        sums[1] += s * m
    reference = (-np.log(sums[0] / 2049)).tobytes(), (sums[1] / sums[0]).tobytes()
    for values in (1 << 12, 1 << 15, 1 << 16):
        monkeypatch.setattr(intensity, "_HAZARD_CHUNK_VALUES", values)
        path = pricing.effective_path(_LOG_OU, grid, 2049, seed=7)[0]
        assert (path.gamma.tobytes(), path.mu.tobytes()) == reference


def test_effective_path_where_every_survival_underflows():
    # Past the first cells no draw survives: the hazard is inf and the rate
    # 0 there, with no 0/0 and no numpy warning, and the curve stays finite.
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=13.8, vol=0.5, init=1e6)
    path = pricing.effective_path(model, TimeGrid.regular(1.0), 64, seed=0)[0]
    assert path.gamma[0] == 0.0 and path.gamma[-1] == math.inf and path.mu[-1] == 0.0
    curve = reporting_curve(path, _exp_delay())
    assert np.all(np.isfinite(curve.cdf)) and np.all(np.isfinite(curve.density))
    assert curve.survival[-1] == 0.0


def test_simulated_portfolios_report_at_the_effective_paths_curve():
    # The record API under a log-OU rate: 4,000 sampled paths of 25 policies
    # each, against the reporting cdf of the mean law that the stochastic
    # reserve prices and curve.csv writes.  The standard error is the spread
    # of each path's fraction reported across the paths.
    from claimflow.mc import Z_THRESHOLD
    grid = TimeGrid.regular(1.0)
    delay, fm, dev = DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)), MarkLaw(mean=1.0), _book()[2]
    nodes = grid.points[[73, 146, 219, 292, 365]]
    fractions = np.empty((4000, len(nodes)))
    for i in range(len(fractions)):
        path = simulate_intensity_path(_LOG_OU, grid, seed=np.random.SeedSequence(11, spawn_key=(i,)))
        claims = simulate_portfolio(25, path, delay, fm, dev, 1.0, seed=np.random.SeedSequence(12, spawn_key=(i,)))
        reports = np.array([c.report_time for c in claims])
        fractions[i] = (reports[:, None] <= nodes).mean(axis=0)
    mean_law = pricing.effective_path(_LOG_OU, grid, 8192, seed=13)[0]
    expected = np.array([reporting_cdf(mean_law, delay, float(t)) for t in nodes])
    se = fractions.std(axis=0, ddof=1) / math.sqrt(len(fractions))
    z = (fractions.mean(axis=0) - expected) / se
    assert np.all(np.abs(z) <= Z_THRESHOLD), z


_STOCHASTIC_SCENARIO = {
    "schema_version": 1,
    "seed": 3,
    "grid": {"step": 1.0 / 365.0},
    "intensity": {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0,
                  "vol": 0.5, "init": 1.0},
    "delay": {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2.0}},
    "first_mark": {"mean": 1.0, "kind": "exponential"},
    "development": {"rate": 1.5, "mark_mean": 0.5, "mark_kind": "exponential"},
    "market": {"kind": "deterministic", "level": 1.0},
    "portfolio": {"n": 64},
    "valuation": {"t": 0.0, "T": 1.0},
    "mc": {"n_paths": 32768, "antithetic": False, "intensity_draws": 8192},
}


# Valued off the daily grid with claims already reported, across a rate
# breakpoint and under a gamma delay.
_CONDITIONAL_SCENARIO = {
    "schema_version": 1,
    "seed": 0,
    "intensity": {"kind": "piecewise", "breakpoints": [1.0], "rates": [0.8, 1.2]},
    "delay": {"alpha0": 0.2, "density": {"kind": "gamma", "shape": 2.0, "rate": 3.0}},
    "first_mark": {"mean": 1.0},
    "development": {"rate": 1.5, "mark_mean": 0.5},
    "portfolio": {"n": 6, "reported_count": 3},
    "valuation": {"t": 0.7, "T": 2.0},
}


@pytest.mark.parametrize("text, diagnostic, total, value", [
    ((Path(__file__).resolve().parents[1] / "configs" / "example.json").read_text(),
     "unreported_error_estimate", "0x1.65f41a19488cdp+3", "0x1.0a3f3afc55555p-17"),
    (json.dumps(_STOCHASTIC_SCENARIO),
     "outer_std_error", "0x1.369995e5d2390p+5", "0x1.437cb97d07a9dp-5"),
    (json.dumps(_CONDITIONAL_SCENARIO),
     "unreported_error_estimate", "0x1.7539062074594p+2", "0x1.c6081b9d2bb52p-14"),
], ids=["example", "log_ou_n64", "piecewise_t0.7"])
def test_analytic_reserve_numbers_are_pinned(text, diagnostic, total, value):
    # The analytic reserve bit for bit, as run_scenario computes it: the
    # deterministic example with its even-node Richardson estimate, the
    # chunked stochastic outer average with its standard error, and a
    # deterministic valuation at t > 0, where p(t) is not trivially 0.
    cfg = parse_config(text)
    result = reserve(PortfolioState.from_counts(cfg.t, cfg.n_policies, cfg.reported_count),
                     cfg.intensity, cfg.delay, cfg.first_mark, cfg.development, cfg.T,
                     market=cfg.market, grid=TimeGrid.regular(cfg.T, step=cfg.grid_step),
                     intensity_draws=cfg.intensity_draws, seed=cfg.seed)
    assert (result.total.hex(), result.diagnostics[diagnostic].hex()) == (total, value)


def test_stochastic_reserve_memory_does_not_grow_with_draws():
    model = LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)
    delay, fm, dev = _book()
    grid = TimeGrid.regular(1.0, step=1 / 365)
    state = PortfolioState.from_counts(0.0, 4, 0)
    peaks = []
    for chunks in (2, 8):
        tracemalloc.start()
        try:
            reserve(state, model, delay, fm, dev, 1.0, grid=grid,
                    intensity_draws=chunks * 1024, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


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


def test_error_estimate_sees_the_breakpoint_bias():
    # Across the rate breakpoint at 1 the trapezoid hazard is first order.
    # A half-step path that kept the hazard at the old nodes shared that
    # bias and reported 0.2 % of the true error; the even-node rule sees
    # about 18 % of it.  The reference runs at 1/32 of the daily step.
    cfg = parse_config(json.dumps(_CONDITIONAL_SCENARIO))

    def priced(step):
        return reserve(PortfolioState.from_counts(cfg.t, cfg.n_policies, cfg.reported_count),
                       cfg.intensity, cfg.delay, cfg.first_mark, cfg.development, cfg.T,
                       grid=TimeGrid.regular(cfg.T, step=step))

    result = priced(cfg.grid_step)
    true_err = abs(result.unreported_component - priced(cfg.grid_step / 32).unreported_component)
    estimate = result.diagnostics["unreported_error_estimate"]
    assert 0.1 * true_err <= estimate <= 2.0 * true_err


@pytest.mark.parametrize("intensity, step, t", [
    (ConstantIntensity(1.0), 1.0, 0.0),
    (LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0), 1.0, 0.0),
    (ConstantIntensity(1.0), 0.2, 0.8),
    (ConstantIntensity(1.0), 0.2, 0.9),
], ids=["one-cell", "one-cell-log-ou", "odd-last-node", "odd-last-cell"])
def test_error_estimate_without_a_coarse_cell_is_the_component(intensity, step, t):
    # A one-cell grid has no even-node cell, and on a five-cell grid a t
    # from node 4 on leaves none in [t, T]: the estimate is then the
    # unreported component itself, finite and never 0.
    delay, fm, dev = _book()
    state = PortfolioState.from_counts(t, 4, 1 if t > 0.0 else 0)
    result = reserve(state, intensity, delay, fm, dev, 1.0, grid=TimeGrid.regular(1.0, step=step),
                     intensity_draws=64)
    assert result.unreported_component > 0.0
    assert result.diagnostics["unreported_error_estimate"] == result.unreported_component


@pytest.mark.parametrize("cells, node, evaluations", [(730, 400, 2), (730, 401, 3), (729, 400, 3)],
                         ids=["even-node", "odd-node", "odd-grid"])
def test_warm_node_revaluation_counts_payout_integrals(monkeypatch, cells, node, evaluations):
    # A warm valuation at an even node reads I_h and I_2h, two O(1)
    # evaluations.  From an odd node, or on an odd grid whose last even
    # node falls short of T, both rules run over the whole 2h cells only,
    # so the h-rule runs once more over that window; no evaluation needs a
    # pointwise density.
    path = simulate_intensity_path(_SEASONAL, TimeGrid.regular(2.0, step=2.0 / cells))
    _ladder_values(path, _GAMMA_DELAY, 0.25)
    calls = []
    payout = pricing._payout_integral
    monkeypatch.setattr(pricing, "_payout_integral", lambda p, *a: calls.append(p) or payout(p, *a))
    monkeypatch.setattr(pricing, "reporting_density", lambda *a: pytest.fail("pointwise density"))
    _ladder_values(path, _GAMMA_DELAY, float(path.grid.points[node]))
    assert calls == [path] * (evaluations - 1) + [pricing._even_nodes(path)]


def _reference_reporting_cdf(path, delay, t):
    """``reporting_cdf`` with its on-node dot product reached through numpy
    scalars and ``_memoized``: the arithmetic, in its order, that the
    plain-float path must reproduce bit for bit."""
    grid = path.grid
    grid.require_inside(t)
    i = min(int(round(t / grid.step)), grid.n_cells)
    if grid.points[i] != t:
        return pricing._stieltjes(path, t, lambda s: delay.cdf(t - s))
    if i == 0:
        return 0.0
    masses, kernel = pricing._cdf_kernel(path, delay)
    return float(np.dot(masses[:i], kernel[i - 1 :: -1]))


def _reference_payout_integral(path, delay, first_mark, dev, t, T, end=None):
    """``_payout_integral`` on numpy scalars with a ``psi`` closure, the
    reference of the plain-float code."""
    grid = path.grid
    c = dev.rate * dev.mark_mean
    end = T if end is None else end

    def psi(u):
        return first_mark.mean + c * (T - u)

    i_lo = int(math.ceil(t / grid.step - 1e-12))
    i_hi = int(math.floor(end / grid.step + 1e-12))
    i_lo = min(max(i_lo, 0), grid.n_cells)
    i_hi = min(max(i_hi, 0), grid.n_cells)
    if i_lo > i_hi:
        d_t = reporting_density(path, delay, t)
        d_end = reporting_density(path, delay, end)
        return 0.5 * (psi(t) * d_t + psi(end) * d_end) * (end - t)
    entry = pricing._node_density(path, delay)
    u_lo, u_hi = float(grid.points[i_lo]), float(grid.points[i_hi])
    v_lo = psi(u_lo) * float(entry.density[i_lo])
    v_hi = psi(u_hi) * float(entry.density[i_hi])
    total = 0.0
    if i_hi > i_lo:
        a = first_mark.mean + c * (T - grid.t_end)
        s0 = float(entry.tail[i_lo] - entry.tail[i_hi + 1])
        s1 = float(entry.tail_lag[i_lo] - entry.tail_lag[i_hi + 1])
        total = grid.step * (a * s0 + c * s1 - 0.5 * (v_lo + v_hi))
    left_gap = u_lo - t
    if left_gap > 1e-12 * grid.step:
        d_t = reporting_density(path, delay, t)
        total += 0.5 * (psi(t) * d_t + v_lo) * left_gap
    right_gap = end - u_hi
    if right_gap > 1e-12 * grid.step:
        d_end = reporting_density(path, delay, end)
        total += 0.5 * (v_hi + psi(end) * d_end) * right_gap
    return total


def _valuation_bits(cdf, payout, path, delay, t, ends=()):
    """Bits of p(t), of the payout integral to T = 2 over [t, T] and over
    [t, end] for each end in [t, T], and of the two Richardson windows
    that ``reserve`` reads at t, by the functions ``cdf`` and ``payout``."""
    fm, dev, T = MarkLaw(mean=1.3), DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5)), 2.0
    grid = path.grid
    values = [cdf(path, delay, t), payout(path, delay, fm, dev, t, T)]
    values += [payout(path, delay, fm, dev, t, T, end) for end in ends if t <= end <= T]
    i_a = 2 * math.ceil(t / (2.0 * grid.step) - 1e-12)
    i_b = 2 * math.floor(T / (2.0 * grid.step) + 1e-12)
    if i_a < i_b:
        t_a, t_b = float(grid.points[i_a]), float(grid.points[i_b])
        values += [payout(p, delay, fm, dev, t_a, T, t_b) for p in (path, pricing._even_nodes(path))]
    return [v.hex() for v in values]


@pytest.mark.parametrize("alpha0", [0.0, 0.2])
@pytest.mark.parametrize("density", [ExponentialDelay(2.0), GammaDelay(shape=2.0, rate=3.0)],
                         ids=["exponential", "gamma"])
@pytest.mark.parametrize("model", [ConstantIntensity(1.0), _SEASONAL], ids=["constant", "seasonal"])
@pytest.mark.parametrize("cells", [730, 729])
def test_valuations_match_the_numpy_scalar_reference(cells, model, density, alpha0):
    # Python floats and numpy float64 round alike, so the plain-float path
    # gives the reference's bits as long as it keeps every operation and
    # its order: at every node (t = 0 and t = T included), to T and to an
    # end before T on and off a node, and from a few off-node times whose
    # windows start or lie inside a cell.  The new code runs first, so it
    # also fills each memo entry.
    delay = DelayLaw(alpha0=alpha0, density=density)
    path = simulate_intensity_path(model, TimeGrid.regular(2.0, step=2.0 / cells))
    points, step = path.grid.points, path.grid.step
    ends = (float(points[cells * 3 // 4]), float(points[cells * 3 // 4]) + step / 3.0)
    dates = [float(u) for u in points] + [float(points[i]) + step / 3.0 for i in range(0, cells, 97)]
    for t in dates:
        new = _valuation_bits(pricing.reporting_cdf, pricing._payout_integral, path, delay, t,
                              ends + (t + step / 3.0,))
        old = _valuation_bits(_reference_reporting_cdf, _reference_payout_integral, path, delay, t,
                              ends + (t + step / 3.0,))
        assert new == old, t


def test_ladder_dates_match_the_numpy_scalar_reference(monkeypatch):
    # A 3-hour book valued at 52 weekly dates, like the valuation_ladder
    # benchmark.  175/365 and 350/365 fall one ulp off a node and keep the
    # pointwise sum, whose bias the ladder's reference totals encode
    # (ROADMAP item 1); every other date is a node.
    months = np.arange(24)
    model = PiecewiseConstantIntensity(breakpoints=tuple(months[1:] / 12.0),
                                       rates=tuple(0.45 * (1.0 + 0.3 * np.sin(months + 1.0))))
    delay = DelayLaw(alpha0=0.1, density=GammaDelay(shape=2.2, rate=3.5))
    path = simulate_intensity_path(model, TimeGrid.regular(2.0, step=1.0 / (365.0 * 8.0)))
    stieltjes, pointwise = pricing._stieltjes, []
    for k in range(1, 53):
        t = 7.0 * k / 365.0
        monkeypatch.setattr(pricing, "_stieltjes", lambda p, u, f: pointwise.append(u) or stieltjes(p, u, f))
        new = _valuation_bits(pricing.reporting_cdf, pricing._payout_integral, path, delay, t)
        monkeypatch.setattr(pricing, "_stieltjes", stieltjes)
        old = _valuation_bits(_reference_reporting_cdf, _reference_payout_integral, path, delay, t)
        assert new == old, t
    assert pointwise == [175.0 / 365.0, 350.0 / 365.0]


@pytest.mark.parametrize("cells", [730, 729])
def test_warm_node_valuations_build_nothing(monkeypatch, cells):
    # Once every node date has been valued, p(t) and the reserve at each of
    # them read only the memo: with ``_kernel_arrays`` and ``_tail_sums``
    # made to fail, both give the same bits again.
    path = simulate_intensity_path(_SEASONAL, TimeGrid.regular(2.0, step=2.0 / cells))
    dates = [float(t) for t in path.grid.points]

    def values():
        return [(reporting_cdf(path, _GAMMA_DELAY, t).hex(), _ladder_values(path, _GAMMA_DELAY, t))
                for t in dates]

    cold = values()
    for name in ("_kernel_arrays", "_tail_sums"):
        monkeypatch.setattr(pricing, name, lambda *a, name=name: pytest.fail(f"{name} ran when warm"))
    assert values() == cold


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
    c = _unreported_integrand_weights(grid, grid.n_cells, fm, dev)
    direct = float(np.dot(c, curve.density))
    q = _bracket_functional(c, delay, grid)
    masses = np.exp(-path.gamma[:-1]) - np.exp(-path.gamma[1:])
    fast = float(masses @ q) + delay.alpha0 * float((np.exp(-path.gamma) * path.mu) @ c)
    assert fast == pytest.approx(direct, rel=1e-12)
