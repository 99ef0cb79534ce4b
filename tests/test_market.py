"""Deflator models, paths and benchmarked cash flows."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimflow import (
    ClaimRecord,
    ConfigurationError,
    DelayLaw,
    DeterministicDeflator,
    DevelopmentLaw,
    ExponentialDelay,
    GridRangeError,
    MarkLaw,
    MarketPath,
    MartingaleDeflator,
    PiecewiseConstantIntensity,
    TimeGrid,
    benchmarked_cashflow,
    simulate_intensity_path,
    simulate_market,
    simulate_portfolio,
)


def test_unit_deflator_path():
    grid = TimeGrid.regular(1.0, step=0.25)
    path = simulate_market(DeterministicDeflator(1.0), grid)
    assert np.array_equal(path.values, np.ones(5))


def test_zero_vol_martingale_is_flat():
    grid = TimeGrid.regular(1.0, step=0.25)
    path = simulate_market(MartingaleDeflator(init=0.8, vol=0.0), grid, seed=4)
    assert np.allclose(path.values, 0.8, rtol=0, atol=0)


def test_martingale_terminal_mean():
    model = MartingaleDeflator(init=1.0, vol=0.2)
    grid = TimeGrid.regular(1.0, step=1 / 52)
    rng = np.random.default_rng(2)
    n = 100_000
    finals = model.paths_from_normals(grid, rng.standard_normal((n, grid.n_cells)))[:, -1]
    se = finals.std(ddof=1) / math.sqrt(n)
    assert abs(finals.mean() - 1.0) <= 3.0 * se


def test_martingale_single_step_mean():
    # Each discrete step has conditional mean one by construction.
    model = MartingaleDeflator(init=1.0, vol=0.3)
    grid = TimeGrid.regular(1.0, step=1 / 12)
    rng = np.random.default_rng(3)
    n = 100_000
    paths = model.paths_from_normals(grid, rng.standard_normal((n, grid.n_cells)))
    ratios = paths[:, 5] / paths[:, 4]
    se = ratios.std(ddof=1) / math.sqrt(n)
    assert abs(ratios.mean() - 1.0) <= 3.0 * se


def test_simulation_reproducible_and_seed_sensitive():
    model = MartingaleDeflator(init=1.0, vol=0.2)
    grid = TimeGrid.regular(1.0)
    a = simulate_market(model, grid, seed=5)
    b = simulate_market(model, grid, seed=5)
    c = simulate_market(model, grid, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_callable_deterministic_deflator():
    grid = TimeGrid.regular(1.0, step=0.5)
    path = simulate_market(DeterministicDeflator(lambda t: 1.0 + t), grid)
    assert np.allclose(path.values, [1.0, 1.5, 2.0])
    with pytest.raises(ConfigurationError):
        simulate_market(DeterministicDeflator(lambda t: t - 0.25), grid)


def test_deflator_interpolation():
    grid = TimeGrid.regular(1.0, step=1.0)
    path = MarketPath(grid=grid, values=np.array([1.0, 2.0]))
    assert path.deflator(0.5) == pytest.approx(1.5)
    assert path.deflator(0.0) == 1.0
    with pytest.raises(GridRangeError):
        path.deflator(1.5)


def test_model_validation():
    with pytest.raises(ConfigurationError):
        MartingaleDeflator(init=0.0, vol=0.1)
    with pytest.raises(ConfigurationError):
        MartingaleDeflator(init=1.0, vol=-0.1)
    with pytest.raises(ConfigurationError):
        MartingaleDeflator(init=1.0, vol=0.1, corr_with_intensity=1.5)
    with pytest.raises(ConfigurationError):
        DeterministicDeflator(0.0)
    with pytest.raises(ConfigurationError):
        MarketPath(grid=TimeGrid.regular(1.0, step=1.0), values=np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# Benchmarked cash flows
# ---------------------------------------------------------------------------

def _unit_market(t_end=2.0):
    grid = TimeGrid.regular(t_end, step=0.25)
    return simulate_market(DeterministicDeflator(1.0), grid)


def _claim(report, first, devs=()):
    accident = report - 0.1
    return ClaimRecord(accident_time=accident, delay=report - accident, report_time=report,
                       first_mark=first, developments=devs)


def test_cashflow_empty_window():
    path = _unit_market()
    claim = _claim(1.0, 2.0)
    assert benchmarked_cashflow([claim], path, 1.5, 2.0) == 0.0


def test_cashflow_single_payment():
    path = _unit_market()
    claim = _claim(1.0, 2.0)
    assert benchmarked_cashflow([claim], path, 0.0, 2.0) == pytest.approx(2.0)


def test_cashflow_hand_computed_with_varying_deflator():
    grid = TimeGrid.regular(2.0, step=0.5)
    values = np.interp(grid.points, [0.0, 1.0, 1.5, 2.0], [1.0, 1.0, 0.8, 0.8])
    path = MarketPath(grid=grid, values=values)
    claim = _claim(1.0, 2.0, devs=((0.5, 0.5),))
    # report pays 2.0 at deflator 1.0; development pays 0.5 at deflator 0.8
    assert benchmarked_cashflow([claim], path, 0.0, 2.0) == pytest.approx(2.0 + 0.5 * 0.8)


def test_cashflow_additive_over_policies():
    path = _unit_market()
    claims = [_claim(0.5, 1.0), _claim(1.0, 2.0, devs=((0.25, 0.5),))]
    total = benchmarked_cashflow(claims, path, 0.0, 2.0)
    parts = sum(benchmarked_cashflow([c], path, 0.0, 2.0) for c in claims)
    assert total == pytest.approx(parts)


@settings(max_examples=40, deadline=None)
@given(
    split=st.floats(min_value=0.0, max_value=2.0),
    report=st.floats(min_value=0.05, max_value=1.9),
    first=st.floats(min_value=0.0, max_value=10.0),
    dev_offset=st.floats(min_value=0.01, max_value=0.5),
)
def test_cashflow_additive_over_windows(split, report, first, dev_offset):
    path = _unit_market()
    claim = _claim(report, first, devs=((dev_offset, 1.25),))
    whole = benchmarked_cashflow([claim], path, 0.0, 2.0)
    left = benchmarked_cashflow([claim], path, 0.0, split)
    right = benchmarked_cashflow([claim], path, split, 2.0)
    assert whole == pytest.approx(left + right, abs=1e-12)


def _reference_cashflow(claims, path, t, T):
    """One deflator lookup and one addition per payment event, in event order."""
    total = 0.0
    for claim in claims:
        for when, amount in claim.payment_events():
            if t < when <= T:
                total += float(path.deflator(when)) * amount
    return total


def test_cashflow_matches_per_event_reference_bit_for_bit():
    grid = TimeGrid.regular(2.0)
    intensity = simulate_intensity_path(
        PiecewiseConstantIntensity(breakpoints=(0.5, 1.0), rates=(0.6, 0.3, 1.2)), grid)
    claims = simulate_portfolio(
        300, intensity, DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)),
        MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.8),
        DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential")), horizon=2.0, seed=5)
    path = simulate_market(MartingaleDeflator(init=1.0, vol=0.2), grid, seed=6)
    windows = [(0.0, 2.0), (1.0, 2.0), (1.0, 1.5), (1.5, 2.0), (0.25, 0.2501),
               (0.7, 0.7), (2.0, 2.0), (0.0, 0.0)]
    for t, T in windows:
        got = benchmarked_cashflow(claims, path, t, T)
        assert type(got) is float
        assert got == _reference_cashflow(claims, path, t, T), (t, T)
    assert benchmarked_cashflow(claims, path, 2.0, 2.0) == 0.0
