"""Portfolio simulation: sampling laws, records, observable state."""
import dataclasses
import math
import time

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
    SchemaError,
    TimeGrid,
    VisibleClaim,
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
    _DRAW_PIECE,
    _crossing_times,
    _draw_developments,
    _invert_gamma_rows,
    _lower_bound,
    _lower_gamma,
    _lower_gamma_quadrature,
)
from claimflow.intensity import MAX_RATE, hazard_knots, trapezoid_hazard
from claimflow._rng import policy_stream


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


@pytest.mark.parametrize("n_nodes, rate", [(2, None), (37, None), (731, None), (731, 1e4), (731, 0.0)],
                         ids=["2", "37", "731", "stiff", "all-zero"])
def test_invert_gamma_rows_shared_hazard_matches_scalar_inverter(n_nodes, rate):
    # One hazard shared by every threshold: the record simulator's case.
    # Random increments with flat stretches, or a constant rate: stiff
    # (mu = 1e4) or zero everywhere.  Thresholds at 0, at every node, at
    # Gamma_T, one ulp above it and beyond it.
    rng = np.random.default_rng(12)
    grid = TimeGrid.regular(2.0, step=2.0 / (n_nodes - 1))
    increments = rng.exponential(0.1, size=n_nodes - 1)
    increments[rng.random(n_nodes - 1) < 0.2] = 0.0  # flat stretches
    increments[0] = 0.0                               # flat from the start
    gamma = np.zeros(n_nodes)
    np.cumsum(increments, out=gamma[1:])
    if rate is not None:
        gamma = trapezoid_hazard(grid, np.full(n_nodes, rate))
    path = IntensityPath(grid=grid, mu=np.zeros(n_nodes), gamma=gamma)
    e = rng.uniform(0.0, 1.3 * gamma[-1], size=200)
    e[:4] = (gamma[-1] * 1.01 + 1e-9, gamma[-1], gamma[n_nodes // 2], 0.0)
    e = np.concatenate([e, gamma, [np.nextafter(gamma[-1], np.inf)]])
    out = _invert_gamma_rows(gamma, grid.points, e)
    expected = np.array([invert_hazard(path, float(x)) for x in e])
    assert np.isinf(out[0])
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("n_nodes", [2, 37, 731])
def test_shared_hazard_search_matches_searchsorted(n_nodes):
    # The per-row branch's branchless lower bound finds searchsorted's
    # indices, which the one-hazard branch uses; times equal the crossing
    # times at those indices, for thresholds at 0, exactly at node values
    # (flat stretches included) and beyond the last node, in any threshold
    # shape.
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



def _reference_crossing_times(flat, points, e, idx, flat_idx):
    """``_crossing_times`` by a masked divide and ``np.where``: the bits
    that its in-place passes must keep."""
    lo, hi = flat.take(flat_idx - 1, mode="clip"), flat.take(flat_idx, mode="clip")
    t_lo, t_hi = points.take(idx - 1, mode="clip"), points.take(idx, mode="clip")
    den = hi - lo
    frac = np.zeros(den.shape)
    np.divide(e - lo, den, out=frac, where=den > 0.0)
    return np.where(idx < len(points), t_lo + frac * (t_hi - t_lo), np.inf)


@pytest.mark.parametrize("n_nodes", [2, 37, 731])
def test_crossing_times_match_the_masked_divide_reference(n_nodes):
    # Byte for byte, signed zeros included: thresholds at +-0, at node
    # values (flat stretches too), between them and past the last node, on
    # one hazard and on two rows flattened, where the second row's first
    # segment runs back from the first row's last node.
    rng = np.random.default_rng(11)
    points = np.linspace(0.0, 2.0, n_nodes)
    increments = rng.exponential(0.1, size=n_nodes - 1)
    increments[rng.random(n_nodes - 1) < 0.3] = 0.0
    gamma = np.zeros(n_nodes)
    np.cumsum(increments, out=gamma[1:])
    e = np.concatenate([[0.0, -0.0], gamma, rng.uniform(0.0, 1.3 * gamma[-1], size=300),
                        [np.nextafter(gamma[-1], np.inf)]])
    idx = gamma.searchsorted(e)
    assert (_crossing_times(gamma, points, e, idx, idx).tobytes()
            == _reference_crossing_times(gamma, points, e, idx, idx).tobytes())
    # The per-row branch inverts only thresholds that its row reaches.
    hit = e[e <= gamma[-1]]
    x = np.concatenate([hit, 0.5 * hit])
    rows = np.concatenate([gamma.searchsorted(hit), (0.5 * gamma).searchsorted(0.5 * hit)])
    flat_idx = rows + np.repeat([0, n_nodes], len(hit))
    flat = np.concatenate([gamma, 0.5 * gamma])
    assert (_crossing_times(flat, points, x, rows, flat_idx).tobytes()
            == _reference_crossing_times(flat, points, x, rows, flat_idx).tobytes())

def _knot_inverse(times, gamma, x):
    """First crossing of ``x`` by the hazard linear between knots, or inf."""
    for i, g in enumerate(gamma):
        if g >= x:
            if i == 0:
                return times[0]
            return times[i - 1] + (x - gamma[i - 1]) / (g - gamma[i - 1]) * (times[i] - times[i - 1])
    return math.inf


def test_constant_rate_knots_invert_to_e_over_mu():
    mu, grid = 1.7, TimeGrid.regular(2.0)
    times, gamma = hazard_knots(ConstantIntensity(mu), grid)
    assert times.tolist() == [0.0, 2.0] and gamma.tolist() == [0.0, mu * 2.0]
    e = np.random.default_rng(4).exponential(size=(64, 9))
    e[0, :3] = (0.0, mu * 2.0 + 1e-9, 50.0)
    out = _invert_gamma_rows(gamma, times, e)
    inside = e <= gamma[-1]
    assert np.count_nonzero(~inside) > 3
    assert np.all(np.isinf(out[~inside]))
    np.testing.assert_allclose(out[inside], e[inside] / mu, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_piecewise_rate_knots_match_a_scalar_reference():
    # A breakpoint off the daily grid (0.5004), a zero-rate stretch, a
    # zero-rate last segment inside the grid and a breakpoint past its end.
    model = PiecewiseConstantIntensity(breakpoints=(0.5004, 1.0, 1.5, 3.0), rates=(0.8, 0.0, 1.3, 0.0, 2.0))
    times, gamma = hazard_knots(model, TimeGrid.regular(2.0))
    assert times.tolist() == [0.0, 0.5004, 1.0, 1.5, 2.0]
    cum, expected = 0.0, [0.0]
    for a, b, rate in zip(times, times[1:], model.rates):
        cum += rate * (b - a)
        expected.append(cum)
    assert gamma.tolist() == expected
    total = gamma[-1]
    e = np.concatenate([[0.0, gamma[1], gamma[3], total, np.nextafter(total, np.inf), 1.5 * total],
                        np.random.default_rng(8).uniform(0.0, 1.2 * total, size=300)])
    out = _invert_gamma_rows(gamma, times, e)
    assert out.tolist() == [_knot_inverse(times, gamma, x) for x in e]
    assert out[:6].tolist() == [0.0, 0.5004, 1.5, 1.5, math.inf, math.inf]
    assert _invert_gamma_rows(gamma, times, np.array([0.8 * 0.5004 + 1.3 * 0.25]))[0] == pytest.approx(1.25)


def test_overflowed_hazard_inverts_warning_free():
    # The largest rate over 1e9 years overflows Gamma to inf, at knots and
    # on a grid.  Under filterwarnings = error the inversion still matches
    # the scalar reference and gives every finite threshold a finite time.
    e = np.array([0.0, 0.25, 0.5, 1.0, 1e300])
    for model in (ConstantIntensity(MAX_RATE),
                  PiecewiseConstantIntensity(breakpoints=(0.5,), rates=(1.0, MAX_RATE))):
        times, gamma = hazard_knots(model, TimeGrid.regular(1e9, step=1e8))
        assert gamma[-1] == math.inf
        out = _invert_gamma_rows(gamma, times, e)
        assert out.tolist() == [_knot_inverse(times, gamma, x) for x in e]
    assert out.tolist() == [0.0, 0.25, 0.5, 0.5, 0.5]
    grid = TimeGrid.regular(2.0)
    gamma = np.full(731, np.inf)
    gamma[:3] = (0.0, 0.0, 1.0)
    out = _invert_gamma_rows(gamma, grid.points, e)
    assert np.all(np.isfinite(out))
    assert out.tolist() == [0.0, grid.points[1] + 0.25 * grid.step, grid.points[1] + 0.5 * grid.step,
                            grid.points[2], grid.points[2]]


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


@pytest.mark.parametrize("density", [ExponentialDelay(2.0), GammaDelay(2.0, 3.0)], ids=["exponential", "gamma"])
@pytest.mark.parametrize("alpha0", [0.0, 0.3])
def test_delay_add_to_matches_the_one_array_draw(density, alpha0):
    # Three pieces and a part of (paths, policies) report times, some inf,
    # against the one-array draw the oracle made before: every uniform,
    # then every magnitude, added where the uniform is not below alpha0.
    law = DelayLaw(alpha0=alpha0, density=density)
    shape = (5, 3 * _DRAW_PIECE // 5 + 9)
    base = np.random.default_rng(1).uniform(0.0, 2.0, size=shape)
    base.ravel()[::9] = np.inf
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    out = base.copy()
    law.add_to(rng, out)
    if alpha0 == 0.0:
        delays = density.sample(ref, size=shape)
    else:
        zero = ref.random(shape) < alpha0
        delays = np.where(zero, 0.0, density.sample(ref, size=shape))
    assert np.array_equal(out, base + delays)
    assert rng.random() == ref.random()  # the same number of draws
    with pytest.raises(ValueError):  # a strided view cannot be added into in place
        law.add_to(rng, out[:, ::2])


def test_delay_law_validation():
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=1.2, density=None)
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=1.0, density=ExponentialDelay(1.0))
    with pytest.raises(ConfigurationError):
        DelayLaw(alpha0=0.5, density=None)
    with pytest.raises(ConfigurationError):
        GammaDelay(shape=0.5, rate=1.0)


@pytest.mark.parametrize("make, field", [
    (lambda v: ExponentialDelay(rate=v), "rate"),
    (lambda v: GammaDelay(shape=2.0, rate=v), "rate"),
    (lambda v: GammaDelay(shape=v, rate=1.0), "shape"),
], ids=["exponential-rate", "gamma-rate", "gamma-shape"])
def test_delay_densities_refuse_non_finite_parameters(make, field):
    # Accepted, an infinite rate read pdf(0) = NaN and an infinite shape cdf NaN.
    for value in (math.inf, math.nan):
        with pytest.raises(SchemaError) as err:
            make(value)
        assert err.value.field == field


@pytest.mark.parametrize("density", [
    ExponentialDelay(rate=1e308), GammaDelay(shape=1.0, rate=1e308), GammaDelay(shape=2.3, rate=1e308),
], ids=["exponential", "gamma-1", "gamma-2.3"])
def test_delay_densities_saturate_at_huge_rates_without_warning(density):
    # rate * x overflows to inf past x = 1.8; that is a cdf of 1 and a pdf of 0.
    x = np.array([-1.0, 0.0, 1.0, 2.0, 1e300])
    assert np.array_equal(density.cdf(x), [0.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(density.pdf(x)[2:], [0.0, 0.0, 0.0])


def test_delay_cdf_is_proper():
    law = DelayLaw(alpha0=0.25, density=GammaDelay(shape=2.0, rate=3.0))
    xs = np.linspace(0.0, 20.0, 200)
    values = law.cdf(xs)
    assert values[0] == pytest.approx(0.25)
    assert np.all(np.diff(values) >= -1e-15)
    assert values[-1] == pytest.approx(1.0, abs=1e-6)


_GAMMA_SHAPES = [1.0, 1.5, 2.3, 3.0, 10.0, 47.3, 100.0]


@pytest.mark.parametrize("shape", _GAMMA_SHAPES)
def test_gamma_delay_agrees_with_scipy_stats(shape):
    # From 0 to past the 1e-300 quantile.  The cdf is within 4e-15 absolute:
    # against a 40-digit reference ours stays within 7e-16, while scipy's
    # gammainc is up to 3.2e-15 off near x = shape at shape 1.5.  Both
    # densities exponentiate a log-density whose terms (shape - 1) log y, y
    # and log Gamma(shape) are each rounded, so they agree to 32 ulp plus
    # four roundings of those terms' magnitudes.
    rate = 2.7
    law = GammaDelay(shape=shape, rate=rate)
    ref = stats.gamma(a=shape, scale=1.0 / rate)
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-10],
                        np.linspace(1e-6, 1.2 * ref.isf(1e-300), 20001)])
    np.testing.assert_allclose(law.cdf(x), ref.cdf(x), rtol=0.0, atol=4e-15)
    y = rate * x
    pdf, expected = law.pdf(x), ref.pdf(x)
    normal = (expected > np.finfo(float).tiny) & (y > 0.0)
    magnitude = ((shape - 1.0) * (1.0 + np.abs(np.log(y[normal]))) + y[normal]
                 + abs(math.lgamma(shape)))
    eps = np.finfo(float).eps
    assert np.all(np.abs(pdf[normal] - expected[normal])
                  <= eps * (32.0 + 4.0 * magnitude) * expected[normal])
    assert np.all(np.abs(pdf[~normal] - expected[~normal]) <= np.finfo(float).tiny)
    negative = np.array([-1e-300, -0.5, -7.0, -np.inf])
    np.testing.assert_array_equal(law.cdf(negative), 0.0)
    np.testing.assert_array_equal(law.pdf(negative), 0.0)
    assert law.pdf(0.0) == ref.pdf(0.0)  # 2.7 at shape 1, else 0
    assert law.cdf(np.inf) == 1.0


@pytest.mark.parametrize("rate", [2.7, 0.3])
def test_gamma_delay_closed_forms(rate):
    x = np.linspace(0.0, 40.0 / rate, 20001)
    y = rate * x
    # Shape 1 is the exponential delay, bit for bit.
    exponential = ExponentialDelay(rate)
    np.testing.assert_array_equal(GammaDelay(shape=1.0, rate=rate).cdf(x), exponential.cdf(x))
    np.testing.assert_array_equal(GammaDelay(shape=1.0, rate=rate).pdf(x), exponential.pdf(x))
    # Integer shapes: the Erlang cdf 1 - e^-y sum_{k<n} y^k / k!, whose own n
    # terms round to about n ulps.
    for n in (2, 3, 10):
        term = np.ones_like(y)
        total = np.ones_like(y)
        for k in range(1, n):
            term = term * y / k
            total = total + term
        erlang = 1.0 - np.exp(-y) * total
        np.testing.assert_allclose(GammaDelay(shape=float(n), rate=rate).cdf(x), erlang,
                                   rtol=0.0, atol=2e-15)
    # Shape 3/2: erf(sqrt y) - 2 sqrt(y / pi) e^-y.
    half = np.array([math.erf(math.sqrt(v)) for v in y]) - 2.0 * np.sqrt(y / math.pi) * np.exp(-y)
    np.testing.assert_allclose(GammaDelay(shape=1.5, rate=rate).cdf(x), half, rtol=0.0, atol=1e-15)
    for shape in _GAMMA_SHAPES:
        cdf = GammaDelay(shape=shape, rate=rate).cdf(x)
        assert np.all(np.diff(cdf) >= 0.0)


def test_gamma_delay_large_shapes():
    # Shape 1e6 runs the series and the continued fraction, about 10 sqrt(1e6)
    # steps near its mean; larger shapes run the fixed 32-point quadrature.
    # P(a, a) = 1/2 + 1/(3 sqrt(2 pi a)) + O(a^-3/2).
    for shape in (1e6, 1e12):
        sd = math.sqrt(shape)
        x = np.concatenate([[0.0, 1.0, 0.5 * shape],
                            np.linspace(shape - 12.0 * sd, shape + 12.0 * sd, 4001),
                            [2.0 * shape, np.inf]])
        law = GammaDelay(shape=shape, rate=1.0)
        start = time.perf_counter()
        cdf = law.cdf(x)
        pdf = law.pdf(x)
        assert time.perf_counter() - start < 1.0
        assert cdf[0] == 0.0 and cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert law.cdf(shape) == pytest.approx(0.5 + 1.0 / (3.0 * math.sqrt(2.0 * math.pi * shape)),
                                               abs=1e-10)
        assert np.max(pdf) * sd == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-5)
    # The quadrature agrees with the series and the continued fraction at
    # 1e6, where P itself moves by about 5e-14 across one ulp of x.
    shape = 1e6
    x = np.linspace(shape - 12e3, shape + 12e3, 4001)
    np.testing.assert_allclose(_lower_gamma_quadrature(shape, x), _lower_gamma(shape, x),
                               rtol=0.0, atol=1e-13)
    # The largest shape taken, 2^53, still reads P(a, a) to its change across
    # one ulp of x there (about 8e-9); past it the law is refused.
    shape = 2.0 ** 53
    assert GammaDelay(shape=shape, rate=1.0).cdf(shape) == pytest.approx(
        0.5 + 1.0 / (3.0 * math.sqrt(2.0 * math.pi * shape)), abs=1e-9)
    for bad in (np.nextafter(shape, np.inf), 1e300):
        with pytest.raises(SchemaError, match="shape"):
            GammaDelay(shape=bad, rate=1.0)


# ---------------------------------------------------------------------------
# Development process
# ---------------------------------------------------------------------------

def test_development_zero_rate_is_empty():
    law = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    assert sample_development(law, 3.0, seed=1) == ()


@pytest.mark.parametrize("horizon", [-1.0, math.inf, math.nan])
def test_development_refuses_a_horizon_not_finite_and_nonnegative(horizon):
    # A NaN or infinite horizon reached numpy's Poisson sampler, whose
    # ValueError ("lam < 0 or lam is NaN", "lam value too large") named no bound.
    law = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=1.0))
    with pytest.raises(ConfigurationError, match="horizon"):
        sample_development(law, horizon, seed=1)


def _array_developments(law, horizon, rng):
    """The development draw in its earlier array form, kept as the reference
    for the scalar draw: a Poisson count, the sorted offsets, then the marks."""
    if horizon == 0.0 or law.rate == 0.0:
        return ()
    count = rng.poisson(law.rate * horizon)
    if count == 0:
        return ()
    offsets = np.sort((1.0 - rng.random(count)) * horizon)
    marks = np.atleast_1d(law.mark.sample(rng, size=count))
    return tuple((float(o), float(x)) for o, x in zip(offsets, marks))


_DEVELOPMENT_MARKS = [MarkLaw(mean=2), MarkLaw(mean=0.5, kind="exponential"),
                      MarkLaw(mean=0.5, kind="lognormal", sigma_ln=0.6)]


@pytest.mark.parametrize("mark", _DEVELOPMENT_MARKS, ids=["deterministic", "exponential", "lognormal"])
def test_scalar_development_draw_matches_the_array_reference(mark):
    # The same values, the same float type (an integer mean included) and
    # the same draws consumed: the next uniform of both streams agrees too.
    law = DevelopmentLaw(rate=2.0, mark=mark)
    counts = set()
    for i in range(400):
        horizon = (0.0, 0.01, 1.5, 3.0)[i % 4]
        scalar, array = (policy_stream(5, STREAM_DEVELOPMENT, i) for _ in range(2))
        got = _draw_developments(law, horizon, scalar)
        want = _array_developments(law, horizon, array)
        assert got == want and repr(got) == repr(want), (i, horizon)
        assert scalar.random() == array.random()
        counts.add(len(got))
    assert set(range(6)) <= counts and max(counts) > 5


def test_development_event_count_mean():
    law = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    rng = np.random.default_rng(17)
    n = 100_000
    counts = [len(sample_development(law, 3.0, rng)) for _ in range(n)]
    mean = float(np.mean(counts))
    assert abs(mean - 6.0) <= 3.0 * math.sqrt(6.0) / math.sqrt(n)


def test_lognormal_mark_draws_from_its_log_mean_outside_the_fields():
    # The log-space mean is set once per law, not per draw, and is not a
    # field: equality and hashing, which key the pricing memos, see only
    # mean, kind and sigma_ln.
    law = MarkLaw(mean=2.0, kind="lognormal", sigma_ln=0.6)
    assert [field.name for field in dataclasses.fields(MarkLaw)] == ["mean", "kind", "sigma_ln"]
    twin = MarkLaw(mean=2.0, kind="lognormal", sigma_ln=0.6)
    assert law == twin and hash(law) == hash(twin)
    assert law != dataclasses.replace(law, sigma_ln=0.5)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    mu_ln = math.log(2.0) - 0.5 * 0.6 ** 2
    assert law.sample(rng) == ref.lognormal(mu_ln, 0.6)
    assert np.array_equal(law.sample(rng, size=5), ref.lognormal(mu_ln, 0.6, size=5))


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
        direct = sample_accident_time(path, policy_stream(77, STREAM_ACCIDENT, i))
        assert claim.accident_time == direct or (math.isinf(claim.accident_time) and math.isinf(direct))


def _reference_portfolio(n, intensity, delay, first_mark, dev, horizon, seed):
    """Policy by policy, one fresh Philox generator per (purpose, policy):
    the draw layout that simulate_portfolio reproduces bit for bit."""
    records = []
    for i in range(n):
        accident = sample_accident_time(intensity, policy_stream(seed, STREAM_ACCIDENT, i))
        if math.isinf(accident):
            records.append(ClaimRecord(accident_time=math.inf))
            continue
        theta = 0.0 if delay.alpha0 == 1.0 else delay.sample(policy_stream(seed, STREAM_DELAY, i))
        report = accident + theta
        mark = (first_mark.mean if first_mark.kind == "deterministic"
                else float(first_mark.sample(policy_stream(seed, STREAM_FIRST_MARK, i))))
        devs = ()
        if dev.rate > 0.0 and report < horizon:
            devs = sample_development(dev, horizon - report, policy_stream(seed, STREAM_DEVELOPMENT, i))
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


def test_portfolio_numbers_are_pinned():
    # The per-policy Philox layout, bit for bit: a change to the keying, the
    # purposes or any law's draw order moves these on purpose.
    path = _unit_path()
    delay = DelayLaw(alpha0=0.2, density=GammaDelay(shape=2.3, rate=3.0))
    fm = MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.8)
    dev = DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="lognormal", sigma_ln=0.5))
    claims = simulate_portfolio(5, path, delay, fm, dev, horizon=2.0, seed=11)
    got = [(c.accident_time.hex(), c.report_time.hex(), c.first_mark.hex(),
            [(o.hex(), x.hex()) for o, x in c.developments]) for c in claims]
    assert got == [
        ("0x1.1fec1404968b2p+0", "0x1.d251fb9dc9774p+0", "0x1.57a8006448c34p-2", []),
        ("0x1.38977c88f157ep-1", "0x1.781f1375193dap+0", "0x1.94d0c3969f5b0p+0", []),
        ("0x1.cbede6cd25e8dp-1", "0x1.21347bea4cdefp+1", "0x1.c997574c723fap-2", []),
        ("0x1.31da81b1b6db4p-4", "0x1.7af7e37c1b08ap-1", "0x1.642c60b1f7677p-2",
         [("0x1.0bbc5719d8906p+0", "0x1.5434a1718d63ep-1"),
          ("0x1.37814f20cd6c0p+0", "0x1.3bbe7862fdd98p-2")]),
        ("0x1.de7b90ea266a1p-4", "0x1.ab4bef390bfeap+0", "0x1.c4364d4870dbfp-2",
         [("0x1.0c535056afc2cp-2", "0x1.264ae912f8eccp-1")]),
    ]


def test_claim_record_validation():
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=math.inf, delay=0.1)
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=1.0, delay=0.5, report_time=1.4, first_mark=1.0)
    with pytest.raises(ConfigurationError):
        ClaimRecord(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
                    developments=((0.3, 1.0), (0.3, 2.0)))


@pytest.mark.parametrize("fields", [
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=math.nan),
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
         developments=((0.3, 1.0), (math.nan, 1.0))),
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
         developments=((0.3, 1.0), (0.4, math.nan))),
    dict(accident_time=math.inf, report_time=0.5),
], ids=["nan-first-mark", "nan-offset", "nan-development-mark", "report-without-accident"])
def test_claim_record_refuses_nan_and_a_report_without_an_accident(fields):
    # Each was accepted: NaN passes every "< 0" and "<=" test.
    with pytest.raises(ConfigurationError):
        ClaimRecord(**fields)


@pytest.mark.parametrize("fields", [
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=math.inf),
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
         developments=((0.3, 1.0), (math.inf, 1.0))),
    dict(accident_time=1.0, delay=0.5, report_time=1.5, first_mark=1.0,
         developments=((0.3, 1.0), (0.4, math.inf))),
    dict(accident_time=-math.inf),
    dict(accident_time=-math.inf, delay=0.5, report_time=-math.inf, first_mark=1.0),
], ids=["inf-first-mark", "inf-offset", "inf-development-mark", "minus-inf-accident",
        "minus-inf-accident-reported"])
def test_claim_record_refuses_infinite_values(fields):
    # The first three were accepted: an infinite payment made a cash flow
    # of inf, and an infinite offset an event never paid.  An accident at
    # -inf was taken as one that never happens.
    with pytest.raises(ConfigurationError):
        ClaimRecord(**fields)


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


def _reference_observed_state(claims, t):
    """observed_state in its earlier form, kept as the reference: every claim
    tested for occurrence and every development against t."""
    visible = []
    for claim in claims:
        if not claim.occurred or claim.report_time > t:
            continue
        devs = tuple((o, x) for o, x in claim.developments if claim.report_time + o <= t)
        visible.append(VisibleClaim(
            accident_time=claim.accident_time,
            delay=float(claim.delay),
            report_time=claim.report_time,
            first_mark=float(claim.first_mark),
            developments=devs,
        ))
    return PortfolioState(as_of=t, n_policies=len(claims), visible=tuple(visible))


@pytest.mark.parametrize("mark", _DEVELOPMENT_MARKS, ids=["deterministic", "exponential", "lognormal"])
def test_observed_state_matches_the_reference_at_event_times(mark):
    path = _unit_path()
    delay = DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0))
    claims = simulate_portfolio(300, path, delay, mark, DevelopmentLaw(rate=3.0, mark=mark),
                                horizon=2.0, seed=13)
    developed = [c for c in claims if len(c.developments) >= 2][:3]
    assert len(developed) == 3
    # Windows that end exactly at a report or at a development time.
    times = [0.0, 0.25, 1.0, 2.0, 5.0]
    for c in developed:
        times.append(c.report_time)
        times.extend(c.report_time + o for o, _ in c.developments)
    for t in times:
        assert observed_state(claims, t) == _reference_observed_state(claims, t), t


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_observed_state_refuses_an_observation_time_not_finite(t):
    with pytest.raises(ConfigurationError, match="observation time"):
        observed_state([_sample_claim(), ClaimRecord(accident_time=math.inf)], t)


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
