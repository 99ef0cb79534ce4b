"""An exact reserve for a piecewise-constant rate, as a reference for both legs.

With a rate that is constant on each piece, the delay
G(x) = 1 - (1 - alpha0) exp(-lam x), a constant deflator and compound
Poisson development (c = rate x mark mean a year), the reporting
probability and its integral have closed forms:

* F(t) = 1 - exp(-Gamma(t)) and J(t) = int_0^t exp(-lam (t - s)) dF(s), one
  exponential integral per piece, give p(t) = F(t) - (1 - alpha0) J(t);
* J' = -lam J + F', so by Fubini int_0^t J = (F(t) - J(t)) / lam and
  int_0^t p = t - int_0^t exp(-Gamma) - (1 - alpha0) (F(t) - J(t)) / lam.

A policy reported at u pays psi(u) = E[X1] + c (T - u), so by parts the
reserve given R of n policies reported at t is
c R (T - t) + (n - R) [psi(T) p(T) - psi(t) p(t) + c int_t^T p] / (1 - p(t)).
"""
import math

import pytest

from claimflow import (
    ConstantIntensity,
    DelayLaw,
    DeterministicDeflator,
    DevelopmentLaw,
    ExponentialDelay,
    MarkLaw,
    McConfig,
    PiecewiseConstantIntensity,
    PortfolioState,
    TimeGrid,
    mc_reserve,
    reserve,
)
from claimflow.mc import Z_THRESHOLD

#: configs/example.json's laws: alpha0 0.2, delay rate 2, unit first mark,
#: development at rate 1.5 with mean 0.5, eight policies to T = 2.
ALPHA0, LAM, FIRST_MEAN, DEV_RATE, DEV_MEAN, N, T = 0.2, 2.0, 1.0, 1.5, 0.5, 8, 2.0


def _pieces(breakpoints, rates, t):
    """(length, rate) of each piece of [0, t]."""
    edges = [0.0, *(b for b in breakpoints if b < t), t]
    return [(b - a, r) for a, b, r in zip(edges, edges[1:], rates)]


def _exact_state(breakpoints, rates, t):
    """p(t) and int_0^t p(u) du."""
    gamma = j = survival_integral = 0.0
    for length, rate in _pieces(breakpoints, rates, t):
        decay = math.exp(-LAM * length)
        # int_0^L exp(-lam (L - x) - rate x) dx, by expm1 where lam is near the rate.
        gap = abs(LAM - rate)
        kernel = (length * decay if gap == 0.0 else
                  math.exp(-min(LAM, rate) * length) * -math.expm1(-gap * length) / gap)
        j = decay * j + rate * math.exp(-gamma) * kernel
        survival_integral += math.exp(-gamma) * (length if rate == 0.0 else -math.expm1(-rate * length) / rate)
        gamma += rate * length
    f = -math.expm1(-gamma)
    p = f - (1.0 - ALPHA0) * j
    return p, t - survival_integral - (1.0 - ALPHA0) * (f - j) / LAM


def exact_reserve(breakpoints, rates, t=0.0, reported=0):
    """The reserve of the example's book under the piecewise rate, valued at t."""
    c = DEV_RATE * DEV_MEAN
    p_t, int_t = _exact_state(breakpoints, rates, t)
    p_T, int_T = _exact_state(breakpoints, rates, T)
    unreported = FIRST_MEAN * (p_T - p_t) - c * (T - t) * p_t + c * (int_T - int_t)
    return c * reported * (T - t) + (N - reported) * unreported / (1.0 - p_t)


def _laws():
    return (DelayLaw(alpha0=ALPHA0, density=ExponentialDelay(LAM)),
            MarkLaw(mean=FIRST_MEAN, kind="exponential"),
            DevelopmentLaw(rate=DEV_RATE, mark=MarkLaw(mean=DEV_MEAN, kind="exponential")))


@pytest.mark.parametrize("breakpoints, rates, t, reported, expected", [
    ((), (1.0,), 0.0, 0, 11.186055535903),
    ((), (1.0,), 0.5, 2, 9.280313062202),
    ((1.0,), (0.8, 1.2), 0.0, 0, 10.581651453385),
    ((1.0,), (0.8, 1.2), 0.5, 2, 9.013123435982),
    # A rate equal to the delay's, and one a rounding away from it.
    ((0.5,), (2.0, 1.0), 0.0, 0, None),
], ids=["constant", "constant-at-half", "piecewise", "piecewise-at-half", "rate-at-lam"])
def test_exact_reserve_values(breakpoints, rates, t, reported, expected):
    value = exact_reserve(breakpoints, rates, t, reported)
    if expected is not None:
        assert value == pytest.approx(expected, abs=5e-12)
    else:
        near = exact_reserve(breakpoints, (math.nextafter(2.0, 3.0), 1.0), t, reported)
        assert value == pytest.approx(near, rel=1e-14)


def test_analytic_reserve_is_second_order_against_the_exact_value():
    # Constant rate 1 at t = 0: errors -7.935e-6, -1.984e-6 and -4.959e-7.
    exact = exact_reserve((), (1.0,))
    delay, first_mark, development = _laws()
    state = PortfolioState.from_counts(0.0, N, 0)
    errors = []
    for days in (365, 730, 1460):
        h = 1.0 / days
        total = reserve(state, ConstantIntensity(1.0), delay, first_mark, development, T,
                        grid=TimeGrid.regular(T, step=h)).total
        errors.append(total - exact)
        assert abs(total - exact) < 2.0 * h * h
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("intensity, breakpoints, rates, seed", [
    (ConstantIntensity(1.0), (), (1.0,), 2101),
    (PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(0.8, 1.2)), (1.0,), (0.8, 1.2), 2102),
], ids=["constant", "piecewise"])
def test_oracle_agrees_with_the_exact_reserve(intensity, breakpoints, rates, seed):
    # The oracle inverts the rate's exact hazard knots and samples delays
    # exactly, so this check shares no quadrature with the analytic leg.
    # z reads +1.56 (constant) and -1.67 (piecewise).
    delay, first_mark, development = _laws()
    estimate = mc_reserve(McConfig(n_policies=N, t=0.0, T=T, intensity=intensity, delay=delay,
                                   first_mark=first_mark, development=development,
                                   market=DeterministicDeflator(), n_paths=100_000, seed=seed))
    z = (exact_reserve(breakpoints, rates) - estimate.mean) / estimate.std_error
    assert abs(z) <= Z_THRESHOLD
