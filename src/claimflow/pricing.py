"""Analytic valuation: reporting law along an intensity path and reserves.

Along a realized (or deterministic) intensity path, the probability that a
policy's first report has happened by t is

    p(t) = integral_0^t G(t - s) exp(-Gamma_s) mu_s ds,

where G is the delay distribution.  Its time derivative is

    p'(t) = alpha0 * exp(-Gamma_t) mu_t
            + integral_0^t g(t - u) exp(-Gamma_u) mu_u du,

with g the weighted delay density.  The reserve of a homogeneous book with
R reported claims out of n splits into a reported part, which only accrues
expected development, and an unreported part driven by p':

    reserved   = dev_rate * mark_mean * R * (T - t)
    unreported = (n - R) * integral_t^T (E[X1] + dev_rate * mark_mean * (T-u)) p'(u) du
                 / (1 - p(t))

valid when the deflator's conditional expectation collapses to its current
value (a martingale or constant deflator) and, for a stochastic intensity,
at t = 0 with the outer expectation taken over fresh intensity paths.

Quadrature: integrals against exp(-Gamma) mu ds are computed per grid cell
as the exact exponential mass exp(-Gamma_k) - exp(-Gamma_{k+1}) times a
Simpson average of the smooth factor.  This is exact (up to rounding) when
the factor is constant, so zero-delay reporting reproduces 1 - exp(-Gamma)
to machine precision, and second-order accurate otherwise.

Arrays that depend on a path and a delay law but not on the valuation time
are built once per path: the node density p', its two suffix sums and the
half-step refined path of the Richardson estimate live in the path's
private memo (see ``IntensityPath``).  The payout is linear in u, so the
unreported integral over the whole cells of [t, T] reads those sums at the
window's ends.  Re-valuing one book at many dates on one path therefore
runs no whole-grid convolution and no whole-window sum after the first
date.  Integrating the payout by parts against the reporting cdf would
memoize the suffix sums of the grid cdf in place of the density's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .claims import DelayLaw, DevelopmentLaw, MarkLaw, PortfolioState
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    UnsupportedRegimeError,
)
from .grids import TimeGrid
from .intensity import (
    IntensityModel,
    IntensityPath,
    LogOUIntensity,
    hazard_chunks,
    is_deterministic,
    simulate_intensity_path,
    trapezoid_hazard,
)
from .market import MarketModel, MartingaleDeflator, collapses_to_spot
from ._rng import Seed, substream

# Guard for conditional denominators; below this the state is degenerate.
_MIN_SURVIVING_MASS = 1e-12

# Intensity paths per chunk of the stochastic reserve's outer average; its
# working memory is a few chunk x cells arrays, whatever the draw count.
_OUTER_CHUNK = 1024

def expected_development(dev: DevelopmentLaw, t: float) -> float:
    """Expected cumulative development paid within ``t`` years of the report.

    Linear in t for a compound Poisson development, zero for t < 0.
    """
    if t <= 0.0:
        return 0.0
    return dev.rate * dev.mark_mean * t


# ---------------------------------------------------------------------------
# Cell masses and Simpson-weighted factors
# ---------------------------------------------------------------------------

def _cell_masses(surv: np.ndarray) -> np.ndarray:
    """Exact integral of exp(-Gamma_s) dGamma_s over each grid cell, from
    the survival exp(-Gamma) at the nodes."""
    return surv[..., :-1] - surv[..., 1:]


def _stieltjes(path: IntensityPath, t: float, factor) -> float:
    """integral_0^t factor(s) exp(-Gamma_s) mu_s ds by per-cell Simpson weights.

    ``factor`` runs once, on the k + 1 nodes, the k midpoints and, when t
    ends inside a cell, that cell's midpoint and t itself.
    """
    points = path.grid.points
    k, frac = path.grid.locate(t)
    if frac == 1.0:
        k, frac = k + 1, 0.0
    nodes = points[: k + 1]
    args = [nodes, 0.5 * (nodes[:-1] + nodes[1:])]
    if frac > 0.0:
        args.append(np.array([0.5 * (points[k] + t), t]))
    values = factor(np.concatenate(args))
    ends, mids = values[: k + 1], values[k + 1 : 2 * k + 1]
    weights = (ends[:-1] + 4.0 * mids + ends[1:]) / 6.0
    total = float(np.dot(weights, _cell_masses(np.exp(-path.gamma[: k + 1]))))
    if frac > 0.0:
        mass = math.exp(-path.gamma[k]) - math.exp(-path.hazard(t))
        w = (ends[-1] + 4.0 * values[-2] + values[-1]) / 6.0
        total += float(w) * mass
    return total


def reporting_cdf(path: IntensityPath, delay: DelayLaw, t: float) -> float:
    """P(first report by t) along the given path; bounded by 1 - exp(-Gamma_t)."""
    path.grid.require_inside(t)
    return _stieltjes(path, t, lambda s: delay.cdf(t - s))


def reporting_density(path: IntensityPath, delay: DelayLaw, t: float) -> float:
    """Time derivative of the reporting probability at ``t`` (rate, 1/years)."""
    path.grid.require_inside(t)
    atom = delay.alpha0 * path.survival(t) * path.rate(t)
    if delay.density is None:
        return atom
    return atom + _stieltjes(path, t, lambda u: delay.pdf(t - u))


def ibnr_probability(path: IntensityPath, delay: DelayLaw, t: float) -> float:
    """P(accident happened by t but is still unreported)."""
    raw = (1.0 - path.survival(t)) - reporting_cdf(path, delay, t)
    return max(raw, 0.0)


# ---------------------------------------------------------------------------
# Whole-grid evaluation
# ---------------------------------------------------------------------------

def _kernel_arrays(fn, grid: TimeGrid) -> np.ndarray:
    """w_j = Simpson average of fn over a lag of j cells, j = 1..n_cells.

    ``fn`` runs once on the n_cells + 1 node lags k*h, shared by the two
    ends of neighbouring lags, and once on the midpoints.
    """
    h = grid.step
    k = np.arange(grid.n_cells + 1)
    nodes = fn(k * h)
    return (nodes[1:] + 4.0 * fn((k[1:] - 0.5) * h) + nodes[:-1]) / 6.0


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.convolve(a, b)`` for nonnegative ``a`` and ``b``, in O(n log n).

    Both factors are zero-padded to a power of two at least as long as the
    full convolution, so the circular product is the linear one.  Entries
    differ from the direct sum by rounding relative to the largest entry,
    not to each entry; since the exact result is nonnegative, rounding
    below zero is clamped away.
    """
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    return np.maximum(out, 0.0)


def _convolve_masses(masses: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i] = sum_{k < i} masses[k] * kernel[i - k - 1], out[0] = 0."""
    out = np.zeros(len(masses) + 1)
    out[1:] = _fft_convolve(masses, kernel)[: len(masses)]
    return out


@dataclass(frozen=True)
class ReportingCurve:
    """Reporting probability and its density on every grid node."""

    grid: TimeGrid
    cdf: np.ndarray = field(repr=False, compare=False)
    density: np.ndarray = field(repr=False, compare=False)
    survival: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.cdf) < -1e-12):
            raise ConfigurationError("reporting probability must be nondecreasing")

    @property
    def ibnr(self) -> np.ndarray:
        return np.maximum((1.0 - self.survival) - self.cdf, 0.0)


class _NodeDensity(NamedTuple):
    """One path's memo entry for one delay law; every array is read-only.

    ``tail`` and ``tail_lag`` are suffix sums with a trailing 0, so the sum
    over nodes i..j is ``tail[i] - tail[j + 1]``.
    """

    density: np.ndarray   # p'(u_i) on every grid node
    tail: np.ndarray      # sum_{j >= i} p'(u_j)
    tail_lag: np.ndarray  # sum_{j >= i} (t_end - u_j) p'(u_j)


def _tail_sums(x: np.ndarray) -> np.ndarray:
    """S[i] = sum_{j >= i} x[j] for i = 0..len(x); S[len(x)] = 0."""
    out = np.zeros(len(x) + 1)
    out[:-1] = np.cumsum(x[::-1])[::-1]
    return out


def _node_density(path: IntensityPath, delay: DelayLaw) -> _NodeDensity:
    """p' on every grid node and its tail sums, built once per path and delay law.

    The memo entry lives on the path (see ``IntensityPath``), keyed by the
    delay law's value; threads that fill it at once compute the same bits.
    """
    key = ("density", delay)
    entry = path._memo.get(key)
    if entry is None:
        grid = path.grid
        surv = np.exp(-path.gamma)
        density = delay.alpha0 * surv * path.mu
        if delay.density is not None:
            density = density + _convolve_masses(_cell_masses(surv), _kernel_arrays(delay.pdf, grid))
        entry = _NodeDensity(density, _tail_sums(density),
                             _tail_sums((grid.t_end - grid.points) * density))
        for array in entry:
            array.flags.writeable = False
        path._memo[key] = entry
    return entry


def reporting_curve(path: IntensityPath, delay: DelayLaw) -> ReportingCurve:
    """Evaluate the reporting law on the whole grid in one pass.

    The density is the path's memoized node density, shared and read-only.
    """
    surv = np.exp(-path.gamma)
    cdf = _convolve_masses(_cell_masses(surv), _kernel_arrays(delay.cdf, path.grid))
    return ReportingCurve(grid=path.grid, cdf=cdf, density=_node_density(path, delay).density,
                          survival=surv)


# ---------------------------------------------------------------------------
# Reserve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReserveResult:
    """Reserve split into reported and unreported components (real units)."""

    as_of: float
    horizon: float
    reported_component: float
    unreported_component: float
    total: float
    diagnostics: dict

    def __post_init__(self) -> None:
        if self.reported_component < 0.0 or self.unreported_component < 0.0:
            raise ConfigurationError("reserve components must be >= 0")
        if not math.isclose(self.total, self.reported_component + self.unreported_component,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ConfigurationError("total must equal the sum of its components")


def _unreported_integrand_weights(grid: TimeGrid, i_T: int,
                                  first_mark: MarkLaw, dev: DevelopmentLaw) -> np.ndarray:
    """Trapezoid weights on [0, T] times (E[X1] + expected development to T) per node."""
    c = np.zeros(grid.n_cells + 1)
    u = grid.points[: i_T + 1]
    psi = first_mark.mean + dev.rate * dev.mark_mean * (grid.points[i_T] - u)
    w = np.full(len(u), grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    c[: i_T + 1] = w * psi
    return c


def _refined(path: IntensityPath) -> IntensityPath:
    """The same path at half the step, filling midpoints by interpolation.

    Linear interpolation is the declared between-node behaviour of a
    realized path, so the refined path shares the original's continuum
    limit (and its hazard at the original nodes, exactly).  It is built
    once per path and memoized on it, so its own node densities are too.
    """
    fine = path._memo.get("refined")
    if fine is None:
        grid = path.grid
        n = grid.n_cells
        fine_grid = TimeGrid(t0=grid.t0, t_end=grid.t_end, step=0.5 * grid.step,
                             points=np.linspace(grid.t0, grid.t_end, 2 * n + 1))
        mu = np.empty(2 * n + 1)
        mu[0::2] = path.mu
        mu[1::2] = 0.5 * (path.mu[:-1] + path.mu[1:])
        fine = IntensityPath(grid=fine_grid, mu=mu, gamma=trapezoid_hazard(fine_grid, mu))
        path._memo["refined"] = fine
    return fine


def _payout_integral(path: IntensityPath, delay: DelayLaw, first_mark: MarkLaw,
                     dev: DevelopmentLaw, t: float, T: float) -> float:
    """Trapezoid of (E[X1] + expected development to T) * p'(u) over [t, T].

    The payout psi(u) = E[X1] + c (T - u) is linear in u, so over the whole
    cells of the window the trapezoid reads the memoized tail sums of p' at
    the window's two end nodes: O(1) once the path's entry is filled.  The
    sums round relative to the tail from the first node, which equals the
    window's own sum when T is the grid's end.  Endpoints need not sit on
    grid nodes; partial end cells use pointwise density evaluations.
    """
    grid = path.grid
    c = dev.rate * dev.mark_mean

    def psi(u):
        return first_mark.mean + c * (T - u)

    i_lo = int(math.ceil((t - grid.t0) / grid.step - 1e-12))
    i_hi = int(math.floor((T - grid.t0) / grid.step + 1e-12))
    i_lo = min(max(i_lo, 0), grid.n_cells)
    i_hi = min(max(i_hi, 0), grid.n_cells)
    if i_lo > i_hi:
        # whole window inside one cell
        d_t = reporting_density(path, delay, t)
        d_T = reporting_density(path, delay, T)
        return 0.5 * (psi(t) * d_t + psi(T) * d_T) * (T - t)
    entry = _node_density(path, delay)
    u_lo, u_hi = float(grid.points[i_lo]), float(grid.points[i_hi])
    v_lo = psi(u_lo) * float(entry.density[i_lo])
    v_hi = psi(u_hi) * float(entry.density[i_hi])
    total = 0.0
    if i_hi > i_lo:
        # psi(u) = a + c (t_end - u), so sum_{i_lo..i_hi} psi p' = a dS0 + c dS1.
        a = first_mark.mean + c * (T - grid.t_end)
        s0 = float(entry.tail[i_lo] - entry.tail[i_hi + 1])
        s1 = float(entry.tail_lag[i_lo] - entry.tail_lag[i_hi + 1])
        total = grid.step * (a * s0 + c * s1 - 0.5 * (v_lo + v_hi))
    left_gap = u_lo - t
    if left_gap > 1e-12 * grid.step:
        d_t = reporting_density(path, delay, t)
        total += 0.5 * (psi(t) * d_t + v_lo) * left_gap
    right_gap = T - u_hi
    if right_gap > 1e-12 * grid.step:
        d_T = reporting_density(path, delay, T)
        total += 0.5 * (v_hi + psi(T) * d_T) * right_gap
    return total


def _bracket_functional(c: np.ndarray, delay: DelayLaw, grid: TimeGrid) -> np.ndarray:
    """Precompute the linear functional taking a path to its payout integral.

    Returns q with

        integral = sum_k masses[k] * q[k] + alpha0 * sum_i c[i] * surv[i] * mu[i]

    equal to the trapezoid of c_i * density_i over the grid.  The atom term
    weighs by c itself; q folds the delay kernel in once, so evaluating
    many intensity paths costs two dot products each.
    """
    n = grid.n_cells
    if delay.density is None:
        q = np.zeros(n)
    else:
        # q[k] = sum_j c[k + j] * kernel[j]: a convolution with the kernel reversed.
        kernel = np.concatenate([[0.0], _kernel_arrays(delay.pdf, grid)])
        q = _fft_convolve(c, kernel[::-1])[n : 2 * n]
    return q


def reserve(
    state: PortfolioState,
    intensity: IntensityPath | IntensityModel,
    delay: DelayLaw,
    first_mark: MarkLaw,
    dev: DevelopmentLaw,
    T: float,
    *,
    market: MarketModel | None = None,
    grid: TimeGrid | None = None,
    intensity_draws: int = 8192,
    seed: Seed = 0,
) -> ReserveResult:
    """Closed-quadrature reserve of the remaining payments in (t, T].

    ``state`` fixes the valuation time t and the reported count R.  The
    deflator cancels out of the result in the supported regime, so
    ``market`` is used for validation only: it must be a martingale
    deflator uncorrelated with the intensity, or a constant deterministic
    one.  ``intensity`` is a realized path or a model; a deterministic
    model is realized on ``grid`` (default: daily up to T).  A stochastic
    model is supported at t = 0 only, where the outer average over
    intensity paths is estimated from ``intensity_draws`` fresh draws and
    its standard error lands in the diagnostics.  The draws come from one
    generator ``_OUTER_CHUNK`` paths at a time and each chunk is reduced to
    its payout brackets before the next is drawn, so memory stays at a few
    chunk x cells arrays and the result equals a one-pass average bit for
    bit.  Other regimes raise UnsupportedRegimeError; the Monte Carlo oracle
    prices all of them but a stochastic model at t > 0.
    """
    t = state.as_of
    n = state.n_policies
    reported = state.reported_count
    if t > T:
        raise ConfigurationError(f"valuation time {t} exceeds horizon {T}")
    if market is not None:
        if isinstance(market, MartingaleDeflator) and market.corr_with_intensity != 0.0:
            raise UnsupportedRegimeError(
                "deflator correlated with the intensity: the conditional expectation "
                "does not factorize; use the Monte Carlo oracle (mc_reserve / --mc-only)")
        if not collapses_to_spot(market):
            raise UnsupportedRegimeError(
                "time-varying deterministic deflator is not a martingale; "
                "use the Monte Carlo oracle (mc_reserve / --mc-only)")

    stochastic = False
    intensity_model: IntensityModel | None = None
    if isinstance(intensity, IntensityPath):
        path: IntensityPath | None = intensity
        grid = intensity.grid
    else:
        intensity_model = intensity
        if grid is None:
            grid = TimeGrid.regular(T)
        stochastic = not is_deterministic(intensity_model)
        path = None if stochastic else simulate_intensity_path(intensity_model, grid)

    grid.require_inside(t)
    grid.require_inside(T)

    reported_component = dev.rate * dev.mark_mean * reported * (T - t)
    diagnostics = {
        "quadrature_step": grid.step,
        "intensity_draws": 0,
        "outer_std_error": 0.0,
    }

    if not stochastic:
        p_t = reporting_cdf(path, delay, t)
        diagnostics["reporting_cdf_at_t"] = p_t
        unreported_count = n - reported
        if unreported_count == 0:
            unreported = 0.0
        else:
            surviving = 1.0 - p_t
            if surviving < _MIN_SURVIVING_MASS:
                raise DegenerateStateError(
                    "reporting is essentially certain by the valuation time; "
                    "no surviving mass to condition on (expected reported count = n)")
            integral = _payout_integral(path, delay, first_mark, dev, t, T)
            unreported = unreported_count * integral / surviving
            # Richardson estimate: with a second-order scheme the half-step
            # value closes three quarters of the gap to the limit.
            fine = _refined(path)
            fine_integral = _payout_integral(fine, delay, first_mark, dev, t, T)
            diagnostics["unreported_error_estimate"] = (
                unreported_count * (4.0 / 3.0) * abs(integral - fine_integral) / surviving)
        total = reported_component + unreported
        return ReserveResult(as_of=t, horizon=T, reported_component=reported_component,
                             unreported_component=unreported, total=total,
                             diagnostics=diagnostics)

    # Stochastic intensity: average the payout integral over fresh paths.
    if t != 0.0:
        raise UnsupportedRegimeError(
            "stochastic intensity is priced at t = 0 only: neither the closed form "
            "nor the Monte Carlo oracle conditions on a partial intensity history")
    if reported != 0:
        raise ConfigurationError("no claim can already be reported at time zero")
    assert isinstance(intensity_model, LogOUIntensity)
    if intensity_draws < 2:
        raise ConfigurationError("need at least 2 intensity draws")
    i_T = grid.node_index(T, what="horizon")
    c = _unreported_integrand_weights(grid, i_T, first_mark, dev)
    q = _bracket_functional(c, delay, grid)
    rng = substream(seed, 0x1A7E)
    brackets = np.empty(intensity_draws)
    for start in range(0, intensity_draws, _OUTER_CHUNK):
        rows = min(_OUTER_CHUNK, intensity_draws - start)
        levels = intensity_model.log_levels(grid, rng.standard_normal((rows, grid.n_cells)))
        for part, mu, gamma in hazard_chunks(grid, levels):
            surv = np.exp(-gamma)
            chunk = _cell_masses(surv) @ q
            if delay.alpha0 > 0.0:
                chunk = chunk + delay.alpha0 * ((surv * mu) @ c)
            brackets[start + part.start : start + part.stop] = chunk
    mean_bracket = float(np.mean(brackets))
    se_bracket = float(np.std(brackets, ddof=1) / math.sqrt(intensity_draws))
    unreported = n * mean_bracket
    diagnostics["intensity_draws"] = int(intensity_draws)
    diagnostics["outer_std_error"] = n * se_bracket
    total = reported_component + unreported
    return ReserveResult(as_of=t, horizon=T, reported_component=reported_component,
                         unreported_component=unreported, total=total,
                         diagnostics=diagnostics)
