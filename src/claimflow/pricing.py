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

At grid nodes that rule is a discrete convolution: with the cell masses
m_k = exp(-Gamma_k) - exp(-Gamma_{k+1}) and K_j, the Simpson average of G
over the lags [j h, (j + 1) h], p(t_i) = sum_{k<i} m_k K_{i-1-k}.  One
Simpson rule is summed two ways: ``reporting_curve`` takes all nodes at
once by FFT, and ``reporting_cdf`` takes one node as a dot product.  Off
the nodes ``reporting_cdf`` evaluates G at t - s itself; at a node that
sum and the dot product differ by rounding only, because t_i - s_k and
(i - k) h round differently.

Arrays that depend on a path and a delay law but not on the valuation time
are built once per path: the cell masses and cdf kernel, the node density
p', its two suffix sums and the path on its even nodes, with its own node
density, live in the path's private memo (see ``IntensityPath``).  The
payout is linear in u, so the unreported integral over the whole cells of
[t, T] reads those sums at the window's ends.  Re-valuing one book at many
node dates on one path therefore runs no delay-law evaluation, no
whole-grid convolution and no whole-window sum after the first date.  What
is left of a warm node-date valuation is memo reads, the one dot product
and some fifty float operations, so its cost is interpreter overhead:
``reporting_cdf``, ``_payout_integral`` and the deterministic ``reserve``
read each memo entry with one dict lookup and each array scalar with
``ndarray.item``, and do their arithmetic on Python floats.  Both kinds of
float are IEEE doubles, so the same operations in the same order give the
same bits, and an operation on Python floats costs a fraction of one on
numpy scalars.  Integrating the payout by parts against the reporting
cdf would memoize the suffix sums of the grid cdf in place of the
density's.

A gamma delay's G is the regularized incomplete gamma function, computed
in numpy (``claims.GammaDelay``; no scipy import).  For shapes 1 to 100
it is within 4e-15 absolute of ``scipy.stats.gamma``, most of which is
scipy's own error near x = shape.
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
    SchemaError,
    UnsupportedRegimeError,
)
from .grids import TimeGrid
from .intensity import (
    IntensityModel,
    IntensityPath,
    LogOUIntensity,
    draw_hazard_chunks,
    is_deterministic,
    simulate_intensity_path,
)
from .market import MarketModel, collapses_to_spot, correlated_with_intensity
from ._rng import Seed, substream

# Guard for conditional denominators; below this the state is degenerate.
_MIN_SURVIVING_MASS = 1e-12

#: Stochastic-reserve draws whose Richardson gap I_h - I_2h is also bracketed.
_ESTIMATE_DRAWS = 1024

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
    """P(first report by t) along the given path; bounded by 1 - exp(-Gamma_t).

    At a grid node t_i (``t`` equal to ``grid.points[i]``, bit for bit) the
    Simpson rule of ``_stieltjes`` is sum_{k<i} masses[k] * K[i-1-k], one
    dot product of the path's memoized cell masses and cdf kernel, with no
    delay-law call once they are built.  Any other ``t`` runs
    ``_stieltjes``, a t one ulp off a node included.
    """
    grid = path.grid
    grid.require_inside(t)
    points = grid.points
    i = int(round((t - grid.t0) / grid.step))
    if i >= len(points):
        i = len(points) - 1
    if points.item(i) != t:
        return _stieltjes(path, t, lambda s: delay.cdf(t - s))
    if i == 0:
        return 0.0
    masses, kernel = path._memo.get(("cdf", delay)) or _cdf_kernel(path, delay)
    return float(np.dot(masses[:i], kernel[i - 1 :: -1]))


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


class _CdfKernel(NamedTuple):
    """One path's memo entry for one delay law's cdf; both arrays are read-only."""

    masses: np.ndarray  # exp(-Gamma_k) - exp(-Gamma_{k+1}) per cell
    kernel: np.ndarray  # Simpson average of G over a lag of j cells, j = 1..n_cells


def _memoized(path: IntensityPath, key, build):
    """The path's memo entry under ``key``, a tuple of arrays that ``build``
    makes on first use and that is read-only from then on.

    The memo lives on the path (see ``IntensityPath``) and keys by value;
    threads that fill an entry at once compute the same bits.
    """
    entry = path._memo.get(key)
    if entry is None:
        entry = build()
        for array in entry:
            array.flags.writeable = False
        path._memo[key] = entry
    return entry


def _cdf_kernel(path: IntensityPath, delay: DelayLaw) -> _CdfKernel:
    """Cell masses and cdf kernel, built once per path and delay law.

    The pointwise on-node p(t) and ``reporting_curve``'s FFT read the same
    entry.
    """
    return _memoized(path, ("cdf", delay), lambda: _CdfKernel(
        _cell_masses(np.exp(-path.gamma)), _kernel_arrays(delay.cdf, path.grid)))


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
    """p' on every grid node and its tail sums, built once per path and delay law."""

    def build() -> _NodeDensity:
        grid = path.grid
        surv = np.exp(-path.gamma)
        density = delay.alpha0 * surv * path.mu
        if delay.density is not None:
            density = density + _convolve_masses(_cell_masses(surv), _kernel_arrays(delay.pdf, grid))
        return _NodeDensity(density, _tail_sums(density),
                            _tail_sums((grid.t_end - grid.points) * density))

    return _memoized(path, ("density", delay), build)


def reporting_curve(path: IntensityPath, delay: DelayLaw) -> ReportingCurve:
    """Evaluate the reporting law on the whole grid in one pass.

    The cdf convolves the path's memoized cell masses and cdf kernel, the
    arrays the on-node ``reporting_cdf`` dots; the density is the memoized
    node density, shared and read-only.
    """
    cdf = _convolve_masses(*_cdf_kernel(path, delay))
    return ReportingCurve(grid=path.grid, cdf=cdf, density=_node_density(path, delay).density,
                          survival=np.exp(-path.gamma))


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


def _unreported_integrand_weights(grid: TimeGrid, i_end: int, first_mark: MarkLaw,
                                  dev: DevelopmentLaw, T: float | None = None) -> np.ndarray:
    """Trapezoid weights on nodes 0..i_end times the payout to T (default t_{i_end}) per node."""
    T = grid.points[i_end] if T is None else T
    c = np.zeros(grid.n_cells + 1)
    psi = first_mark.mean + dev.rate * dev.mark_mean * (T - grid.points[: i_end + 1])
    c[: i_end + 1] = grid.step * psi
    c[0] *= 0.5
    c[i_end] *= 0.5
    return c


def _even_nodes(path: IntensityPath) -> IntensityPath:
    """The path on every other node of its grid (two or more cells): step
    2h, rates ``mu[::2]`` and the hazard kept at those nodes, so each cell
    mass is the sum of two of the path's.  It is memoized on the path, so
    its own node densities are too."""
    coarse = path._memo.get("even_nodes")
    if coarse is None:
        even = slice(0, 2 * (path.grid.n_cells // 2) + 1, 2)
        points = path.grid.points[even].copy()
        grid = TimeGrid(path.grid.t0, float(points[-1]), 2.0 * path.grid.step, points)
        coarse = IntensityPath(grid=grid, mu=path.mu[even], gamma=path.gamma[even])
        path._memo["even_nodes"] = coarse
    return coarse


def _payout_integral(path: IntensityPath, delay: DelayLaw, first_mark: MarkLaw,
                     dev: DevelopmentLaw, t: float, T: float, end: float | None = None) -> float:
    """Trapezoid of (E[X1] + expected development to T) * p'(u) over [t, end] (default T).

    The payout psi(u) = E[X1] + c (T - u) is linear in u, so over the whole
    cells of the window the trapezoid reads the memoized tail sums of p' at
    the window's two end nodes: O(1) once the path's entry is filled.  The
    sums round relative to the tail from the first node, which equals the
    window's own sum when ``end`` is the grid's end.  Endpoints need not sit
    on grid nodes; partial end cells use pointwise density evaluations.
    """
    grid = path.grid
    t0, h, n_cells = grid.t0, grid.step, len(grid.points) - 1
    # The payout is psi(u) = mean + c (T - u).
    mean, c = first_mark.mean, dev.rate * dev.mark.mean
    end = T if end is None else end
    # t and end lie on the grid's span, so neither index is below 0; t_end
    # itself may round one past the last node.
    i_lo = math.ceil((t - t0) / h - 1e-12)
    if i_lo > n_cells:
        i_lo = n_cells
    i_hi = math.floor((end - t0) / h + 1e-12)
    if i_hi > n_cells:
        i_hi = n_cells
    if i_lo > i_hi:
        # whole window inside one cell
        d_t = reporting_density(path, delay, t)
        d_end = reporting_density(path, delay, end)
        return 0.5 * ((mean + c * (T - t)) * d_t + (mean + c * (T - end)) * d_end) * (end - t)
    density, tail, tail_lag = path._memo.get(("density", delay)) or _node_density(path, delay)
    u_lo, u_hi = grid.points.item(i_lo), grid.points.item(i_hi)
    v_lo = (mean + c * (T - u_lo)) * density.item(i_lo)
    v_hi = (mean + c * (T - u_hi)) * density.item(i_hi)
    total = 0.0
    if i_hi > i_lo:
        # psi(u) = a + c (t_end - u), so sum_{i_lo..i_hi} psi p' = a dS0 + c dS1.
        a = mean + c * (T - grid.t_end)
        s0 = tail.item(i_lo) - tail.item(i_hi + 1)
        s1 = tail_lag.item(i_lo) - tail_lag.item(i_hi + 1)
        total = h * (a * s0 + c * s1 - 0.5 * (v_lo + v_hi))
    left_gap = u_lo - t
    if left_gap > 1e-12 * h:
        d_t = reporting_density(path, delay, t)
        total += 0.5 * ((mean + c * (T - t)) * d_t + v_lo) * left_gap
    right_gap = end - u_hi
    if right_gap > 1e-12 * h:
        d_end = reporting_density(path, delay, end)
        total += 0.5 * (v_hi + (mean + c * (T - end)) * d_end) * right_gap
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


#: Columns per ``einsum`` in ``_row_dots``: past numpy's 8,192-element
#: buffer, one call cuts a row where the rows before it end.
_ROW_COLUMNS = 1 << 12


def _row_dots(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` with each row summed by itself (``einsum`` over blocks of
    ``_ROW_COLUMNS`` columns, added in order): a row's bits do not depend
    on the rows beside it, on a BLAS build or on its thread count."""
    return sum(np.einsum("ij,j->i", a[:, s : s + _ROW_COLUMNS], v[s : s + _ROW_COLUMNS])
               for s in range(0, a.shape[1], _ROW_COLUMNS))


def _brackets(surv: np.ndarray, mu: np.ndarray, q: np.ndarray, c: np.ndarray,
              alpha0: float) -> np.ndarray:
    """Payout integral of each path, a row of its survival exp(-Gamma) and
    of its rate on the nodes, through ``_bracket_functional``'s ``q`` and
    the weights ``c``, each row reduced by itself (``_row_dots``)."""
    out = _row_dots(_cell_masses(surv), q)
    if alpha0 > 0.0:
        out += alpha0 * _row_dots(surv * mu, c)
    return out


def check_reserve_regime(intensity: IntensityPath | IntensityModel, market: MarketModel | None,
                         t: float) -> None:
    """Refuse, as ``UnsupportedRegimeError``, a book outside the closed form's regime.

    ``reserve`` calls it first.  The closed form needs a deflator that is
    uncorrelated with the intensity and whose conditional expectation is
    its current value (a martingale or a constant), and it prices a
    stochastic intensity model at t = 0 only.
    """
    if market is not None:
        if correlated_with_intensity(market):
            raise UnsupportedRegimeError(
                "deflator correlated with the intensity: the conditional expectation "
                "does not factorize; use the Monte Carlo oracle (mc_reserve / --mc-only)")
        if not collapses_to_spot(market):
            raise UnsupportedRegimeError(
                "time-varying deterministic deflator is not a martingale; "
                "use the Monte Carlo oracle (mc_reserve / --mc-only)")
    if t != 0.0 and not isinstance(intensity, IntensityPath) and not is_deterministic(intensity):
        raise UnsupportedRegimeError(
            "stochastic intensity is priced at t = 0 only: neither the closed form "
            "nor the Monte Carlo oracle conditions on a partial intensity history")


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

    ``state`` fixes the valuation time t and the reported count R, which
    is 0 at t = 0 (else ConfigurationError).  The
    deflator cancels out of the result in the supported regime, so
    ``market`` is used for validation only: it must be a martingale
    deflator uncorrelated with the intensity, or a constant deterministic
    one.  ``intensity`` is a realized path or a model; a deterministic
    model is realized on ``grid`` (default: daily up to T).  A stochastic
    model is supported at t = 0 only, where the outer average over
    intensity paths is estimated from ``intensity_draws`` fresh draws and
    its standard error lands in the diagnostics.  The draws come from one
    generator through ``draw_hazard_chunks``, and each part of a few paths
    is reduced to its payout brackets, row by row, before the next is
    drawn, so memory stays at one bracket per draw and a few cache-sized
    arrays, and any part size gives a one-pass average's bits.  Richardson's
    ``unreported_error_estimate`` is |I_h - I_2h| / 3, I_2h the same rule on
    the even nodes (step 2h, rates mu[::2], the hazard kept at those nodes),
    both over the whole 2h cells of [t, T] with the payout to T, or the
    unreported component where there are none (one cell, or t past the last
    even node but one).  A stochastic model averages I_h - I_2h over its
    first ``_ESTIMATE_DRAWS`` paths (``error_estimate_draws``), bracketed
    from the survival of their main brackets.  A result that is not finite
    raises SchemaError naming ``T``, other regimes UnsupportedRegimeError
    (``check_reserve_regime``, before any other check); the Monte Carlo
    oracle prices all of them but a stochastic model at t > 0.
    """
    t = state.as_of
    n = state.n_policies
    reported = state.reported_count
    check_reserve_regime(intensity, market, t)
    if t > T:
        raise ConfigurationError(f"valuation time {t} exceeds horizon {T}")
    if t == 0.0 and reported != 0:
        raise ConfigurationError("no claim can already be reported at time zero")

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
        unreported = estimate = 0.0
        if unreported_count:
            surviving = 1.0 - p_t
            if surviving < _MIN_SURVIVING_MASS:
                raise DegenerateStateError(
                    "reporting is essentially certain by the valuation time; "
                    "no surviving mass to condition on (expected reported count = n)")
            integral = _payout_integral(path, delay, first_mark, dev, t, T)
            unreported = unreported_count * integral / surviving
            # The rule on the even nodes has four times this second-order
            # error, so the error is about |I_h - I_2h| / 3.
            t0, h2 = grid.t0, 2.0 * grid.step
            i_a = 2 * math.ceil((t - t0) / h2 - 1e-12)
            i_b = 2 * math.floor((T - t0) / h2 + 1e-12)
            estimate = unreported
            if i_a < i_b:
                t_a, t_b = grid.points.item(i_a), grid.points.item(i_b)
                fine = integral if t_a == t and t_b == T else _payout_integral(
                    path, delay, first_mark, dev, t_a, T, t_b)
                gap = fine - _payout_integral(_even_nodes(path), delay, first_mark, dev, t_a, T, t_b)
                estimate = unreported_count * abs(gap) / 3.0 / surviving
    else:
        # Stochastic intensity at t = 0: average the payout integral over fresh paths.
        assert isinstance(intensity_model, LogOUIntensity)
        if not intensity_draws >= 2:
            raise SchemaError("intensity_draws", f"must be >= 2, got {intensity_draws}")
        i_T = grid.node_index(T, what="horizon")
        c = _unreported_integrand_weights(grid, i_T, first_mark, dev)
        q = _bracket_functional(c, delay, grid)
        # I_h - I_2h as one bracket: a 2h cell mass is the sum of two h masses,
        # so the 2h weights sit on the h grid as repeat(q_2h) and c_2h[::2].
        i_e = i_T - i_T % 2
        if i_e:
            coarse = TimeGrid(t0=grid.t0, t_end=float(grid.points[i_e]), step=2.0 * grid.step,
                              points=grid.points[: i_e + 1 : 2])
            c_gap = _unreported_integrand_weights(grid, i_e, first_mark, dev, grid.points[i_T])
            c_2h = _unreported_integrand_weights(coarse, i_e // 2, first_mark, dev, grid.points[i_T])
            q_gap = _bracket_functional(c_gap, delay, grid)
            q_gap[:i_e] -= np.repeat(_bracket_functional(c_2h, delay, coarse), 2)
            c_gap[: i_e + 1 : 2] -= c_2h
        rng = substream(seed, 0x1A7E)
        brackets = np.empty(intensity_draws)
        gaps = np.empty(min(_ESTIMATE_DRAWS, intensity_draws) if i_e else 0)  # I_h - I_2h per draw
        for rows, mu, gamma in draw_hazard_chunks(intensity_model, grid, rng, intensity_draws):
            surv = np.exp(np.negative(gamma, out=gamma), out=gamma)
            brackets[rows] = _brackets(surv, mu, q, c, delay.alpha0)
            if rows.start < len(gaps):  # a slice past the end of gaps is cut short
                gaps[rows] = _brackets(surv, mu, q_gap, c_gap, delay.alpha0)[: len(gaps[rows])]
        unreported = n * float(np.mean(brackets))
        diagnostics["intensity_draws"] = int(intensity_draws)
        diagnostics["outer_std_error"] = n * float(np.std(brackets, ddof=1) / math.sqrt(intensity_draws))
        diagnostics["error_estimate_draws"] = len(gaps)
        estimate = n * abs(float(np.mean(gaps))) / 3.0 if len(gaps) else unreported
    total = reported_component + unreported
    diagnostics["unreported_error_estimate"] = estimate
    if not math.isfinite(total + estimate):
        raise SchemaError("T", f"the analytic reserve is not finite over this horizon "
                               f"(total {total:.3g}, unreported_error_estimate {estimate:.3g})")
    return ReserveResult(t, T, reported_component, unreported, total, diagnostics)
