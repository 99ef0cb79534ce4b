"""Portfolio simulation: accident times, reporting delays, developments.

A portfolio of n homogeneous policies is simulated as a family of marked
point processes.  Accident times are conditionally independent given one
shared intensity path and are drawn by inverse-hazard sampling: with
E ~ Exp(1), the accident happens at the first time Gamma crosses E, or
never if the path's total hazard stays below E.  The first report lags the
accident by a mixed delay (an atom at zero plus a density), and subsequent
payments follow a compound Poisson development process started at the
first report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, SchemaError
from .intensity import IntensityPath
from ._rng import Seed, coerce_rng, policy_streams

# Stream purposes (key word 1's high half); part of the reproducibility contract.
STREAM_ACCIDENT = 0
STREAM_DELAY = 1
STREAM_FIRST_MARK = 2
STREAM_DEVELOPMENT = 3

#: Entries per piece of a vector draw over an oracle block's (paths,
#: policies) cells, 512 KiB of float64: its delays and its first marks are
#: drawn this many cells at a time.
_DRAW_PIECE = 1 << 16


# ---------------------------------------------------------------------------
# Delay laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialDelay:
    """Exponential reporting delay with the given rate (1/years)."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < math.inf:
            raise SchemaError("rate", f"must be finite and > 0, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # rate * x = inf gives 1, as it should
            y = -self.rate * np.maximum(x, 0.0)
        return np.where(x >= 0.0, -np.expm1(y), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # rate * x = inf gives 0, as it should
            y = -self.rate * np.maximum(x, 0.0)
        return np.where(x >= 0.0, self.rate * np.exp(y), 0.0)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class GammaDelay:
    """Gamma reporting delay; shape >= 1 keeps the density bounded at zero.

    ``shape`` lies in [1, 2**53] and ``rate`` is finite and > 0.

    The cdf is the regularized lower incomplete gamma P(shape, rate * x)
    (see ``_lower_gamma``) and the pdf is rate * y^(shape-1) e^-y / Gamma(shape)
    at y = rate * x, both in numpy from one weight y^a e^-y / Gamma(a)
    (``_log_gamma_weight``).  At shape 1 both are the exponential delay's, bit
    for bit.  For shapes 1 to 100 the cdf is within 4e-15 absolute of
    ``scipy.stats.gamma`` (whose own error near x = shape reaches 3e-15)
    and the pdf within scipy's rounding of its log-density; the tests
    state both bounds.
    """

    shape: float
    rate: float

    def __post_init__(self) -> None:
        # Past 2**53 shape + 1 == shape; P(shape, shape) read 2.3 at 1e34.
        if not 1.0 <= self.shape <= 2.0 ** 53:
            raise SchemaError("shape", f"must be in [1, 2**53], got {self.shape}")
        if not 0.0 < self.rate < math.inf:
            raise SchemaError("rate", f"must be finite and > 0, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # y = inf is handled below
            y = self.rate * np.maximum(x, 0.0)
        if self.shape == 1.0:
            return np.where(x >= 0.0, -np.expm1(-y), 0.0)
        out = np.where(y == np.inf, 1.0, 0.0)
        inside = (y > 0.0) & (y < np.inf)
        out[inside] = _lower_gamma(self.shape, y[inside])
        return out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # y = inf is handled below
            y = self.rate * np.maximum(x, 0.0)
        if self.shape == 1.0:
            return np.where(x >= 0.0, self.rate * np.exp(-y), 0.0)
        out = np.zeros_like(y)
        inside = (y > 0.0) & (y < np.inf)
        y = y[inside]
        out[inside] = self.rate * np.exp(_log_gamma_weight(self.shape, y) - np.log(y))
        return out

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma P(a, x) for a >= 1 and 0 < x < inf
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_FPMIN = float(np.finfo(float).tiny) / _EPS
#: Stirling series of log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 in
#: powers of 1/a^2, B_2k / (2k (2k - 1)); at a >= 10 the next term is < 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
#: Beyond this shape the series and the continued fraction, which take about
#: 10 sqrt(a) steps near x = a (and stall once a + 1 == a), give way to a
#: fixed-size quadrature.
_SERIES_MAX_SHAPE = 1e6
_GAUSS_POINTS = 32


def _atanh_tail(q):
    """sum_{j >= 0} q^j / (2j + 3) for 0 <= q <= 1/9, to rounding."""
    total = 0.0
    for j in range(19, -1, -1):
        total = total * q + 1.0 / (2 * j + 3)
    return total


def _log_gamma_scale(a: float) -> float:
    """log(a^a e^-a / Gamma(a)) = log(a / (2 pi)) / 2 - r(a), r Stirling's remainder.

    r(a) - r(a + 1) = (a + 1/2) log(1 + 1/a) - 1 = sum_j z^(2j+2) / (2j + 3)
    with z = 1 / (2a + 1), a sum of positive terms, carries a up to 10, where
    ``_STIRLING`` gives r to rounding.  Unlike a log a - a - lgamma(a), no
    term is of size a log a, so the result is accurate to a few ulps of 1.
    """
    rest = 0.0
    b = a
    while b < 10.0:
        q = (2.0 * b + 1.0) ** -2
        rest += q * _atanh_tail(q)
        b += 1.0
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * b ** -2 + c
    return 0.5 * math.log(a / (2.0 * math.pi)) - (rest + series / b)


def _rlog(x: np.ndarray, a: float) -> np.ndarray:
    """u - 1 - log(u) >= 0 at u = x / a, to full relative precision near u = 1.

    For w = u - 1 in (-1/2, 1), r = w / (2 + w) has |r| < 1/3, and
    w = 2r / (1 - r), log(u) = 2 atanh(r) give 2r^2 / (1 - r) minus a
    series in r^3, with no cancellation (DiDonato and Morris, ACM TOMS 12
    (1986) 377, evaluate their rlog1 the same way).
    """
    w = (x - a) / a
    out = np.empty_like(w)
    near = (w > -0.5) & (w < 1.0)
    r = w[near] / (2.0 + w[near])
    q = r * r
    out[near] = 2.0 * q / (1.0 - r) - 2.0 * r * q * _atanh_tail(q)
    u = x[~near] / a
    with np.errstate(divide="ignore"):  # u underflows to 0 only where x^a does
        out[~near] = (u - 1.0) - np.log(u)
    return out


def _log_gamma_weight(a: float, x: np.ndarray) -> np.ndarray:
    """log(x^a e^-x / Gamma(a)) as log(a^a e^-a / Gamma(a)) - a rlog(x / a).

    Written this way the log is small where the weight is not, so its
    rounding stays near machine epsilon for every shape; the direct
    a log x - x - log Gamma(a) loses digits in proportion to a log a.
    """
    return _log_gamma_scale(a) - a * _rlog(x, a)


def _lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) for a >= 1 and a 1-D array 0 < x < inf.

    Press et al., Numerical Recipes, 3rd ed., section 6.2: the series for
    x < a + 1 and the continued fraction for Q = 1 - P otherwise, each
    stopped when a term no longer moves the result, on a shrinking set of
    unconverged entries; for a > ``_SERIES_MAX_SHAPE``, quadrature.
    """
    if a > _SERIES_MAX_SHAPE:
        return _lower_gamma_quadrature(a, x)
    out = np.empty_like(x)
    low = x < a + 1.0
    weight = np.exp(_log_gamma_weight(a, x))
    out[low] = weight[low] * _lower_gamma_series(a, x[low])
    out[~low] = 1.0 - weight[~low] * _upper_gamma_fraction(a, x[~low])
    return out


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """sum_{n >= 0} x^n / (a (a + 1) ... (a + n)) for x < a + 1.

    The term ratio x / (a + n) is below 1 and falls, so every entry stops.
    """
    out = np.empty_like(x)
    live = np.arange(len(x))
    term = np.full(len(x), 1.0 / a)
    total = term.copy()
    n = 0
    while len(live):
        n += 1
        term *= x / (a + n)
        total += term
        live, (x, term, total) = _finish(out, live, term < total * _EPS, total, x, term, total)
    return out


def _upper_gamma_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) Gamma(a) e^x / x^a for x >= a + 1, by the modified Lentz method."""
    out = np.empty_like(x)
    live = np.arange(len(x))
    b = x + 1.0 - a
    c = np.full(len(x), 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while len(live):
        i += 1
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        live, (b, c, d, h) = _finish(out, live, np.abs(step - 1.0) <= _EPS, h, b, c, d, h)
    return out


def _finish(out, live, done, value, *state):
    """Store ``value`` where ``done`` into ``out`` at ``live``, and drop
    those entries from ``live`` and each array of ``state``."""
    out[live[done]] = value[done]
    keep = ~done
    return live[keep], [array[keep] for array in state]


def _lower_gamma_quadrature(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) for large a: Gauss-Legendre quadrature of t^(a-1) e^-t / Gamma(a).

    Numerical Recipes' gammpapprox with 32 points, not 18, and the lower
    limit 9, not 7.5, standard deviations below the mode: the integral runs
    from x to a far point on the side of x away from the mode, so it is
    Q above the mode and P below it.  At a = 1e6 it is within 3e-14 of
    the series and fraction, under P's own change across one ulp of x
    there (5e-14); both grow like sqrt(a).
    """
    from numpy.polynomial.legendre import leggauss  # only such shapes need it

    nodes, weights = leggauss(_GAUSS_POINTS)
    a1 = a - 1.0
    sd = math.sqrt(a1)
    upper = x > a1
    far = np.where(upper, np.maximum(a1 + 11.5 * sd, x + 6.0 * sd),
                   np.maximum(0.0, np.minimum(a1 - 9.0 * sd, x - 5.0 * sd)))
    t = x[:, None] + (far - x)[:, None] * (0.5 * (nodes + 1.0))
    part = (np.exp(_log_gamma_weight(a1, t)) / a1) @ (0.5 * weights) * (far - x)
    return np.where(upper, 1.0 - part, -part)


DelayDensity = Union[ExponentialDelay, GammaDelay]


@dataclass(frozen=True)
class DelayLaw:
    """Mixed distribution of the report lag: mass ``alpha0`` at zero plus a density.

    The cumulative function is G(x) = alpha0 + (1 - alpha0) * density_cdf(x)
    for x >= 0 and 0 for x < 0.  ``alpha0 = 1`` (no density) reduces the model
    to instantaneous reporting, the life-insurance special case.
    """

    alpha0: float
    density: Optional[DelayDensity] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha0 <= 1.0:
            raise SchemaError("alpha0", f"must be in [0, 1], got {self.alpha0}")
        if self.alpha0 == 1.0 and self.density is not None:
            raise SchemaError("density", "must be null when alpha0 = 1")
        if self.alpha0 < 1.0 and self.density is None:
            raise SchemaError("density", "required when alpha0 < 1")

    def cdf(self, x):
        """G(x); 0 for x < 0, alpha0 at 0, continuous beyond."""
        x = np.asarray(x, dtype=float)
        atom = np.where(x >= 0.0, self.alpha0, 0.0)
        if self.density is None:
            return atom
        return atom + (1.0 - self.alpha0) * self.density.cdf(x)

    def pdf(self, x):
        """Density part g(x), already weighted by 1 - alpha0."""
        if self.density is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return (1.0 - self.alpha0) * self.density.pdf(x)

    def sample(self, rng: np.random.Generator) -> float:
        if rng.random() < self.alpha0:
            return 0.0
        assert self.density is not None
        return float(self.density.sample(rng))

    def sample_many(self, rng: np.random.Generator, size) -> np.ndarray:
        """Vector version of ``sample``; ``size`` is an int or a shape.
        The draws are ``add_to``'s."""
        out = np.zeros(size)
        self.add_to(rng, out)
        return out

    def add_to(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Add one lag to every entry of the C-contiguous float array ``out``, in place.

        The draw layout is fixed by ``alpha0``: nothing at 1, magnitudes
        only at 0, otherwise all the uniforms, then all the magnitudes; an
        entry whose uniform falls below ``alpha0`` gets no magnitude.  Each
        group is drawn ``_DRAW_PIECE`` entries at a time, the same values as
        one draw of the whole group, so besides ``out`` only one piece and
        the atom's mask, a byte an entry, exist at once.
        """
        if self.density is None:
            return
        if not out.flags.c_contiguous:  # else the reshape below would be a copy
            raise ValueError("add_to adds into a C-contiguous array only")
        flat = out.reshape(-1)
        pieces = [slice(lo, lo + _DRAW_PIECE) for lo in range(0, flat.size, _DRAW_PIECE)]
        if self.alpha0 == 0.0:
            for piece in pieces:
                part = flat[piece]
                part += self.density.sample(rng, size=part.size)
            return
        drawn = np.empty(flat.size, dtype=bool)
        for piece in pieces:
            np.greater_equal(rng.random(drawn[piece].size), self.alpha0, out=drawn[piece])
        for piece in pieces:
            part = flat[piece]
            np.add(part, self.density.sample(rng, size=part.size), out=part, where=drawn[piece])


# ---------------------------------------------------------------------------
# Payment-size laws
# ---------------------------------------------------------------------------

MARK_KINDS = ("deterministic", "exponential", "lognormal")


@dataclass(frozen=True)
class MarkLaw:
    """Nonnegative payment size with a prescribed mean.

    The lognormal variant takes the log-space standard deviation and fixes
    the log-space mean so that the expectation is exactly ``mean``.
    """

    mean: float
    kind: str = "deterministic"
    sigma_ln: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mean < math.inf:
            raise SchemaError("mean", f"must be finite and > 0, got {self.mean}")
        if self.kind not in MARK_KINDS:
            raise SchemaError("kind", f"must be one of {MARK_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.sigma_ln < math.inf:
            raise SchemaError("sigma_ln", f"must be finite and >= 0, got {self.sigma_ln}")
        # The lognormal's log-space mean, set once; not a field, so equality
        # and hashing see only the three fields above.
        object.__setattr__(self, "_mu_ln", math.log(self.mean) - 0.5 * self.sigma_ln ** 2)

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "deterministic":
            return self.mean if size is None else np.full(size, self.mean)
        if self.kind == "exponential":
            return rng.exponential(self.mean, size=size)
        return rng.lognormal(self._mu_ln, self.sigma_ln, size=size)


#: First payment at the report time; same parametrization as any mark.
FirstMarkLaw = MarkLaw


@dataclass(frozen=True)
class DevelopmentLaw:
    """Compound Poisson development after the first report.

    Events arrive at ``rate`` per year with i.i.d. marks; the expected
    cumulative payment over a window of length t is rate * mark.mean * t.
    """

    rate: float
    mark: MarkLaw

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < math.inf:
            raise SchemaError("rate", f"must be finite and >= 0, got {self.rate}")

    @property
    def mark_mean(self) -> float:
        return self.mark.mean


# ---------------------------------------------------------------------------
# Claim records and observable state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimRecord:
    """One policy's realized history.

    ``accident_time`` is ``inf`` for a policy whose accident never happens
    within the simulated horizon; all other fields are then ``None``/empty.
    Otherwise it and the first mark are finite.  Development entries are
    (offset from the report, amount), both finite, with strictly
    increasing offsets.
    """

    accident_time: float
    delay: Optional[float] = None
    report_time: float = math.inf
    first_mark: Optional[float] = None
    developments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.accident_time == math.inf:
            if (self.delay is not None or self.report_time != math.inf or self.first_mark is not None
                    or self.developments):
                raise ConfigurationError("an accident that never happens has no further fields")
            return
        # Written so that NaN fails: no NaN is <, <= or >= anything.
        if not -math.inf < self.accident_time:
            raise ConfigurationError("an accident time must be finite, or inf for none")
        if self.delay is None or self.delay < 0.0:
            raise ConfigurationError("occurred claims need a nonnegative delay")
        if self.report_time != self.accident_time + self.delay:
            raise ConfigurationError("report time must equal accident time plus delay")
        if self.first_mark is None or not 0.0 <= self.first_mark < math.inf:
            raise ConfigurationError("occurred claims need a finite nonnegative first mark")
        previous = 0.0
        for offset, amount in self.developments:
            if not previous < offset < math.inf:
                raise ConfigurationError("development offsets must be finite, strictly increasing and > 0")
            if not 0.0 <= amount < math.inf:
                raise ConfigurationError("development marks must be finite and >= 0")
            previous = offset

    @property
    def occurred(self) -> bool:
        return math.isfinite(self.accident_time)

    def payment_events(self) -> Iterator[tuple[float, float]]:
        """(absolute time, amount) pairs: the first mark, then developments."""
        if not self.occurred:
            return
        yield self.report_time, float(self.first_mark)
        for offset, amount in self.developments:
            yield self.report_time + offset, amount


#: The record of every policy whose accident never happens.
_NO_ACCIDENT = ClaimRecord(accident_time=math.inf)


@dataclass(frozen=True)
class VisibleClaim:
    """A reported claim as seen at the observation time.

    Reporting reveals the accident time, the delay and the first payment;
    only developments that have already happened are included.
    """

    accident_time: float
    delay: float
    report_time: float
    first_mark: float
    developments: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class PortfolioState:
    """Information available to the insurer at ``as_of``.

    ``visible`` holds the reported histories when they are known; a state
    built from counts alone has none.  ``reported_count`` defaults to the
    number of visible claims and must match it whenever any are given.
    """

    as_of: float
    n_policies: int
    visible: tuple[VisibleClaim, ...] = ()
    reported_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.reported_count is None:
            object.__setattr__(self, "reported_count", len(self.visible))
        elif self.visible and self.reported_count != len(self.visible):
            raise ConfigurationError(
                f"reported count {self.reported_count} != {len(self.visible)} visible claims")
        if self.n_policies < 0:
            raise ConfigurationError("portfolio size must be >= 0")
        if not 0 <= self.reported_count <= self.n_policies:
            raise ConfigurationError(
                f"reported count {self.reported_count} outside [0, {self.n_policies}]")
        for claim in self.visible:
            if claim.report_time > self.as_of:
                raise ConfigurationError("visible claims must be reported by the observation time")

    @classmethod
    def from_counts(cls, as_of: float, n_policies: int, reported_count: int) -> "PortfolioState":
        """State carrying only the reported count.

        By exchangeability of the homogeneous portfolio the reserve depends
        on the reported histories only through this count, so a bare-count
        state prices identically to a full one.
        """
        return cls(as_of=as_of, n_policies=n_policies, reported_count=reported_count)


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------

def invert_hazard(path: IntensityPath, threshold: float) -> float:
    """First time the cumulative hazard reaches ``threshold``, or inf.

    Linear interpolation between grid nodes; this is the exact inverse of
    the law implied by the discretized hazard.  It is the scalar reference
    of ``simulate_portfolio``'s accident times, which invert the same grid
    hazard.
    """
    gamma = path.gamma
    if threshold > gamma[-1]:
        return math.inf
    if threshold <= 0.0:
        return float(path.grid.points[0])
    idx = int(np.searchsorted(gamma, threshold, side="left"))
    lo, hi = gamma[idx - 1], gamma[idx]
    t_lo, t_hi = path.grid.points[idx - 1], path.grid.points[idx]
    return float(t_lo + (threshold - lo) / (hi - lo) * (t_hi - t_lo))


def sample_accident_time(path: IntensityPath, seed: Seed) -> float:
    """Inverse-hazard draw: conditional on the path, P(tau > t) = exp(-Gamma_t).

    With ``seed = policy_stream(s, STREAM_ACCIDENT, i)`` this is policy
    ``i``'s accident time in ``simulate_portfolio(..., seed=s)``; the other
    samplers match it the same way through their own purposes.
    """
    rng = coerce_rng(seed)
    return invert_hazard(path, rng.exponential())


def sample_delay(law: DelayLaw, seed: Seed) -> float:
    """One report lag: zero with probability alpha0, else a density draw.

    ``policy_stream(s, STREAM_DELAY, i)`` as the seed gives policy ``i``'s lag.
    """
    return law.sample(coerce_rng(seed))


def sample_development(law: DevelopmentLaw, horizon: float, seed: Seed) -> tuple[tuple[float, float], ...]:
    """Compound Poisson events on (0, horizon]: sorted (offset, mark) pairs.

    ``policy_stream(s, STREAM_DEVELOPMENT, i)`` as the seed, with the
    horizon less policy ``i``'s report time, gives its developments.
    """
    if not 0.0 <= horizon < math.inf:
        raise ConfigurationError(f"development horizon must be finite and >= 0, got {horizon}")
    rng = coerce_rng(seed)
    return _draw_developments(law, horizon, rng)


def _draw_developments(law: DevelopmentLaw, horizon: float, rng: np.random.Generator) -> tuple[tuple[float, float], ...]:
    """The draw order is a Poisson count, then that many uniforms for the
    offsets, then that many marks, one scalar draw at a time: the same
    values as drawing each group as one array."""
    if horizon == 0.0 or law.rate == 0.0:
        return ()
    count = rng.poisson(law.rate * horizon)
    if count == 0:
        return ()
    # (1 - U) * horizon lands in (0, horizon]; order statistics of uniforms
    # are exactly the arrival times of a Poisson process given its count.
    offsets = sorted([(1.0 - rng.random()) * horizon for _ in range(count)])
    return tuple(zip(offsets, [float(law.mark.sample(rng)) for _ in range(count)]))


#: Thresholds per pass of the per-row bisection: every threshold of one
#: oracle hazard part of a 64-policy daily book (at most 179 x 64 =
#: 11,456) in one pass of about 40 numpy calls, few enough that they and
#: the hazard rows they search stay in cache between its halving steps.
_BISECT_CHUNK = 1 << 14


def _invert_gamma_rows(gamma: np.ndarray, points: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Vectorized first-crossing times of hazards, inf if never.

    ``gamma`` is either one hazard at knot times ``points``, shared by
    thresholds ``e`` of any shape, or per-row hazards (paths, nodes) on the
    grid nodes ``points`` with ``e`` of shape (paths, policies); hazards
    start at 0 and are nondecreasing, and are linear between their points.
    One hazard is searched by ``searchsorted(side="left")``: the oracle
    passes a deterministic rate's few exact knots
    (``intensity.hazard_knots``), ``simulate_portfolio`` its path's grid
    nodes.  Per-row hazards are searched by a branchless bisection (the
    same lower bound): ``ceil(log2(nodes))`` halving steps, each a few
    whole-array passes, at any book size.  numpy releases the GIL inside
    each pass, but over one oracle hazard part's few thousand thresholds a
    pass takes microseconds, too little for threads to overlap much.  It runs
    only for the thresholds at or below their row's total hazard; the
    others never cross and stay inf.  On grid nodes this agrees element by
    element with the scalar ``invert_hazard`` for nonnegative thresholds.
    """
    if gamma.ndim == 1:
        idx = gamma.searchsorted(e)
        return _crossing_times(gamma, points, e, idx, idx)
    n_rows, nodes = gamma.shape
    hit = e <= gamma[:, -1:]
    crossing = np.extract(hit, e)  # row by row, like e[hit] but faster
    flat = gamma.ravel()
    row_start = np.repeat(np.arange(0, n_rows * nodes, nodes), np.count_nonzero(hit, axis=1))
    times = np.empty(len(crossing))
    for lo in range(0, len(crossing), _BISECT_CHUNK):
        part = slice(lo, lo + _BISECT_CHUNK)
        x, start = crossing[part], row_start[part]
        flat_idx = start.copy()
        _lower_bound(flat, x, flat_idx, nodes)
        times[part] = _crossing_times(flat, points, x, flat_idx - start, flat_idx)
    out = np.full(e.shape, np.inf)
    np.place(out, hit, times)
    return out


def _lower_bound(flat: np.ndarray, x: np.ndarray, base: np.ndarray, width: int) -> None:
    """Move each ``base`` in place to the first index of ``flat[base : base + width]``
    whose value is >= its ``x``, or to ``base + width`` if none is.

    Branchless: every element takes the same ``ceil(log2(width))`` halving
    steps, each a few whole-array passes.  Invariant: the answer lies in
    ``[base, base + width]``.
    """
    step = np.empty_like(base)
    below = np.empty(len(x), dtype=bool)
    while width > 1:
        half = width // 2
        np.less(flat[half:].take(base), x, out=below)  # flat[base + half] < x
        np.multiply(below, half, out=step)
        base += step
        width -= half
    base += flat.take(base) < x


def _crossing_times(flat: np.ndarray, points: np.ndarray, e: np.ndarray, idx: np.ndarray,
                    flat_idx: np.ndarray) -> np.ndarray:
    """Linear interpolation of thresholds ``e`` between the nodes around them.

    ``idx`` counts the hazard nodes below each threshold; the hazard's node
    ``idx`` is ``flat[flat_idx]``.  With clipped gathers a threshold at or
    below the first node, where the hazard is 0, gets a segment of width
    <= 0 (its left end is the first node itself or, in a flattened array
    of rows, the previous row's last node) and maps to ``points[0]``; one
    beyond the last node maps to inf.

    Each step runs in place in one of three gathered arrays and one index
    array.  A segment of width <= 0 is widened to inf first, so its
    fraction is a zero (of either sign) and its time ``t_lo``, with no
    division by zero.
    """
    beyond = idx >= len(points)
    prev = flat_idx - 1
    lo, den = flat.take(prev, mode="clip"), flat.take(flat_idx, mode="clip")
    den -= lo
    den[den <= 0.0] = np.inf
    frac = np.subtract(e, lo, out=lo)
    frac /= den
    t_lo = points.take(np.subtract(idx, 1, out=prev), mode="clip", out=den)
    times = points.take(idx, mode="clip")
    times -= t_lo
    times *= frac
    times += t_lo
    times[beyond] = np.inf
    return times


def simulate_portfolio(
    n: int,
    intensity: IntensityPath,
    delay: DelayLaw,
    first_mark: MarkLaw,
    dev: DevelopmentLaw,
    horizon: float,
    seed: Seed,
) -> list[ClaimRecord]:
    """Simulate ``n`` policies sharing one intensity path.

    Accident times are conditionally i.i.d. given the path; every draw
    comes from a Philox stream keyed by (seed, purpose, policy), so each
    ingredient can be perturbed without touching any other.  Developments
    are simulated on (0, horizon - report_time] and a claim reported after
    the horizon simply has none.

    Policy ``i`` draws exactly what ``policy_stream(seed, purpose, i)``
    would, so the ``sample_*`` functions reproduce it one ingredient at a
    time.  Each purpose whose law draws re-keys one generator from policy
    to policy; a purpose whose law draws nothing builds none.
    """
    if n < 1:
        raise ConfigurationError(f"portfolio size must be >= 1, got {n}")
    intensity.grid.require_inside(horizon)

    thresholds = np.array([g.exponential() for g in policy_streams(seed, STREAM_ACCIDENT, range(n))])
    accidents = _invert_gamma_rows(intensity.gamma, intensity.grid.points, thresholds).tolist()
    occurred = [i for i, a in enumerate(accidents) if a != math.inf]

    if delay.alpha0 == 1.0:
        delays = [0.0] * len(occurred)
    else:
        sample = delay.sample
        delays = [sample(g) for g in policy_streams(seed, STREAM_DELAY, occurred)]
    reports = [accidents[i] + theta for i, theta in zip(occurred, delays)]
    if first_mark.kind == "deterministic":
        marks = [first_mark.mean] * len(occurred)
    else:
        sample = first_mark.sample
        marks = [float(sample(g)) for g in policy_streams(seed, STREAM_FIRST_MARK, occurred)]
    devs: list[tuple[tuple[float, float], ...]] = [()] * len(occurred)
    if dev.rate > 0.0:
        developing = [k for k, report in enumerate(reports) if report < horizon]
        streams = policy_streams(seed, STREAM_DEVELOPMENT, [occurred[k] for k in developing])
        for k, g in zip(developing, streams):
            devs[k] = _draw_developments(dev, horizon - reports[k], g)

    records = [_NO_ACCIDENT] * n
    for i, theta, report, mark, events in zip(occurred, delays, reports, marks, devs):
        records[i] = ClaimRecord(accidents[i], theta, report, mark, events)
    return records


def observed_state(claims: Sequence[ClaimRecord], t: float) -> PortfolioState:
    """Snapshot of what the insurer can see at ``t``.

    A claim enters the snapshot once its report time is <= t; its
    developments are truncated to those that happened by t.  Unreported
    claims contribute nothing, not even their existence.  ``t`` must be
    finite.
    """
    if not math.isfinite(t):
        raise ConfigurationError(f"observation time must be finite, got {t}")
    visible = []
    for claim in claims:
        report = claim.report_time  # inf for an accident that never happens
        if report > t:
            continue
        devs = claim.developments
        # Offsets increase, so the developments seen by t are a prefix.
        if devs and report + devs[-1][0] > t:
            devs = tuple([event for event in devs if report + event[0] <= t])
        visible.append(VisibleClaim(claim.accident_time, float(claim.delay), report,
                                    float(claim.first_mark), devs))
    return PortfolioState(as_of=t, n_policies=len(claims), visible=tuple(visible))
