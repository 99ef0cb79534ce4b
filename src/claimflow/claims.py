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
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .intensity import IntensityPath
from ._rng import Seed, coerce_rng, rekeyable_generator, rekeyed

# Substream purposes; part of the reproducibility contract.
STREAM_ACCIDENT = 0
STREAM_DELAY = 1
STREAM_FIRST_MARK = 2
STREAM_DEVELOPMENT = 3


# ---------------------------------------------------------------------------
# Delay laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialDelay:
    """Exponential reporting delay with the given rate (1/years)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ConfigurationError(f"delay rate must be > 0, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class GammaDelay:
    """Gamma reporting delay; shape >= 1 keeps the density bounded at zero."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 1.0:
            raise ConfigurationError(f"gamma delay shape must be >= 1, got {self.shape}")
        if self.rate <= 0.0:
            raise ConfigurationError(f"delay rate must be > 0, got {self.rate}")

    # cdf and pdf repeat the operations of scipy.stats.gamma(shape, scale=1/rate)
    # in the same order, so the values are bit-identical to it without building
    # a frozen distribution per call.  scipy.special is imported on the first
    # evaluation, not with the package: its import costs about 0.25 s and
    # 25 MB, and a book without a gamma delay never imports scipy at all.

    def cdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        y = np.maximum(x, 0.0) / (1.0 / self.rate)
        return np.where(x >= 0.0, special.gammainc(self.shape, y), 0.0)

    def pdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        scale = 1.0 / self.rate
        y = np.maximum(x, 0.0) / scale
        log_pdf = special.xlogy(self.shape - 1.0, y) - y - special.gammaln(self.shape)
        return np.where(x >= 0.0, np.exp(log_pdf) / scale, 0.0)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


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
            raise ConfigurationError(f"alpha0 must be in [0, 1], got {self.alpha0}")
        if self.alpha0 == 1.0 and self.density is not None:
            raise ConfigurationError("alpha0 = 1 leaves no mass for a delay density")
        if self.alpha0 < 1.0 and self.density is None:
            raise ConfigurationError("alpha0 < 1 requires a delay density")

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

        The draw layout is fixed by ``alpha0``: nothing at 1, magnitudes
        only at 0, otherwise all the uniforms, then all the magnitudes.
        """
        if self.density is None:
            return np.zeros(size)
        if self.alpha0 == 0.0:
            return np.asarray(self.density.sample(rng, size=size))
        zero = rng.random(size) < self.alpha0
        return np.where(zero, 0.0, self.density.sample(rng, size=size))


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
        if self.mean <= 0.0:
            raise ConfigurationError(f"mark mean must be > 0, got {self.mean}")
        if self.kind not in MARK_KINDS:
            raise ConfigurationError(f"unknown mark kind {self.kind!r}, expected one of {MARK_KINDS}")
        if self.kind == "lognormal" and self.sigma_ln < 0.0:
            raise ConfigurationError(f"sigma_ln must be >= 0, got {self.sigma_ln}")

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "deterministic":
            return self.mean if size is None else np.full(size, self.mean)
        if self.kind == "exponential":
            return rng.exponential(self.mean, size=size)
        mu_ln = math.log(self.mean) - 0.5 * self.sigma_ln ** 2
        return rng.lognormal(mu_ln, self.sigma_ln, size=size)


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
        if self.rate < 0.0:
            raise ConfigurationError(f"development rate must be >= 0, got {self.rate}")

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
    Development entries are (offset from the report, amount) with strictly
    increasing offsets.
    """

    accident_time: float
    delay: Optional[float] = None
    report_time: float = math.inf
    first_mark: Optional[float] = None
    developments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if math.isinf(self.accident_time):
            if self.delay is not None or self.first_mark is not None or self.developments:
                raise ConfigurationError("an accident that never happens has no further fields")
            return
        if self.delay is None or self.delay < 0.0:
            raise ConfigurationError("occurred claims need a nonnegative delay")
        if self.report_time != self.accident_time + self.delay:
            raise ConfigurationError("report time must equal accident time plus delay")
        if self.first_mark is None or self.first_mark < 0.0:
            raise ConfigurationError("occurred claims need a nonnegative first mark")
        if not self.developments:
            return
        offsets = [o for o, _ in self.developments]
        if any(o <= 0.0 for o in offsets) or any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ConfigurationError("development offsets must be strictly increasing and > 0")
        if any(x < 0.0 for _, x in self.developments):
            raise ConfigurationError("development marks must be >= 0")

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
    the law implied by the discretized hazard.
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
    """Inverse-hazard draw: conditional on the path, P(tau > t) = exp(-Gamma_t)."""
    rng = coerce_rng(seed)
    return invert_hazard(path, rng.exponential())


def sample_delay(law: DelayLaw, seed: Seed) -> float:
    """One report lag: zero with probability alpha0, else a density draw."""
    return law.sample(coerce_rng(seed))


def sample_development(law: DevelopmentLaw, horizon: float, seed: Seed) -> tuple[tuple[float, float], ...]:
    """Compound Poisson events on (0, horizon]: sorted (offset, mark) pairs."""
    if horizon < 0.0:
        raise ConfigurationError(f"development horizon must be >= 0, got {horizon}")
    rng = coerce_rng(seed)
    return _draw_developments(law, horizon, rng)


def _draw_developments(law: DevelopmentLaw, horizon: float, rng: np.random.Generator) -> tuple[tuple[float, float], ...]:
    if horizon == 0.0 or law.rate == 0.0:
        return ()
    count = rng.poisson(law.rate * horizon)
    if count == 0:
        return ()
    # (1 - U) * horizon lands in (0, horizon]; order statistics of uniforms
    # are exactly the arrival times of a Poisson process given its count.
    offsets = np.sort((1.0 - rng.random(count)) * horizon)
    marks = np.atleast_1d(law.mark.sample(rng, size=count))
    return tuple((float(o), float(x)) for o, x in zip(offsets, marks))


#: Thresholds per pass of the per-row bisection, so that they and the
#: hazard rows they search stay in cache between its halving steps.
_BISECT_CHUNK = 1 << 13


def _invert_gamma_rows(gamma: np.ndarray, points: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Vectorized first-crossing times of hazards, inf if never.

    ``gamma`` is either one hazard of shape (nodes,) shared by thresholds
    ``e`` of any shape, or per-row hazards (paths, nodes) with ``e`` of
    shape (paths, policies); hazards start at 0 and are nondecreasing along
    the nodes.  Per-row hazards are searched only for the thresholds at or
    below the row's total hazard; the others never cross and stay inf.
    The search is a branchless bisection (a lower bound, like
    ``searchsorted(side="left")``) in which every threshold takes the same
    ``ceil(log2(nodes))`` halving steps, so each step is a few whole-array
    passes that release the GIL, at any book size.  Agrees element by
    element with the scalar ``invert_hazard`` for nonnegative thresholds.
    """
    if gamma.ndim == 1:
        idx = np.zeros(e.size, dtype=np.intp)
        _lower_bound(gamma, e.ravel(), idx, len(gamma))
        idx = idx.reshape(e.shape)
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
    """
    lo, hi = flat.take(flat_idx - 1, mode="clip"), flat.take(flat_idx, mode="clip")
    t_lo, t_hi = points.take(idx - 1, mode="clip"), points.take(idx, mode="clip")
    den = hi - lo
    frac = np.zeros(den.shape)
    np.divide(e - lo, den, out=frac, where=den > 0.0)
    return np.where(idx < len(points), t_lo + frac * (t_hi - t_lo), np.inf)


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

    Accident times are conditionally i.i.d. given the path; delays, first
    marks and developments come from substreams keyed by (purpose, policy),
    so each ingredient can be perturbed without touching any other.
    Developments are simulated on (0, horizon - report_time] and a claim
    reported after the horizon simply has none.

    Each policy draws exactly what ``substream(seed, purpose, i)`` would:
    one generator per call is put into each derived state in turn, and a
    purpose whose law draws nothing derives no states.
    """
    if n < 1:
        raise ConfigurationError(f"portfolio size must be >= 1, got {n}")
    intensity.grid.require_inside(horizon)
    rng = rekeyable_generator()

    streams = rekeyed(rng, seed, STREAM_ACCIDENT, indices=range(n))
    thresholds = np.array([g.exponential() for g in streams])
    accidents = _invert_gamma_rows(intensity.gamma, intensity.grid.points, thresholds).tolist()
    occurred = [i for i, a in enumerate(accidents) if a != math.inf]

    if delay.alpha0 == 1.0:
        delays = [0.0] * len(occurred)
    else:
        delays = [delay.sample(g) for g in rekeyed(rng, seed, STREAM_DELAY, indices=occurred)]
    reports = [accidents[i] + theta for i, theta in zip(occurred, delays)]
    if first_mark.kind == "deterministic":
        marks = [first_mark.mean] * len(occurred)
    else:
        streams = rekeyed(rng, seed, STREAM_FIRST_MARK, indices=occurred)
        marks = [float(first_mark.sample(g)) for g in streams]
    devs: list[tuple[tuple[float, float], ...]] = [()] * len(occurred)
    if dev.rate > 0.0:
        developing = [k for k, report in enumerate(reports) if report < horizon]
        streams = rekeyed(rng, seed, STREAM_DEVELOPMENT, indices=[occurred[k] for k in developing])
        for k, g in zip(developing, streams):
            devs[k] = _draw_developments(dev, horizon - reports[k], g)

    records = [_NO_ACCIDENT] * n
    for k, i in enumerate(occurred):
        records[i] = ClaimRecord(accident_time=accidents[i], delay=delays[k], report_time=reports[k],
                                 first_mark=marks[k], developments=devs[k])
    return records


def observed_state(claims: Sequence[ClaimRecord], t: float) -> PortfolioState:
    """Snapshot of what the insurer can see at ``t``.

    A claim enters the snapshot once its report time is <= t; its
    developments are truncated to those that happened by t.  Unreported
    claims contribute nothing, not even their existence.
    """
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
