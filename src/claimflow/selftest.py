"""Built-in regression suite: closed-form checks plus oracle agreement.

Each check returns one or more results; the CLI prints them as a pass/fail
table and exits nonzero on any failure.  The quick subset contains only
closed-form checks and finishes in well under five seconds; the full suite
adds the simulator consistency, independence, Monte Carlo agreement,
conditional bucket and determinism checks.
"""

from __future__ import annotations

import filecmp
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .claims import (
    DelayLaw,
    DevelopmentLaw,
    ExponentialDelay,
    MarkLaw,
    PortfolioState,
    simulate_portfolio,
)
from .grids import DEFAULT_STEP, TimeGrid
from .intensity import (
    ConstantIntensity,
    LogOUIntensity,
    PiecewiseConstantIntensity,
    simulate_intensity_path,
)
from .market import DeterministicDeflator, MartingaleDeflator
from .mc import McConfig, compare, mc_reserve
from .pricing import (
    reporting_cdf,
    reporting_density,
    reserve,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Closed-form checks (quick subset)
# ---------------------------------------------------------------------------

def check_closed_form_cdf() -> list[CheckResult]:
    """Constant rate 1, exponential delay rate 2: p(1) = 1 - 2/e + 1/e^2."""
    started = time.perf_counter()
    grid = TimeGrid.regular(2.0)
    path = simulate_intensity_path(ConstantIntensity(1.0), grid)
    delay = DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))
    value = reporting_cdf(path, delay, 1.0)
    exact = 1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0)
    err = abs(value - exact)
    elapsed = time.perf_counter() - started
    return [
        _result("closed_form_reporting_cdf", err <= 1e-6,
                f"err={err:.2e} tol=1e-06"),
        _result("closed_form_reporting_cdf_runtime", elapsed < 1.0,
                f"{elapsed:.3f} s < 1 s"),
    ]


def check_life_reduction() -> list[CheckResult]:
    """Zero delay: the reporting probability equals one minus survival."""
    grid = TimeGrid.regular(2.0)
    path = simulate_intensity_path(ConstantIntensity(1.0), grid)
    life = DelayLaw(alpha0=1.0)
    worst = 0.0
    for t in np.linspace(0.2, 2.0, 10):
        err = abs(reporting_cdf(path, life, float(t)) - (1.0 - path.survival(float(t))))
        worst = max(worst, err)
    return [_result("life_reduction_cdf", worst <= 1e-10, f"max err={worst:.2e} tol=1e-10")]


def check_density_closed_form() -> list[CheckResult]:
    """p'(1) = 2(1/e - 1/e^2) for the constant-rate exponential-delay case,
    and the cumulative trapezoid of the density reproduces the probability."""
    grid = TimeGrid.regular(2.0)
    path = simulate_intensity_path(ConstantIntensity(1.0), grid)
    delay = DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))
    value = reporting_density(path, delay, 1.0)
    exact = 2.0 * (math.exp(-1.0) - math.exp(-2.0))
    err = abs(value - exact)
    out = [_result("closed_form_reporting_density", err <= 2e-6, f"err={err:.2e} tol=2e-06")]

    life = DelayLaw(alpha0=1.0)
    for name, law in (("exp_delay", delay), ("life", life)):
        nodes = grid.points[: grid.node_index(1.0) + 1]
        dens = np.array([reporting_density(path, law, float(u)) for u in nodes])
        cum = float(np.trapezoid(dens, dx=grid.step))
        gap = abs(cum - reporting_cdf(path, law, 1.0))
        out.append(_result(f"density_integrates_to_cdf_{name}", gap <= 1e-6,
                           f"gap={gap:.2e} tol=1e-06"))
    return out


def check_quadrature_order() -> list[CheckResult]:
    """Halving the grid step cuts the closed-form error by about four."""
    delay = DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))
    exact = 1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0)
    errs = []
    for divisor in (1, 2):
        grid = TimeGrid.regular(2.0, step=DEFAULT_STEP / divisor)
        path = simulate_intensity_path(ConstantIntensity(1.0), grid)
        errs.append(abs(reporting_cdf(path, delay, 1.0) - exact))
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    return [_result("quadrature_second_order", 3.5 <= ratio <= 4.5,
                    f"error ratio={ratio:.3f} in [3.5, 4.5]")]


def check_hazard_values() -> list[CheckResult]:
    """Piecewise rate {1 then 3 after year one}: exact integral is 4 at t=2."""
    grid = TimeGrid.regular(2.0)
    model = PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(1.0, 3.0))
    path = simulate_intensity_path(model, grid)
    # The trapezoid cell at the jump adds a bias of step * (rate gap) / 2.
    tol = 1.5 * grid.step
    h_err = abs(path.hazard(2.0) - 4.0)
    s_err = abs(path.survival(2.0) - math.exp(-4.0))
    fine = simulate_intensity_path(model, TimeGrid.regular(2.0, step=DEFAULT_STEP / 16))
    fine_err = abs(fine.hazard(2.0) - 4.0)
    return [
        _result("piecewise_hazard", h_err <= tol, f"err={h_err:.2e} tol={tol:.2e}"),
        _result("piecewise_survival", s_err <= tol, f"err={s_err:.2e} tol={tol:.2e}"),
        _result("piecewise_hazard_fine_grid", fine_err < h_err or h_err == 0.0,
                f"fine err={fine_err:.2e} < coarse err={h_err:.2e}"),
    ]


def check_reserve_identities() -> list[CheckResult]:
    """Reported-only value, the life closed form, and exact scaling in n."""
    out = []
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5))
    fm = MarkLaw(mean=1.0)
    grid = TimeGrid.regular(3.0)
    path = simulate_intensity_path(ConstantIntensity(1.0), grid)
    delay = DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0))
    state = PortfolioState.from_counts(1.0, 10, 10)
    res = reserve(state, path, delay, fm, dev, 3.0, market=DeterministicDeflator(1.0))
    out.append(_result("reserve_all_reported", abs(res.total - 20.0) <= 1e-12
                       and res.unreported_component == 0.0,
                       f"total={res.total} expected 20.0"))

    grid1 = TimeGrid.regular(1.0)
    path1 = simulate_intensity_path(ConstantIntensity(1.0), grid1)
    life = DelayLaw(alpha0=1.0)
    none_dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    res_life = reserve(PortfolioState.from_counts(0.0, 1, 0), path1, life, fm, none_dev, 1.0)
    err = abs(res_life.total - (1.0 - math.exp(-1.0)))
    out.append(_result("reserve_life_closed_form", err <= 1e-6, f"err={err:.2e} tol=1e-06"))

    base = reserve(PortfolioState.from_counts(1.0, 5, 2), path, delay, fm, dev, 3.0)
    double = reserve(PortfolioState.from_counts(1.0, 10, 4), path, delay, fm, dev, 3.0)
    exact_scaling = (double.reported_component == 2.0 * base.reported_component
                     and double.unreported_component == 2.0 * base.unreported_component)
    out.append(_result("reserve_scales_with_portfolio", exact_scaling,
                       f"2x portfolio doubles both components exactly"))
    return out


# ---------------------------------------------------------------------------
# Simulation-based checks (full suite)
# ---------------------------------------------------------------------------

def check_simulator_consistency() -> list[CheckResult]:
    """Empirical first-report CDF of 1e5 simulated claims tracks the formula."""
    started = time.perf_counter()
    grid = TimeGrid.regular(2.0)
    model = PiecewiseConstantIntensity(breakpoints=(0.5,), rates=(1.0, 2.0))
    path = simulate_intensity_path(model, grid)
    delay = DelayLaw(alpha0=0.3, density=ExponentialDelay(2.0))
    n = 100_000
    claims = simulate_portfolio(n, path, delay, MarkLaw(mean=1.0),
                                DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
                                horizon=2.0, seed=2024)
    reports = np.array([c.report_time if c.occurred else math.inf for c in claims])
    worst = 0.0
    detail = []
    for t in np.linspace(0.2, 2.0, 10):
        p = reporting_cdf(path, delay, float(t))
        emp = float(np.mean(reports <= t))
        se = math.sqrt(p * (1.0 - p) / n)
        zscore = abs(emp - p) / se
        worst = max(worst, zscore)
        detail.append(zscore)
    elapsed = time.perf_counter() - started
    return [
        _result("simulator_matches_reporting_cdf", worst <= 3.0,
                f"max |z|={worst:.2f} over 10 checkpoints"),
        _result("simulator_consistency_runtime", elapsed < 30.0, f"{elapsed:.1f} s < 30 s"),
    ]


def check_accident_independence() -> list[CheckResult]:
    """Two policies' accident indicators factorize under a shared deterministic rate."""
    grid = TimeGrid.regular(2.0)
    path = simulate_intensity_path(ConstantIntensity(1.0), grid)
    life = DelayLaw(alpha0=1.0)
    fm = MarkLaw(mean=1.0)
    dev = DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0))
    n_draws = 100_000
    hits = np.empty((n_draws, 2), dtype=bool)
    for k in range(n_draws):
        seed = np.random.SeedSequence(777, spawn_key=(k,))
        claims = simulate_portfolio(2, path, life, fm, dev, horizon=2.0, seed=seed)
        hits[k, 0] = claims[0].accident_time <= 1.0
        hits[k, 1] = claims[1].accident_time <= 1.0
    p1 = float(np.mean(hits[:, 0]))
    p2 = float(np.mean(hits[:, 1]))
    p12 = float(np.mean(hits[:, 0] & hits[:, 1]))
    se = math.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2) / n_draws)
    gap = abs(p12 - p1 * p2)
    return [_result("accident_indicators_factorize", gap <= 3.0 * se,
                    f"|p12 - p1 p2|={gap:.2e} <= 3 SE={3.0 * se:.2e}")]


@dataclass(frozen=True)
class AgreementCase:
    """One analytic-vs-oracle configuration of the regression suite: a book
    valued at t = 0 by both legs."""

    name: str
    book: McConfig
    intensity_draws: int = 8192

    def analytic(self):
        b = self.book
        state = PortfolioState.from_counts(0.0, b.n_policies, 0)
        return reserve(state, b.intensity, b.delay, b.first_mark, b.development, b.T,
                       market=b.market, intensity_draws=self.intensity_draws, seed=b.seed + 1)


AGREEMENT_CASES: tuple[AgreementCase, ...] = (
    AgreementCase("life_reduction", McConfig(
        n_policies=1, t=0.0, T=1.0,
        intensity=ConstantIntensity(1.0), delay=DelayLaw(alpha0=1.0),
        first_mark=MarkLaw(mean=1.0),
        development=DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
        market=DeterministicDeflator(1.0), seed=101)),
    AgreementCase("pure_delay_ibnr", McConfig(
        n_policies=5, t=0.0, T=1.0,
        intensity=ConstantIntensity(1.0),
        delay=DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0)),
        first_mark=MarkLaw(mean=1.0, kind="exponential"),
        development=DevelopmentLaw(rate=0.0, mark=MarkLaw(mean=1.0)),
        market=DeterministicDeflator(1.0), seed=102)),
    AgreementCase("development_heavy", McConfig(
        n_policies=5, t=0.0, T=2.0,
        intensity=ConstantIntensity(1.0), delay=DelayLaw(alpha0=1.0),
        first_mark=MarkLaw(mean=1.0),
        development=DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential")),
        market=DeterministicDeflator(1.0), seed=103)),
    AgreementCase("mixed", McConfig(
        n_policies=10, t=0.0, T=2.0,
        intensity=PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(0.8, 1.2)),
        delay=DelayLaw(alpha0=0.3, density=ExponentialDelay(1.5)),
        first_mark=MarkLaw(mean=2.0, kind="exponential"),
        development=DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.8, kind="lognormal", sigma_ln=0.5)),
        market=DeterministicDeflator(1.0), seed=104)),
    AgreementCase("stochastic_intensity", McConfig(
        n_policies=5, t=0.0, T=2.0,
        intensity=LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
        delay=DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)),
        first_mark=MarkLaw(mean=1.0, kind="exponential"),
        development=DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5, kind="lognormal", sigma_ln=0.5)),
        market=DeterministicDeflator(1.0), seed=105), intensity_draws=32768),
    AgreementCase("martingale_deflator", McConfig(
        n_policies=5, t=0.0, T=1.5,
        intensity=ConstantIntensity(1.0),
        delay=DelayLaw(alpha0=0.0, density=ExponentialDelay(2.0)),
        first_mark=MarkLaw(mean=1.0, kind="exponential"),
        development=DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5, kind="exponential")),
        market=MartingaleDeflator(init=1.0, vol=0.3), seed=106)),
)


def check_mc_agreement(threads: int = 1) -> list[CheckResult]:
    """Analytic reserve vs the Monte Carlo oracle across six regimes."""
    started = time.perf_counter()
    out = []
    for case in AGREEMENT_CASES:
        analytic = case.analytic()
        estimate = mc_reserve(case.book, threads=threads)
        report = compare(analytic, estimate)
        out.append(_result(
            f"mc_agreement_{case.name}", report.passed,
            f"analytic={analytic.total:.5g} mc={estimate.mean:.5g}"
            f"+-{estimate.std_error:.2g} z={report.z:.2f}"))
    elapsed = time.perf_counter() - started
    out.append(_result("mc_agreement_runtime", elapsed < 300.0, f"{elapsed:.1f} s < 300 s"))
    return out


def check_conditional_buckets(threads: int = 1) -> list[CheckResult]:
    """Bucketed oracle at t > 0 matches the formula for low, middle and full counts."""
    n = 6
    t, horizon = 1.0, 2.0
    intensity = ConstantIntensity(1.0)
    delay = DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0))
    fm = MarkLaw(mean=1.0, kind="exponential")
    dev = DevelopmentLaw(rate=2.0, mark=MarkLaw(mean=0.5, kind="exponential"))
    market = DeterministicDeflator(1.0)
    grid = TimeGrid.regular(horizon)
    path = simulate_intensity_path(intensity, grid)
    out = []
    for target in (0, n // 2, n):
        state = PortfolioState.from_counts(t, n, target)
        analytic = reserve(state, path, delay, fm, dev, horizon, market=market)
        config = McConfig(
            n_policies=n, t=t, T=horizon, intensity=intensity, delay=delay,
            first_mark=fm, development=dev, market=market, n_paths=200_000,
            seed=2030 + target, conditioning=target)
        estimate = mc_reserve(config, threads=threads)
        report = compare(analytic, estimate)
        out.append(_result(
            f"conditional_bucket_r{target}", report.passed,
            f"analytic={analytic.total:.5g} mc={estimate.mean:.5g}"
            f"+-{estimate.std_error:.2g} z={report.z:.2f} paths={estimate.n_effective}"))
    return out


def check_determinism() -> list[CheckResult]:
    """Identical seeds give byte-identical report files, whatever the thread count."""
    from .cli import run_scenario

    config = {
        "schema_version": 1,
        "seed": 99,
        "intensity": {"kind": "constant", "mu": 1.0},
        "delay": {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2.0}},
        "first_mark": {"mean": 1.0, "kind": "exponential"},
        "development": {"rate": 1.0, "mark_mean": 0.5, "mark_kind": "exponential"},
        "market": {"kind": "martingale", "init": 1.0, "vol": 0.3},
        "portfolio": {"n": 4},
        "valuation": {"T": 1.0},
        "mc": {"n_paths": 8192},
    }
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "scenario.json"
        cfg_path.write_text(json.dumps(config, indent=2))
        codes = []
        for label, threads in (("a", 1), ("b", 4), ("c", 1)):
            codes.append(run_scenario(cfg_path, Path(tmp) / label,
                                      validate=True, threads=threads))
        same_threads = all(
            filecmp.cmp(Path(tmp) / "a" / name, Path(tmp) / "b" / name, shallow=False)
            for name in ("report.json", "curve.csv"))
        same_rerun = all(
            filecmp.cmp(Path(tmp) / "a" / name, Path(tmp) / "c" / name, shallow=False)
            for name in ("report.json", "curve.csv"))
        out.append(_result("reports_thread_invariant", same_threads and codes[0] == codes[1],
                           "threads 1 vs 4 produce identical bytes"))
        out.append(_result("reports_rerun_invariant", same_rerun and codes[0] == codes[2],
                           "two identical runs produce identical bytes"))
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

QUICK_CHECKS: tuple[Callable[[], list[CheckResult]], ...] = (
    check_closed_form_cdf,
    check_life_reduction,
    check_density_closed_form,
    check_quadrature_order,
    check_hazard_values,
    check_reserve_identities,
)


def run_selftest(quick: bool = False, threads: int = 1) -> int:
    """Run the suite, print one line per check and return the exit code."""
    results: list[CheckResult] = []
    for fn in QUICK_CHECKS:
        results.extend(fn())
    if not quick:
        results.extend(check_simulator_consistency())
        results.extend(check_accident_independence())
        results.extend(check_mc_agreement(threads=threads))
        results.extend(check_conditional_buckets(threads=threads))
        results.extend(check_determinism())
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1
