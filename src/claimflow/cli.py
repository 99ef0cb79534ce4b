"""Batch front end: scenario configs in, reports out.

A scenario is a single JSON file; every piece of randomness flows from its
one top-level seed, so a config plus a seed reproduces a whole report.
``claimflow run`` prices the scenario (analytic formula, Monte Carlo
oracle, or both with a cross-check) and writes

* ``report.json``: config hash, reserve breakdown, Monte Carlo estimate
  and comparison verdict (deterministic content; wall-clock timings go to
  stdout only so identical runs produce identical bytes), and
* ``curve.csv``: the reporting probability, its density, the unreported
  backlog probability and the no-accident probability on the grid
  (RFC 4180, 12 significant digits).

Exit codes: 0 success, 1 config error naming the field (also a regime that
no requested leg can price), 2 failed analytic-vs-MC comparison under
``--validate``, 3 scenario outside the closed-form regime (``--mc-only``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .claims import DelayLaw, DevelopmentLaw, ExponentialDelay, GammaDelay, MarkLaw, PortfolioState
from .errors import (
    ClaimflowError,
    ConfigurationError,
    SchemaError,
    UnsupportedRegimeError,
)
from .grids import DEFAULT_STEP, TimeGrid
from .intensity import (
    ConstantIntensity,
    IntensityModel,
    LogOUIntensity,
    PiecewiseConstantIntensity,
    is_deterministic,
    simulate_intensity_path,
)
from .market import DeterministicDeflator, MarketModel, MartingaleDeflator, constant_level
from .mc import BLOCK_SIZE, Z_THRESHOLD, McConfig, compare, mc_conditional_reserve, mc_reserve
from .pricing import (
    ibnr_probability,
    reporting_cdf,
    reporting_curve,
    reporting_density,
    reserve,
)
from ._rng import substream

SCHEMA_VERSION = 1

# Substream purpose for the representative curve path under a stochastic
# intensity; distinct from every other purpose in the package.
_STREAM_CURVE = 0xC4E

_MISSING = object()

#: Most grid cells a config may ask for: an hourly grid over about 60 years.
#: The analytic run at this size takes about 6 s and 250 MB.
MAX_GRID_CELLS = 1 << 19

#: Most values (128 MiB of float64) in one per-path array: policies x paths
#: per Monte Carlo block for the oracle, and under a log-OU intensity also
#: cells x paths per block and cells x intensity draws for the stochastic
#: reserve.
MAX_PATH_GRID_VALUES = 1 << 24

#: Largest mean of a first or development mark.  A sampled mark exceeds its
#: mean by at most about e^(z^2 / 2) < 1e18 (lognormal, |z| <= 9; an
#: exponential by about 37), and so does a martingale deflator's ratio.  So
#: a payoff stays below payments x 1e136, and the sum of squares in the
#: oracle's standard error below paths x payments^2 x 1e272: finite for
#: up to 1e36 paths x payments^2, beyond any book the other bounds admit.
MAX_MARK_MEAN = 1e100


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: parsed model objects plus the config fingerprint."""

    sha256: str
    seed: int
    grid_step: float
    intensity: IntensityModel
    delay: DelayLaw
    first_mark: MarkLaw
    development: DevelopmentLaw
    market: MarketModel
    n_policies: int
    reported_count: int
    t: float
    T: float
    n_paths: int
    antithetic: bool
    intensity_draws: int
    report_name: str
    curve_name: str


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _check_keys(node: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(node, dict):
        raise SchemaError(where, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in node:
            raise SchemaError(f"{where}.{key}", "missing required field")


def _is_finite_number(value: Any) -> bool:
    # JSON admits NaN and Infinity, a literal such as 1e400 parses to inf and
    # an integer literal can exceed the float range; none is a usable parameter.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(node: dict, key: str, where: str, *, lo: float | None = None,
            hi: float | None = None, strict_lo: bool = False,
            default: Any = _MISSING) -> float:
    if key not in node:
        if default is _MISSING:
            raise SchemaError(f"{where}.{key}", "missing required field")
        return default
    value = node[key]
    if not _is_finite_number(value):
        raise SchemaError(f"{where}.{key}", f"expected a finite number, got {value!r}")
    value = float(value)
    if lo is not None and (value <= lo if strict_lo else value < lo):
        bound = f"> {lo}" if strict_lo else f">= {lo}"
        raise SchemaError(f"{where}.{key}", f"must be {bound}, got {value}")
    if hi is not None and value > hi:
        raise SchemaError(f"{where}.{key}", f"must be <= {hi}, got {value}")
    return value


def _integer(node: dict, key: str, where: str, *, lo: int | None = None,
             default: Any = _MISSING) -> int:
    if key not in node:
        if default is _MISSING:
            raise SchemaError(f"{where}.{key}", "missing required field")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key}", f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise SchemaError(f"{where}.{key}", f"must be >= {lo}, got {value}")
    return value


def _string(node: dict, key: str, where: str, *, choices: tuple[str, ...] | None = None,
            default: Any = _MISSING) -> str:
    if key not in node:
        if default is _MISSING:
            raise SchemaError(f"{where}.{key}", "missing required field")
        return default
    value = node[key]
    if not isinstance(value, str):
        raise SchemaError(f"{where}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise SchemaError(f"{where}.{key}", f"must be one of {choices}, got {value!r}")
    return value


def _parse_intensity(node: Any) -> IntensityModel:
    where = "intensity"
    if not isinstance(node, dict):
        raise SchemaError(where, "expected an object")
    kind = _string(node, "kind", where, choices=("constant", "piecewise", "log_ou"))
    if kind == "constant":
        _check_keys(node, where, ("kind", "mu"))
        return ConstantIntensity(mu=_number(node, "mu", where, lo=0.0))
    if kind == "piecewise":
        _check_keys(node, where, ("kind", "breakpoints", "rates"))
        bp = node["breakpoints"]
        ra = node["rates"]
        if not isinstance(bp, list) or not all(map(_is_finite_number, bp)):
            raise SchemaError(f"{where}.breakpoints", "expected a list of finite numbers")
        if not isinstance(ra, list) or not all(map(_is_finite_number, ra)):
            raise SchemaError(f"{where}.rates", "expected a list of finite numbers")
        try:
            return PiecewiseConstantIntensity(breakpoints=tuple(bp), rates=tuple(ra))
        except ConfigurationError as exc:
            raise SchemaError(where, str(exc)) from exc
    _check_keys(node, where, ("kind", "mean_rev", "long_run_log_level", "vol", "init"))
    return LogOUIntensity(
        mean_rev=_number(node, "mean_rev", where, lo=0.0),
        long_run_log_level=_number(node, "long_run_log_level", where),
        vol=_number(node, "vol", where, lo=0.0),
        init=_number(node, "init", where, lo=0.0, strict_lo=True),
    )


def _parse_delay(node: Any) -> DelayLaw:
    where = "delay"
    _check_keys(node, where, ("alpha0",), ("density",))
    alpha0 = _number(node, "alpha0", where, lo=0.0, hi=1.0)
    density_node = node.get("density")
    if density_node is None:
        if alpha0 != 1.0:
            raise SchemaError(f"{where}.density", "required when alpha0 < 1")
        return DelayLaw(alpha0=1.0)
    dwhere = f"{where}.density"
    kind = _string(density_node, "kind", dwhere, choices=("exponential", "gamma"))
    if kind == "exponential":
        _check_keys(density_node, dwhere, ("kind", "rate"))
        density = ExponentialDelay(rate=_number(density_node, "rate", dwhere, lo=0.0, strict_lo=True))
    else:
        _check_keys(density_node, dwhere, ("kind", "shape", "rate"))
        density = GammaDelay(
            shape=_number(density_node, "shape", dwhere, lo=1.0),
            rate=_number(density_node, "rate", dwhere, lo=0.0, strict_lo=True),
        )
    if alpha0 == 1.0:
        raise SchemaError(f"{where}.density", "must be null when alpha0 = 1")
    return DelayLaw(alpha0=alpha0, density=density)


def _parse_mark(node: Any, where: str, mean_key: str = "mean") -> MarkLaw:
    kind = _string(node, "kind" if mean_key == "mean" else "mark_kind", where,
                   choices=("deterministic", "exponential", "lognormal"),
                   default="deterministic")
    return MarkLaw(
        mean=_number(node, mean_key, where, lo=0.0, strict_lo=True, hi=MAX_MARK_MEAN),
        kind=kind,
        sigma_ln=_number(node, "sigma_ln", where, lo=0.0, default=0.0),
    )


def _parse_market(node: Any) -> MarketModel:
    where = "market"
    if node is None:
        return DeterministicDeflator(1.0)
    kind = _string(node, "kind", where, choices=("deterministic", "martingale"))
    if kind == "deterministic":
        _check_keys(node, where, ("kind",), ("level",))
        return DeterministicDeflator(level=_number(node, "level", where, lo=0.0, strict_lo=True, default=1.0))
    _check_keys(node, where, ("kind", "init", "vol"), ("corr_with_intensity",))
    return MartingaleDeflator(
        init=_number(node, "init", where, lo=0.0, strict_lo=True),
        vol=_number(node, "vol", where, lo=0.0),
        corr_with_intensity=_number(node, "corr_with_intensity", where, lo=-1.0, hi=1.0, default=0.0),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Validate a scenario config; unknown fields are rejected."""
    try:
        root = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise SchemaError("<config>", f"invalid JSON: {exc}") from exc
    _check_keys(root, "<config>",
                ("schema_version", "seed", "intensity", "delay", "first_mark",
                 "development", "portfolio", "valuation"),
                ("grid", "market", "mc", "output"))
    version = _integer(root, "schema_version", "<config>")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    seed = _integer(root, "seed", "<config>", lo=0)

    grid_node = root.get("grid", {})
    _check_keys(grid_node, "grid", (), ("step",))
    grid_step = _number(grid_node, "step", "grid", lo=0.0, strict_lo=True, default=DEFAULT_STEP)

    intensity = _parse_intensity(root["intensity"])
    delay = _parse_delay(root["delay"])

    fm_node = root["first_mark"]
    _check_keys(fm_node, "first_mark", ("mean",), ("kind", "sigma_ln"))
    first_mark = _parse_mark(fm_node, "first_mark")

    dev_node = root["development"]
    _check_keys(dev_node, "development", ("rate", "mark_mean"), ("mark_kind", "sigma_ln"))
    development = DevelopmentLaw(
        rate=_number(dev_node, "rate", "development", lo=0.0),
        mark=_parse_mark(dev_node, "development", mean_key="mark_mean"),
    )

    market = _parse_market(root.get("market"))
    if (isinstance(market, MartingaleDeflator) and market.corr_with_intensity != 0.0
            and is_deterministic(intensity)):
        raise SchemaError("market.corr_with_intensity",
                          "must be 0 unless the intensity is a stochastic log_ou")

    pf_node = root["portfolio"]
    _check_keys(pf_node, "portfolio", ("n",), ("reported_count",))
    n_policies = _integer(pf_node, "n", "portfolio", lo=0)
    reported_count = _integer(pf_node, "reported_count", "portfolio", lo=0, default=0)
    if reported_count > n_policies:
        raise SchemaError("portfolio.reported_count", f"exceeds portfolio size {n_policies}")

    val_node = root["valuation"]
    _check_keys(val_node, "valuation", ("T",), ("t",))
    t = _number(val_node, "t", "valuation", lo=0.0, default=0.0)
    T = _number(val_node, "T", "valuation", lo=0.0, strict_lo=True)
    if t > T:
        raise SchemaError("valuation.t", f"must be <= T = {T}, got {t}")
    if t == 0.0 and reported_count > 0:
        raise SchemaError("portfolio.reported_count", "must be 0 when valuing at t = 0")
    if t > 0.0 and not is_deterministic(intensity):
        raise SchemaError("valuation.t", "must be 0 under a stochastic log_ou intensity: "
                                         "no pricing leg conditions on a partial intensity history")

    # The grid has round(T / step) cells (TimeGrid.regular); bound them
    # before anything is allocated.
    ratio = T / grid_step
    cells = max(1, round(ratio)) if math.isfinite(ratio) else math.inf
    if cells > MAX_GRID_CELLS:
        raise SchemaError("grid.step", f"valuation.T / grid.step = {ratio:.6g} grid cells "
                                       f"exceeds the limit of {MAX_GRID_CELLS}")

    mc_node = root.get("mc", {})
    _check_keys(mc_node, "mc", (), ("n_paths", "antithetic", "intensity_draws"))
    n_paths = _integer(mc_node, "n_paths", "mc", lo=100, default=100_000)
    antithetic = mc_node.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise SchemaError("mc.antithetic", f"expected a boolean, got {antithetic!r}")
    if antithetic:
        if not (isinstance(market, MartingaleDeflator) and market.vol > 0.0):
            raise SchemaError("mc.antithetic", "needs a martingale deflator with market.vol > 0: "
                                               "antithetic variates mirror its draws")
        if n_paths % 2 != 0:
            raise SchemaError("mc.n_paths", f"must be even under mc.antithetic, got {n_paths}")
    intensity_draws = _integer(mc_node, "intensity_draws", "mc", lo=2, default=8192)
    if isinstance(intensity, LogOUIntensity):
        rows = min(BLOCK_SIZE, n_paths)
        if cells * rows > MAX_PATH_GRID_VALUES:
            raise SchemaError("grid.step", f"{cells} grid cells x {rows} Monte Carlo paths per block "
                                           f"exceed {MAX_PATH_GRID_VALUES} values per path array")
        if cells * intensity_draws > MAX_PATH_GRID_VALUES:
            raise SchemaError("mc.intensity_draws", f"{cells} grid cells x {intensity_draws} draws "
                                                    f"exceed {MAX_PATH_GRID_VALUES} values per path array")

    out_node = root.get("output", {})
    _check_keys(out_node, "output", (), ("report", "curve"))
    report_name = _string(out_node, "report", "output", default="report.json")
    curve_name = _string(out_node, "curve", "output", default="curve.csv")

    return ScenarioConfig(
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        seed=seed,
        grid_step=grid_step,
        intensity=intensity,
        delay=delay,
        first_mark=first_mark,
        development=development,
        market=market,
        n_policies=n_policies,
        reported_count=reported_count,
        t=t,
        T=T,
        n_paths=n_paths,
        antithetic=antithetic,
        intensity_draws=intensity_draws,
        report_name=report_name,
        curve_name=curve_name,
    )


# ---------------------------------------------------------------------------
# Report generation
# ---------------------------------------------------------------------------

def _write_curve(path: Path, grid: TimeGrid, curve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["time", "reporting_cdf", "reporting_density", "ibnr_prob", "survival"])
        ibnr = curve.ibnr
        for i, u in enumerate(grid.points):
            writer.writerow([
                f"{u:.12g}",
                f"{curve.cdf[i]:.12g}",
                f"{curve.density[i]:.12g}",
                f"{ibnr[i]:.12g}",
                f"{curve.survival[i]:.12g}",
            ])


def _finite(x: float) -> float | str:
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def run_scenario(
    config_path: str | Path,
    out_dir: str | Path = ".",
    *,
    validate: bool = False,
    mc_only: bool = False,
    analytic_only: bool = False,
    threads: int = 1,
) -> int:
    """Execute one scenario; returns the process exit code."""
    if mc_only and analytic_only:
        print("error: --mc-only and --analytic-only are mutually exclusive", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except SchemaError as exc:
        print(f"config error at {exc.field}: {exc.args[0][len(exc.field) + 2:]}", file=sys.stderr)
        return 1

    oracle_rows = min(BLOCK_SIZE, cfg.n_paths)
    if (mc_only or validate) and cfg.n_policies * oracle_rows > MAX_PATH_GRID_VALUES:
        print(f"config error at portfolio.n: {cfg.n_policies} policies x {oracle_rows} Monte Carlo "
              f"paths per block exceed {MAX_PATH_GRID_VALUES} values per path array "
              f"(--analytic-only prices it)", file=sys.stderr)
        return 1
    # Development events per block, one entry each in the oracle's arrays.
    dev_events = cfg.n_policies * oracle_rows * cfg.development.rate * cfg.T
    if (mc_only or validate) and dev_events > MAX_PATH_GRID_VALUES:
        print(f"config error at development.rate: {cfg.n_policies} policies x {oracle_rows} Monte "
              f"Carlo paths per block x rate {cfg.development.rate:g} x T = {cfg.T:g} expect "
              f"{dev_events:.6g} development events per block, over {MAX_PATH_GRID_VALUES} "
              f"values per path array (--analytic-only prices it)", file=sys.stderr)
        return 1

    out_dir = Path(out_dir)
    grid = TimeGrid.regular(cfg.T, step=cfg.grid_step)
    stochastic = not is_deterministic(cfg.intensity)
    curve_seed = substream(cfg.seed, _STREAM_CURVE) if stochastic else 0
    curve_path = simulate_intensity_path(cfg.intensity, grid, seed=curve_seed)
    curve = reporting_curve(curve_path, cfg.delay)

    analytic_result = None
    mc_estimate = None
    comparison = None
    timings: dict[str, float] = {}

    if not mc_only:
        state = PortfolioState.from_counts(cfg.t, cfg.n_policies, cfg.reported_count)
        t0 = time.perf_counter()
        try:
            # A deterministic intensity is priced on the curve's path, whose
            # node density reporting_curve has already memoized.
            analytic_result = reserve(
                state, cfg.intensity if stochastic else curve_path, cfg.delay, cfg.first_mark,
                cfg.development, cfg.T, market=cfg.market, grid=grid,
                intensity_draws=cfg.intensity_draws, seed=cfg.seed)
        except UnsupportedRegimeError as exc:
            print(f"unsupported pricing regime: {exc}", file=sys.stderr)
            return 3
        except ClaimflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        timings["analytic_s"] = time.perf_counter() - t0

    if mc_only or validate:
        conditioning = None if (cfg.t == 0.0 and cfg.reported_count == 0) else cfg.reported_count
        if conditioning is not None and constant_level(cfg.market) is None:
            print("config error at market.vol: must be 0 for the Monte Carlo oracle at "
                  "valuation.t > 0 (--analytic-only prices it)", file=sys.stderr)
            return 1
        t0 = time.perf_counter()
        try:
            mc_config = McConfig(
                n_policies=cfg.n_policies, t=cfg.t, T=cfg.T, intensity=cfg.intensity,
                delay=cfg.delay, first_mark=cfg.first_mark, development=cfg.development,
                market=cfg.market, n_paths=cfg.n_paths, seed=cfg.seed,
                grid_step=cfg.grid_step, conditioning=conditioning, antithetic=cfg.antithetic)
            if conditioning is None:
                mc_estimate = mc_reserve(mc_config, threads=threads)
            else:
                mc_estimate = mc_conditional_reserve(mc_config, threads=threads)
        except ClaimflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        timings["mc_s"] = time.perf_counter() - t0

    if analytic_result is not None and mc_estimate is not None:
        comparison = compare(analytic_result, mc_estimate)

    # No execution details (threads, wall clock) in the file: identical
    # configs and seeds must produce identical bytes.
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "grid": {"t0": 0.0, "t_end": cfg.T, "step": grid.step, "n_points": grid.n_cells + 1},
        "valuation": {"t": cfg.t, "T": cfg.T, "n_policies": cfg.n_policies,
                      "reported_count": cfg.reported_count},
        "curve_intensity": "representative sampled path" if stochastic else "deterministic path",
        "analytic": None,
        "mc": None,
        "comparison": None,
        "curve_at_t": {
            "reporting_cdf": reporting_cdf(curve_path, cfg.delay, cfg.t),
            "reporting_density": reporting_density(curve_path, cfg.delay, cfg.t),
            "ibnr_prob": ibnr_probability(curve_path, cfg.delay, cfg.t),
            "survival": curve_path.survival(cfg.t),
        },
    }
    if analytic_result is not None:
        report["analytic"] = {
            "reported_component": analytic_result.reported_component,
            "unreported_component": analytic_result.unreported_component,
            "total": analytic_result.total,
            "diagnostics": analytic_result.diagnostics,
        }
    if mc_estimate is not None:
        report["mc"] = {
            "mean": mc_estimate.mean,
            "std_error": mc_estimate.std_error,
            "n_effective": mc_estimate.n_effective,
            "ci95": list(mc_estimate.ci95),
            "n_paths": cfg.n_paths,
            "antithetic": cfg.antithetic,
        }
    if comparison is not None:
        report["comparison"] = {
            "z": _finite(comparison.z),
            "passed": comparison.passed,
            "threshold": Z_THRESHOLD,
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / cfg.report_name
    curve_path_file = out_dir / cfg.curve_name
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_curve(curve_path_file, grid, curve)

    elapsed = time.perf_counter() - started
    print(f"wrote {report_path} and {curve_path_file}")
    if analytic_result is not None:
        print(f"analytic reserve: total={analytic_result.total:.6g} "
              f"(reported={analytic_result.reported_component:.6g}, "
              f"unreported={analytic_result.unreported_component:.6g})")
    if mc_estimate is not None:
        print(f"mc reserve: {mc_estimate.mean:.6g} +- {mc_estimate.std_error:.3g} "
              f"({mc_estimate.n_effective} effective paths)")
    if comparison is not None:
        print(f"comparison: z={comparison.z:.3f} -> {'pass' if comparison.passed else 'FAIL'}")
    stage = " ".join(f"{k}={v:.2f}" for k, v in timings.items())
    print(f"elapsed: {elapsed:.2f} s {stage}".rstrip())

    if validate and comparison is not None and not comparison.passed:
        return 2
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="claimflow",
                                     description="Non-life liability simulation and pricing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="price a scenario config")
    p_run.add_argument("config", help="path to the scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--validate", action="store_true",
                       help="also run the Monte Carlo oracle and cross-check")
    p_run.add_argument("--mc-only", action="store_true", help="skip the analytic formula")
    p_run.add_argument("--analytic-only", action="store_true", help="skip the Monte Carlo oracle")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads for the oracle")

    p_self = sub.add_parser("selftest", help="run the built-in regression suite")
    p_self.add_argument("--quick", action="store_true", help="closed-form checks only")
    p_self.add_argument("--threads", type=int, default=1, help="worker threads for the oracle")

    args = parser.parse_args(argv)
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        sys.exit(1)
    if args.command == "run":
        code = run_scenario(
            args.config, args.out, validate=args.validate, mc_only=args.mc_only,
            analytic_only=args.analytic_only, threads=args.threads)
    else:
        from .selftest import run_selftest
        code = run_selftest(quick=args.quick, threads=args.threads)
    sys.exit(code)


if __name__ == "__main__":
    main()
