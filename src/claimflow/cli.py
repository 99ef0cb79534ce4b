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
  (RFC 4180, 12 significant digits), along the path the reserve prices: for
  a stochastic book the mean law of its draws (``pricing.effective_path``).

``parse_config`` only translates JSON (shapes, types, finiteness, each
``kind``) into one ``ScenarioConfig``: an ``McConfig``, the book both legs
read, plus four CLI fields (``sha256``, ``intensity_draws``,
``report_name``, ``curve_name``).  One table, ``_KINDS``, maps each kind of
a section that dispatches on it to its law record and its required and
optional keys, and one reader builds every law record; an absent optional
key is not passed, so the record's own default applies.  Each bound is
stated once, as a ``SchemaError``, by the record that owns its field; a law
record's refusal of its attribute is re-raised under the field's JSON path.  Under
``--validate`` or ``--mc-only``, ``check_oracle_bounds`` (which
``mc_reserve`` also enforces) refuses a book too large for the oracle
before any pricing; ``--analytic-only`` never calls it.

Exit codes: 0 success, 1 config error naming the field (also a regime that
no requested leg can price, a failed comparison whose quadrature error
estimate exceeds the oracle's standard error: ``grid.step``, or an analytic
reserve that is not finite: ``valuation.T``), 2 failed analytic-vs-MC
comparison under ``--validate``, 3 scenario outside the closed-form regime
(``--mc-only``).  An unreadable config or unwritable output also exits 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from .claims import DelayLaw, DevelopmentLaw, ExponentialDelay, GammaDelay, MarkLaw, PortfolioState
from .errors import ClaimflowError, InsufficientDataError, SchemaError, UnsupportedRegimeError
from .grids import DEFAULT_STEP, TimeGrid
from .intensity import (
    ConstantIntensity,
    LogOUIntensity,
    PiecewiseConstantIntensity,
    is_deterministic,
    simulate_intensity_path,
)
from .market import DeterministicDeflator, MartingaleDeflator
from .mc import (
    MAX_PATH_GRID_VALUES,
    Z_THRESHOLD,
    McConfig,
    check_oracle_bounds,
    compare,
    mc_reserve,
    n_blocks,
)
from .pricing import (
    ReserveResult,
    check_reserve_regime,
    effective_path,
    ibnr_probability,
    reporting_cdf,
    reporting_curve,
    reporting_density,
    reserve,
)

SCHEMA_VERSION = 1

_MISSING = object()


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(McConfig):
    """Validated scenario: an ``McConfig``, the book both legs read, plus the
    CLI's own fields; ``conditioning`` is None for a valuation at t = 0."""

    sha256: str
    intensity_draws: int
    report_name: str
    curve_name: str

    def __post_init__(self) -> None:
        super().__post_init__()
        draws = self.intensity_draws
        if not draws >= 2:
            raise SchemaError("mc.intensity_draws", f"must be >= 2, got {draws}")
        # One bracket per draw; the levels are built a cache-sized part at a time.
        if isinstance(self.intensity, LogOUIntensity) and draws > MAX_PATH_GRID_VALUES:
            raise SchemaError("mc.intensity_draws", f"{draws} draws exceed {MAX_PATH_GRID_VALUES} "
                                                    f"values per path array")
        for key, name in (("output.report", self.report_name), ("output.curve", self.curve_name)):
            if name in ("", ".", "..") or Path(name).name != name:
                raise SchemaError(key, f"must be a plain file name, got {name!r}")
        if self.curve_name == self.report_name:
            raise SchemaError("output.curve", f"must differ from output.report, got {self.curve_name!r}")

    @property
    def reported_count(self) -> int:
        return 0 if self.conditioning is None else self.conditioning


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _join(where: str, key: str) -> str:
    """The JSON path of ``key`` in the object at ``where``; a top-level key is bare."""
    return key if where == "<config>" else f"{where}.{key}"


def _check_keys(node: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(node, dict):
        raise SchemaError(where, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(_join(where, key), "unknown field")
    for key in required:
        if key not in node:
            raise SchemaError(_join(where, key), "missing required field")


def _is_finite_number(value: Any) -> bool:
    # JSON admits NaN and Infinity, a literal such as 1e400 parses to inf and
    # an integer literal can exceed the float range; none is a usable parameter.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _field(node: dict, key: str, where: str, default: Any, valid: Callable[[Any], bool],
           expected: str) -> Any:
    """``node[key]``, refused unless ``valid``, or ``default`` if it is absent."""
    if key not in node:
        if default is _MISSING:
            raise SchemaError(_join(where, key), "missing required field")
        return default
    if not valid(node[key]):
        raise SchemaError(_join(where, key), f"expected {expected}, got {node[key]!r}")
    return node[key]


def _number(node: dict, key: str, where: str, *, default: Any = _MISSING) -> float:
    return float(_field(node, key, where, default, _is_finite_number, "a finite number"))


def _integer(node: dict, key: str, where: str, *, default: Any = _MISSING) -> int:
    return _field(node, key, where, default, lambda v: isinstance(v, int) and not isinstance(v, bool),
                  "an integer")


def _string(node: dict, key: str, where: str, *, default: Any = _MISSING) -> str:
    return _field(node, key, where, default, lambda v: isinstance(v, str), "a string")


def _numbers(node: dict, key: str, where: str) -> tuple:
    value = node[key]
    if not isinstance(value, list) or not all(map(_is_finite_number, value)):
        raise SchemaError(_join(where, key), "expected a list of finite numbers")
    return tuple(value)


#: The reader of each key whose value is not a finite number.
_READERS: dict[str, Callable[[dict, str, str], Any]] = {
    "breakpoints": _numbers, "rates": _numbers, "kind": _string, "mark_kind": _string}

#: For each section that dispatches on ``kind``: each kind's record, its
#: required keys and its optional keys, in the order they are read.  A new
#: kind is one row.
_KINDS: dict[str, dict[str, tuple[type, tuple[str, ...], tuple[str, ...]]]] = {
    "intensity": {
        "constant": (ConstantIntensity, ("mu",), ()),
        "piecewise": (PiecewiseConstantIntensity, ("breakpoints", "rates"), ()),
        "log_ou": (LogOUIntensity, ("mean_rev", "long_run_log_level", "vol", "init"), ()),
    },
    "delay.density": {
        "exponential": (ExponentialDelay, ("rate",), ()),
        "gamma": (GammaDelay, ("shape", "rate"), ()),
    },
    "market": {
        "deterministic": (DeterministicDeflator, (), ("level",)),
        "martingale": (MartingaleDeflator, ("init", "vol"), ("corr_with_intensity",)),
    },
}


def _build(where: str, record: type, keys: dict[str, str], **values: Any) -> Any:
    """``record(**values)``, its refusal of an attribute re-raised under the
    JSON path ``where`` + the attribute's key (``keys``, by default its name)."""
    try:
        return record(**values)
    except SchemaError as exc:
        raise SchemaError(f"{where}.{keys.get(exc.field, exc.field)}", exc.reason) from None


def _record(node: dict, where: str, record: type, names: tuple[str, ...], keys: dict[str, str]) -> Any:
    """``record`` built from those of its attributes ``names`` whose keys
    (``keys``, by default the name) ``node`` holds; an absent one is not
    passed, so it takes the record's default."""
    values = {}
    for name in names:
        key = keys.get(name, name)
        if key in node:
            values[name] = _READERS.get(key, _number)(node, key, where)
    return _build(where, record, keys, **values)


def _by_kind(node: Any, where: str) -> Any:
    """The record of the object at ``where``, as its ``kind`` names in ``_KINDS``."""
    kinds = _KINDS[where]
    if not isinstance(node, dict):
        raise SchemaError(where, f"expected an object, got {type(node).__name__}")
    kind = _string(node, "kind", where)
    if kind not in kinds:
        raise SchemaError(f"{where}.kind", f"must be one of {tuple(kinds)}, got {kind!r}")
    record, required, optional = kinds[kind]
    _check_keys(node, where, ("kind", *required), optional)
    return _record(node, where, record, required + optional, {})


def parse_config(text: str) -> ScenarioConfig:
    """Translate a scenario config into a ``ScenarioConfig``; unknown fields are rejected.

    Checks JSON shape, types and finiteness and dispatches on each ``kind``;
    every bound is the record's own (see the module docstring).
    """
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
    seed = _integer(root, "seed", "<config>")

    grid_node = root.get("grid", {})
    _check_keys(grid_node, "grid", (), ("step",))
    grid_step = _number(grid_node, "step", "grid", default=DEFAULT_STEP)

    intensity = _by_kind(root["intensity"], "intensity")

    delay_node = root["delay"]
    _check_keys(delay_node, "delay", ("alpha0",), ("density",))
    alpha0 = _number(delay_node, "alpha0", "delay")
    density = delay_node.get("density")
    delay = _build("delay", DelayLaw, {}, alpha0=alpha0,
                   density=None if density is None else _by_kind(density, "delay.density"))

    fm_node = root["first_mark"]
    _check_keys(fm_node, "first_mark", ("mean",), ("kind", "sigma_ln"))
    first_mark = _record(fm_node, "first_mark", MarkLaw, ("mean", "kind", "sigma_ln"), {})

    dev_node = root["development"]
    _check_keys(dev_node, "development", ("rate", "mark_mean"), ("mark_kind", "sigma_ln"))
    # The development section prefixes its mark's mean and kind with "mark_".
    development = _build("development", DevelopmentLaw, {}, rate=_number(dev_node, "rate", "development"),
                         mark=_record(dev_node, "development", MarkLaw, ("mean", "kind", "sigma_ln"),
                                      {"mean": "mark_mean", "kind": "mark_kind"}))

    market_node = root.get("market")
    market = DeterministicDeflator() if market_node is None else _by_kind(market_node, "market")

    pf_node = root["portfolio"]
    _check_keys(pf_node, "portfolio", ("n",), ("reported_count",))
    n_policies = _integer(pf_node, "n", "portfolio")
    reported_count = _integer(pf_node, "reported_count", "portfolio", default=0)

    val_node = root["valuation"]
    _check_keys(val_node, "valuation", ("T",), ("t",))
    t = _number(val_node, "t", "valuation", default=0.0)
    T = _number(val_node, "T", "valuation")

    mc_node = root.get("mc", {})
    _check_keys(mc_node, "mc", (), ("n_paths", "antithetic", "intensity_draws"))
    n_paths = _integer(mc_node, "n_paths", "mc", default=100_000)
    antithetic = _field(mc_node, "antithetic", "mc", False, lambda v: isinstance(v, bool), "a boolean")
    intensity_draws = _integer(mc_node, "intensity_draws", "mc", default=8192)

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
        conditioning=None if (t == 0.0 and reported_count == 0) else reported_count,
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
    if validate + mc_only + analytic_only > 1:
        print("error: --validate, --mc-only and --analytic-only are mutually exclusive",
              file=sys.stderr)
        return 1
    analytic = not mc_only
    oracle = validate or mc_only
    started = time.perf_counter()
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except SchemaError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 1
    if oracle:
        try:
            check_oracle_bounds(cfg)
        except SchemaError as exc:
            print(f"config error at {exc} (--analytic-only prices it)", file=sys.stderr)
            return 1
        if threads < 1:
            print(f"error: threads must be >= 1, got {threads}", file=sys.stderr)
            return 1
    stochastic = not is_deterministic(cfg.intensity)
    if analytic:
        try:
            check_reserve_regime(cfg.intensity, cfg.market, cfg.t)
        except UnsupportedRegimeError as exc:
            print(f"unsupported pricing regime: {exc}", file=sys.stderr)
            return 3

    out_dir = Path(out_dir)
    grid = cfg.grid()

    def price() -> tuple[ReserveResult, float]:
        """The analytic reserve and its wall time."""
        t0 = time.perf_counter()
        result = reserve(
            PortfolioState.from_counts(cfg.t, cfg.n_policies, cfg.reported_count),
            cfg.intensity, cfg.delay, cfg.first_mark,
            cfg.development, cfg.T, market=cfg.market, grid=grid,
            intensity_draws=cfg.intensity_draws, seed=cfg.seed)
        return result, time.perf_counter() - t0

    analytic_result = None
    mc_estimate = None
    mc_error = None
    comparison = None
    timings: dict[str, float] = {}

    # Under --validate the reserve is the first task of the oracle's pool:
    # it runs beside the blocks, and the run never exceeds `threads` workers.
    with ThreadPoolExecutor(max_workers=threads) if validate else nullcontext() as pool:
        priced = pool.submit(price) if validate else None
        if oracle:
            t0 = time.perf_counter()
            try:
                mc_estimate = mc_reserve(cfg, threads=threads, pool=pool)
            except ClaimflowError as exc:
                mc_error = exc
            timings["mc_s"] = time.perf_counter() - t0
        if analytic:
            try:
                analytic_result, timings["analytic_s"] = priced.result() if priced else price()
            except SchemaError as exc:
                # Its horizon T: ScenarioConfig has bounded intensity_draws.
                print(f"config error at valuation.{exc}", file=sys.stderr)
                return 1
            except ClaimflowError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    # An analytic error takes precedence over the oracle's.  Too few paths
    # in the conditioning bucket is cured by more of them.
    if isinstance(mc_error, InsufficientDataError):
        print(f"config error at mc.n_paths: {mc_error}", file=sys.stderr)
        return 1
    if mc_error is not None:
        print(f"error: {mc_error}", file=sys.stderr)
        return 1

    if analytic_result is not None and mc_estimate is not None:
        comparison = compare(analytic_result, mc_estimate)
    # The curve is along the path the reserve priced, built the same way under --mc-only.
    if analytic_result is not None:
        path = analytic_result.path
    elif stochastic:
        path = effective_path(cfg.intensity, grid, cfg.intensity_draws, cfg.seed)[0]
    else:
        path = simulate_intensity_path(cfg.intensity, grid)
    curve = reporting_curve(path, cfg.delay)

    # No execution details (threads, wall clock) in the file: identical
    # configs and seeds must produce identical bytes.
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "grid": {"t0": 0.0, "t_end": cfg.T, "step": grid.step, "n_points": grid.n_cells + 1},
        "valuation": {"t": cfg.t, "T": cfg.T, "n_policies": cfg.n_policies,
                      "reported_count": cfg.reported_count},
        "curve_intensity": "mean law of the intensity draws" if stochastic else "deterministic path",
        "analytic": None,
        "mc": None,
        "comparison": None,
        "curve_at_t": {
            "reporting_cdf": reporting_cdf(path, cfg.delay, cfg.t),
            "reporting_density": reporting_density(path, cfg.delay, cfg.t),
            "ibnr_prob": ibnr_probability(path, cfg.delay, cfg.t),
            "survival": path.survival(cfg.t),
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

    report_path = out_dir / cfg.report_name
    curve_path_file = out_dir / cfg.curve_name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _write_curve(curve_path_file, grid, curve)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

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
    stage = " ".join(f"{k}={timings[k]:.2f}" for k in ("analytic_s", "mc_s") if k in timings)
    if oracle:
        # With --validate the legs overlap, so analytic_s + mc_s may exceed elapsed.
        stage += f" blocks={n_blocks(cfg)} threads={threads}"
    print(f"elapsed: {elapsed:.2f} s {stage}".rstrip())

    if validate and comparison is not None and not comparison.passed:
        # A quadrature error larger than the oracle's SE can explain the
        # mismatch, so blame the grid; the estimate stays out of z, where it
        # would hide real mismatches.
        estimate = analytic_result.diagnostics["unreported_error_estimate"]
        if estimate > mc_estimate.std_error:
            print(f"config error at grid.step: quadrature error estimate {estimate:.3g} exceeds "
                  f"the oracle's standard error {mc_estimate.std_error:.3g}; refine grid.step",
                  file=sys.stderr)
            return 1
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
