"""Scenario configs, report files, exit codes."""
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import claimflow
from claimflow import (
    ConstantIntensity,
    DegenerateStateError,
    DelayLaw,
    DeterministicDeflator,
    DevelopmentLaw,
    ExponentialDelay,
    GammaDelay,
    LogOUIntensity,
    MarkLaw,
    MartingaleDeflator,
    McConfig,
    PiecewiseConstantIntensity,
    SchemaError,
    cli,
    pricing,
)
from claimflow.cli import main, parse_config, run_scenario
from claimflow.intensity import MAX_RATE
from claimflow.mc import MAX_GRID_CELLS, MAX_MARK_MEAN, MAX_PATH_GRID_VALUES
from claimflow.selftest import run_selftest


def _scenario(**overrides):
    base = {
        "schema_version": 1,
        "seed": 42,
        "intensity": {"kind": "constant", "mu": 1.0},
        "delay": {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2.0}},
        "first_mark": {"mean": 1.0, "kind": "exponential"},
        "development": {"rate": 1.0, "mark_mean": 0.5, "mark_kind": "exponential"},
        "market": {"kind": "deterministic", "level": 1.0},
        "portfolio": {"n": 3},
        "valuation": {"T": 1.0},
        "mc": {"n_paths": 2000},
    }
    base.update(overrides)
    return base


def _write(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def _bias_quadrature(monkeypatch, eps):
    """Scale every full quadrature cell mass by 1 + eps for this test only."""
    exact = pricing._cell_masses
    monkeypatch.setattr(pricing, "_cell_masses", lambda surv: exact(surv) * (1.0 + eps))


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def test_parse_valid_config():
    cfg = parse_config(json.dumps(_scenario()))
    assert cfg.n_policies == 3
    assert cfg.T == 1.0
    assert cfg.t == 0.0
    assert cfg.n_paths == 2000
    assert len(cfg.sha256) == 64


def test_alpha0_out_of_range_names_field():
    bad = _scenario(delay={"alpha0": 1.2, "density": {"kind": "exponential", "rate": 2.0}})
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert err.value.field == "delay.alpha0"


def test_unknown_fields_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(_scenario(bogus=1)))
    assert "bogus" in err.value.field
    nested = _scenario(intensity={"kind": "constant", "mu": 1.0, "nu": 2.0})
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(nested))
    assert err.value.field == "intensity.nu"
    for field, override in [
        ("intensity.kind", {"intensity": {"kind": "linear", "mu": 1.0}}),
        ("first_mark.kind", {"first_mark": {"mean": 1.0, "kind": "pareto"}}),
        ("development.mark_kind", {"development": {"rate": 1.0, "mark_mean": 0.5, "mark_kind": "pareto"}}),
    ]:
        with pytest.raises(SchemaError, match="must be one of") as err:
            parse_config(json.dumps(_scenario(**override)))
        assert err.value.field == field


@pytest.mark.parametrize("field, override", [
    ("intensity", {"intensity": "constant"}),
    ("delay.density", {"delay": {"alpha0": 0.2, "density": ["kind"]}}),
    ("market", {"market": 5}),
    ("grid", {"grid": 3}),
], ids=["intensity", "density", "market", "grid"])
def test_a_section_that_dispatches_on_kind_must_be_an_object(field, override):
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(_scenario(**override)))
    assert err.value.field == field


_ABSENT = object()


@pytest.mark.parametrize("section, node, record", [
    ("intensity", {"kind": "constant", "mu": 2}, ConstantIntensity(2.0)),
    ("intensity", {"kind": "piecewise", "breakpoints": [1], "rates": [0.8, 1.2]},
     PiecewiseConstantIntensity(breakpoints=(1.0,), rates=(0.8, 1.2))),
    ("intensity", {"kind": "log_ou", "mean_rev": 2, "long_run_log_level": 0, "vol": 0.5, "init": 1},
     LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0)),
    ("delay", {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2}},
     DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0))),
    ("delay", {"alpha0": 0.2, "density": {"kind": "gamma", "shape": 2.3, "rate": 2}},
     DelayLaw(alpha0=0.2, density=GammaDelay(2.3, 2.0))),
    ("delay", {"alpha0": 1}, DelayLaw(alpha0=1.0)),
    ("market", {"kind": "deterministic"}, DeterministicDeflator()),
    ("market", {"kind": "martingale", "init": 1, "vol": 0.2}, MartingaleDeflator(init=1.0, vol=0.2)),
    ("market", None, DeterministicDeflator()),
    ("market", _ABSENT, DeterministicDeflator()),
    ("first_mark", {"mean": 2}, MarkLaw(mean=2.0)),
    ("development", {"rate": 1, "mark_mean": 0.5}, DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5))),
], ids=["constant", "piecewise", "log_ou", "exponential", "gamma", "no-density", "deterministic",
        "martingale", "null-market", "no-market", "first_mark", "development"])
def test_each_kind_parses_with_its_optional_keys_absent(section, node, record):
    # An absent optional key takes the record's own default.
    config = _scenario(**{section: node})
    if node is _ABSENT:
        del config[section]
    assert getattr(parse_config(json.dumps(config)), section) == record


def test_missing_required_field():
    config = _scenario()
    del config["valuation"]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(config))
    assert err.value.field == "valuation"


def test_schema_version_checked():
    with pytest.raises(SchemaError):
        parse_config(json.dumps(_scenario(schema_version=2)))


def test_reported_count_bounds():
    bad = _scenario(portfolio={"n": 3, "reported_count": 4}, valuation={"t": 0.5, "T": 1.0})
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert err.value.field == "portfolio.reported_count"


def test_reported_count_requires_positive_time():
    bad = _scenario(portfolio={"n": 3, "reported_count": 1})
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(bad))
    assert err.value.field == "portfolio.reported_count"


def test_invalid_json_reported():
    with pytest.raises(SchemaError):
        parse_config("{not json")
    with pytest.raises(SchemaError):
        parse_config('{"seed": ' + "1" * 5000 + "}")


NON_FINITE = [
    ("intensity.mu", {"intensity": {"kind": "constant", "mu": math.nan}}),
    ("valuation.T", {"valuation": {"T": math.inf}}),
    ("first_mark.mean", {"first_mark": {"mean": math.inf, "kind": "exponential"}}),
    ("intensity.rates", {"intensity": {"kind": "piecewise", "breakpoints": [0.5],
                                       "rates": [1.0, math.nan]}}),
    ("intensity.breakpoints", {"intensity": {"kind": "piecewise", "breakpoints": [math.inf],
                                             "rates": [1.0, 2.0]}}),
]


@pytest.mark.parametrize("field,override", NON_FINITE, ids=[f for f, _ in NON_FINITE])
def test_non_finite_numbers_rejected(tmp_path, capsys, field, override):
    text = json.dumps(_scenario(**override))  # writes NaN / Infinity / -Infinity
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert err.value.field == field
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert run_scenario(path, tmp_path / "out") == 1
    assert field in capsys.readouterr().err


_EXAMPLE = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())


def _number_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


#: A field refused under another field's name: the grid's cell bound names
#: the step, and alpha0 = 1 contradicts the delay density.
_NAMED_INSTEAD = {"valuation.T": "grid.step", "delay.alpha0": "delay.density"}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(path=st.sampled_from(sorted(_number_paths(_EXAMPLE))),
       value=st.floats() | st.integers() | st.sampled_from([10**400, -(10**400)])
       | st.booleans() | st.none() | st.text(max_size=2))
def test_one_mutated_number_parses_or_names_its_field(path, value):
    config = copy.deepcopy(_EXAMPLE)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parse_config(json.dumps(config))
    except SchemaError as exc:
        field = ".".join(path)
        assert exc.field in (field, _NAMED_INSTEAD.get(field))


_EXTREMES = [0, 1, -1, 0.5, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 2**53 + 1, 2**63, -(2**63)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(path=st.sampled_from(sorted(_number_paths(_EXAMPLE))),
       value=st.sampled_from(_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False) | st.integers())
def test_one_mutated_number_prices_or_exits_cleanly(path, value):
    # The analytic leg end to end: exit 0 with a finite report, 1 naming a
    # field, or 3 for a regime outside the closed form; never a traceback.
    config = copy.deepcopy(_EXAMPLE)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "scenario.json"
        config_path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_scenario(config_path, Path(tmp) / "out", analytic_only=True)
        assert code in (0, 1, 3), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("config error at "), err.getvalue()
        if code == 0:
            report = (Path(tmp) / "out" / config["output"]["report"]).read_text()
            assert "NaN" not in report and "Infinity" not in report


@pytest.mark.parametrize("literal", ["1e400", "1" * 400], ids=["float", "integer"])
def test_numbers_beyond_float_range_rejected(literal):
    text = json.dumps(_scenario()).replace('"T": 1.0', '"T": ' + literal)
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert err.value.field == "valuation.T"


_LOG_OU = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0}
_CORRELATED = {"kind": "martingale", "init": 1.0, "vol": 0.2, "corr_with_intensity": 0.5}

OVERSIZED = [
    ("grid.step", dict(grid={"step": 1e-300})),
    ("grid.step", dict(grid={"step": 10.0 / (MAX_GRID_CELLS + 1)}, valuation={"T": 10.0})),
    ("grid.step", dict(grid={"step": 1e-300}, valuation={"T": 1e300})),
    # 8,760 cells x 4,096 oracle paths per block of normals a correlated deflator reads
    ("grid.step", dict(grid={"step": 1.0 / 8760}, intensity=_LOG_OU, market=_CORRELATED,
                       mc={"n_paths": 10_000})),
    # one bracket per draw
    ("mc.intensity_draws", dict(intensity=_LOG_OU, mc={"n_paths": 2000,
                                                       "intensity_draws": MAX_PATH_GRID_VALUES + 1})),
]


@pytest.mark.parametrize("field,override", OVERSIZED,
                         ids=["1e-300", "one-past-limit", "overflowing-ratio", "oracle-block", "draws-alone"])
def test_oversized_grids_rejected_before_allocation(tmp_path, capsys, field, override):
    text = json.dumps(_scenario(**override))
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert err.value.field == field
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert run_scenario(path, tmp_path / "out") == 1
    assert field in capsys.readouterr().err


def test_grid_limits_admit_fine_grids():
    hourly = parse_config(json.dumps(_scenario(grid={"step": 1.0 / 8760}, valuation={"T": 10.0})))
    assert round(hourly.T / hourly.grid_step) == 87_600
    parse_config(json.dumps(_scenario(grid={"step": 10.0 / MAX_GRID_CELLS}, valuation={"T": 10.0})))
    # The log-OU budgets exactly: 4,096 cells x 4,096 paths per block under
    # a correlated deflator; 2^24 draws.
    parse_config(json.dumps(_scenario(grid={"step": 1.0 / 4096}, intensity=_LOG_OU, market=_CORRELATED,
                                      mc={"n_paths": 10_000})))
    parse_config(json.dumps(_scenario(intensity=_LOG_OU, mc={"n_paths": 2000,
                                                              "intensity_draws": MAX_PATH_GRID_VALUES})))
    # A daily log-OU book over 4,097 days at the default 8,192 draws.
    parse_config(json.dumps(_scenario(grid={"step": 1.0 / 365}, intensity=_LOG_OU,
                                      valuation={"T": 4097 / 365}, mc={"n_paths": 10_000})))


# Log-OU levels are built a cache-sized part of paths at a time, so no bound
# counts them: 16,385 cells x 1,024 oracle paths or draws exceed 2^24 values
# and still parse.
@pytest.mark.parametrize("mc", [{"n_paths": 10_000, "intensity_draws": 8192},
                                {"n_paths": 100, "intensity_draws": 1024}], ids=["oracle-chunk", "draws"])
def test_log_ou_levels_admit_any_cells_by_paths(mc):
    assert 16_385 * 1024 > MAX_PATH_GRID_VALUES
    config = parse_config(json.dumps(_scenario(grid={"step": 1.0 / 16_385}, intensity=_LOG_OU, mc=mc)))
    assert round(config.T / config.grid_step) == 16_385


# Runs the ``python -m claimflow`` entry point in a fresh interpreter and prints,
# as JSON, the exit code and the scipy modules loaded after ``import claimflow,
# claimflow.cli`` and after the run.
_FRESH_RUN = """
import json, runpy, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import claimflow, claimflow.cli
imported = scipy_modules()
sys.argv[0] = "claimflow"
try:
    runpy.run_module("claimflow", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps({"exit": exc.code, "imported": imported, "run": scipy_modules()}))
"""


def _fresh_run(tmp_path, config, *flags, env=()):
    src = str(Path(claimflow.__file__).resolve().parents[1])
    argv = ["run", str(_write(tmp_path, config)), "--out", str(tmp_path / "out"), *flags]
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, *argv], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": path, **dict(env)})
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_without_gamma_delay_never_imports_scipy(tmp_path):
    # Importing scipy.special takes about 0.25 s, half the start-up of a run.
    result = _fresh_run(tmp_path, _scenario(mc={"n_paths": 4096}), "--validate", "--threads", "2")
    assert result == {"exit": 0, "imported": [], "run": []}


@pytest.mark.parametrize("flag", ["--analytic-only", "--validate"])
def test_cli_with_gamma_delay_never_imports_scipy(tmp_path, flag):
    # The gamma delay's cdf and pdf are computed in numpy.
    gamma = {"alpha0": 0.2, "density": {"kind": "gamma", "shape": 2.3, "rate": 2.0}}
    result = _fresh_run(tmp_path, _scenario(delay=gamma), flag)
    assert result == {"exit": 0, "imported": [], "run": []}


def test_log_ou_report_is_byte_identical_across_blas_threads(tmp_path):
    # The stochastic reserve sums each bracket by itself, not through BLAS,
    # so the BLAS thread count of a fresh interpreter reaches no byte.
    config = _scenario(
        grid={"step": 1.0 / 365.0},
        intensity={"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0},
        portfolio={"n": 64}, mc={"n_paths": 2000, "intensity_draws": 1024})
    reports = []
    for threads in ("1", "2"):
        result = _fresh_run(tmp_path, config, "--validate", env={"OPENBLAS_NUM_THREADS": threads})
        assert result["exit"] == 0
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# Runs and exit codes
# ---------------------------------------------------------------------------

def test_run_analytic_only(tmp_path):
    path = _write(tmp_path, _scenario())
    assert run_scenario(path, tmp_path / "out", analytic_only=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["analytic"]["total"] > 0.0
    assert report["mc"] is None
    assert report["comparison"] is None


def test_run_with_validation(tmp_path):
    path = _write(tmp_path, _scenario(mc={"n_paths": 20000}))
    assert run_scenario(path, tmp_path / "out", validate=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["comparison"]["passed"] is True
    assert report["mc"]["n_effective"] == 20000


def test_run_bad_config_exits_one(tmp_path, capsys):
    bad = _scenario(delay={"alpha0": 1.2, "density": {"kind": "exponential", "rate": 2.0}})
    path = _write(tmp_path, bad)
    assert run_scenario(path, tmp_path / "out") == 1
    assert "delay.alpha0" in capsys.readouterr().err


def test_run_unsupported_regime_exits_three(tmp_path, capsys):
    config = _scenario(
        intensity={"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0,
                   "vol": 0.5, "init": 1.0},
        market={"kind": "martingale", "init": 1.0, "vol": 0.2, "corr_with_intensity": 0.5},
    )
    path = _write(tmp_path, config)
    assert run_scenario(path, tmp_path / "out") == 3
    assert "--mc-only" in capsys.readouterr().err


def test_unsupported_regime_under_validate_starts_no_oracle(tmp_path, capsys, monkeypatch):
    # The reserve runs beside the oracle's blocks, so its regime is refused
    # before either leg is dispatched.
    def forbidden(*args, **kwargs):
        raise AssertionError("started the oracle on a regime the reserve refuses")
    monkeypatch.setattr(cli, "mc_reserve", forbidden)
    config = _scenario(
        intensity={"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0,
                   "vol": 0.5, "init": 1.0},
        market={"kind": "martingale", "init": 1.0, "vol": 0.2, "corr_with_intensity": 0.5},
    )
    assert run_scenario(_write(tmp_path, config), tmp_path / "out", validate=True, threads=2) == 3
    err = capsys.readouterr().err
    assert "unsupported pricing regime" in err and "--mc-only" in err
    assert not (tmp_path / "out").exists()


def test_analytic_error_takes_precedence_over_the_oracle(tmp_path, capsys, monkeypatch):
    ran = []
    oracle = cli.mc_reserve

    def failing_reserve(*args, **kwargs):
        raise claimflow.ClaimflowError("analytic leg failed")
    monkeypatch.setattr(cli, "reserve", failing_reserve)
    monkeypatch.setattr(cli, "mc_reserve", lambda *a, **k: ran.append(1) or oracle(*a, **k))
    assert run_scenario(_write(tmp_path, _scenario()), tmp_path / "out", validate=True, threads=2) == 1
    assert "error: analytic leg failed" in capsys.readouterr().err
    assert ran == [1]
    assert not (tmp_path / "out" / "report.json").exists()


def test_log_ou_reports_are_byte_identical_across_thread_counts(tmp_path, capsys):
    # The reserve shares the oracle's pool under --validate; neither the
    # order in which the legs finish nor the thread count reaches a byte.
    config = _write(tmp_path, _scenario(
        grid={"step": 1.0 / 365.0},
        intensity={"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0},
        development={"rate": 1.5, "mark_mean": 0.5, "mark_kind": "exponential"},
        portfolio={"n": 64}, mc={"n_paths": 8192, "intensity_draws": 1024}))
    outputs = []
    for threads in (1, 2, 1):
        out = tmp_path / f"out{len(outputs)}"
        assert run_scenario(config, out, validate=True, threads=threads) == 0
        outputs.append(((out / "report.json").read_bytes(), (out / "curve.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "blocks=2 threads=2" in capsys.readouterr().out


def test_run_mc_only_handles_correlated_regime(tmp_path):
    config = _scenario(
        intensity={"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0,
                   "vol": 0.5, "init": 1.0},
        market={"kind": "martingale", "init": 1.0, "vol": 0.2, "corr_with_intensity": 0.5},
        mc={"n_paths": 2000},
    )
    path = _write(tmp_path, config)
    assert run_scenario(path, tmp_path / "out", mc_only=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["analytic"] is None
    assert report["mc"]["mean"] > 0.0


def test_a_deflator_that_never_moves_is_not_correlated(tmp_path):
    # At vol = 0 the deflator is constant, so its correlation is ignored:
    # both runs price, with the same bytes but for the config hash.
    outputs = []
    for corr in (0.5, 0.0):
        market = {"kind": "martingale", "init": 1.0, "vol": 0.0, "corr_with_intensity": corr}
        config = _write(tmp_path, _scenario(grid={"step": 1.0 / 365.0}, intensity=_LOG_OU, market=market,
                                            mc={"n_paths": 2000, "intensity_draws": 1024}))
        out = tmp_path / f"out{corr}"
        assert run_scenario(config, out, analytic_only=True) == 0
        assert run_scenario(config, out, validate=True) == 0
        report = json.loads((out / "report.json").read_text())
        del report["config_sha256"]
        outputs.append((report, (out / "curve.csv").read_bytes()))
    assert outputs[0] == outputs[1]


_LOG_OU = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0}
_MARTINGALE = {"kind": "martingale", "init": 1.0, "vol": 0.2}
_AT_HALF = {"portfolio": {"n": 2, "reported_count": 1}, "valuation": {"t": 0.5, "T": 1.0}}


@pytest.mark.parametrize("overrides, field, analytic_only_code", [
    ({"mc": {"n_paths": 2000, "antithetic": True}}, "mc.antithetic", 1),
    ({"market": _MARTINGALE, "mc": {"n_paths": 2001, "antithetic": True}}, "mc.n_paths", 1),
    ({"market": {**_MARTINGALE, "corr_with_intensity": 0.5}}, "market.corr_with_intensity", 1),
    ({"intensity": _LOG_OU, **_AT_HALF}, "valuation.t", 1),
    # The closed form prices a moving martingale deflator at t > 0; only
    # the oracle refuses it.
    ({"market": _MARTINGALE, **_AT_HALF}, "market.vol", 0),
], ids=["antithetic_constant_deflator", "antithetic_odd_paths", "corr_deterministic_intensity",
        "log_ou_after_zero", "moving_deflator_after_zero"])
def test_oracle_contradiction_exits_one_naming_field(tmp_path, capsys, overrides, field,
                                                      analytic_only_code):
    config = str(_write(tmp_path, _scenario(**overrides)))
    for flag in ("--validate", "--mc-only"):
        with pytest.raises(SystemExit) as exc:
            main(["run", config, "--out", str(tmp_path / "out"), flag])
        assert exc.value.code == 1
        assert f"config error at {field}:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", config, "--out", str(tmp_path / "out"), "--analytic-only"])
    assert exc.value.code == analytic_only_code


_BOOK = McConfig(
    n_policies=3, t=0.0, T=1.0, intensity=ConstantIntensity(1.0),
    delay=DelayLaw(alpha0=0.2, density=ExponentialDelay(2.0)),
    first_mark=MarkLaw(mean=1.0, kind="exponential"),
    development=DevelopmentLaw(rate=1.0, mark=MarkLaw(mean=0.5, kind="exponential")),
    market=DeterministicDeflator(1.0), n_paths=2000, seed=42)
_T_HALF = {"valuation": {"t": 0.5, "T": 1.0}}


@pytest.mark.parametrize("field, scenario, book", [
    ("valuation.t", {"valuation": {"t": 1.5, "T": 1.0}}, {"t": 1.5, "conditioning": 0}),
    ("portfolio.reported_count", {"portfolio": {"n": 3, "reported_count": 4}, **_T_HALF},
     {"t": 0.5, "conditioning": 4}),
    ("portfolio.reported_count", {"portfolio": {"n": 3, "reported_count": 1}}, {"conditioning": 1}),
    ("valuation.t", {"intensity": _LOG_OU, **_AT_HALF},
     {"intensity": LogOUIntensity(mean_rev=2.0, long_run_log_level=0.0, vol=0.5, init=1.0),
      "t": 0.5, "conditioning": 1}),
    ("market.corr_with_intensity", {"market": {**_MARTINGALE, "corr_with_intensity": 0.5}},
     {"market": MartingaleDeflator(init=1.0, vol=0.2, corr_with_intensity=0.5)}),
    ("mc.antithetic", {"mc": {"n_paths": 2000, "antithetic": True}}, {"antithetic": True}),
    ("mc.n_paths", {"market": _MARTINGALE, "mc": {"n_paths": 2001, "antithetic": True}},
     {"market": MartingaleDeflator(init=1.0, vol=0.2), "n_paths": 2001, "antithetic": True}),
    # A pair's two paths may fall in different reported-count buckets.
    ("mc.antithetic", {"market": _MARTINGALE, "mc": {"n_paths": 2000, "antithetic": True}, **_AT_HALF},
     {"market": MartingaleDeflator(init=1.0, vol=0.2), "antithetic": True, "t": 0.5, "conditioning": 1}),
], ids=["t_after_T", "reported_above_n", "reported_at_zero", "log_ou_after_zero",
        "corr_deterministic_intensity", "antithetic_constant_deflator", "antithetic_odd_paths",
        "antithetic_bucket"])
def test_each_contradiction_names_one_field_in_both_entry_points(field, scenario, book):
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(_scenario(**scenario)))
    assert err.value.field == field
    with pytest.raises(SchemaError) as err:
        replace(_BOOK, **book)
    assert err.value.field == field


def _run_main(config, out, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config), "--out", str(out), flag])
    return exc.value.code


def test_oracle_book_beyond_array_bound_exits_one(tmp_path, capsys):
    # 1e8 policies x 2,000 paths: the oracle's first per-policy array would
    # take 1.46 TiB.  The closed form allocates nothing per policy.
    config = _write(tmp_path, _scenario(portfolio={"n": 100_000_000}, mc={"n_paths": 2000}))
    for flag in ("--validate", "--mc-only"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        assert "config error at portfolio.n:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 0


def test_deterministic_run_prices_on_the_curve_path(tmp_path, monkeypatch):
    # reporting_curve convolves for the cdf and the density; the reserve
    # reuses that density and convolves once more, on the path's even nodes.
    calls = []
    convolve = pricing._fft_convolve
    monkeypatch.setattr(pricing, "_fft_convolve", lambda a, b: calls.append(1) or convolve(a, b))
    path = _write(tmp_path, _scenario())
    assert run_scenario(path, tmp_path / "out", analytic_only=True) == 0
    assert len(calls) == 3


def test_oracle_development_beyond_array_bound_exits_one(tmp_path, capsys):
    # 8 policies x 200 paths x rate 1e9 x T = 2: the oracle's array of
    # development events would take 9.51 TiB.  The closed form is linear in
    # the rate and allocates nothing per event.
    config = _write(tmp_path, _scenario(development={"rate": 1e9, "mark_mean": 0.5},
                                        portfolio={"n": 8}, valuation={"T": 2.0},
                                        mc={"n_paths": 200}))
    for flag in ("--validate", "--mc-only"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        err = capsys.readouterr().err
        assert "config error at development.rate:" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 0


def _all_reported_example(tmp_path):
    """The example book valued at t = 0.1 with all 8 policies reported, on
    200 paths: no path realizes that count, so the oracle's bucket is empty."""
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["market"] = {"kind": "deterministic", "level": 1.0}
    example["valuation"]["t"] = 0.1
    example["portfolio"]["reported_count"] = 8
    example["mc"]["n_paths"] = 200
    return _write(tmp_path, example)


@pytest.mark.parametrize("flag", ["--validate", "--mc-only"])
def test_too_small_oracle_bucket_exits_one_naming_n_paths(tmp_path, capsys, flag):
    assert _run_main(_all_reported_example(tmp_path), tmp_path / "out", flag) == 1
    assert ("config error at mc.n_paths: only 0 of 200 paths realized a reported count of 8; "
            "need at least 100") in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_analytic_error_takes_precedence_over_a_too_small_bucket(tmp_path, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateStateError("no surviving mass")
    monkeypatch.setattr(cli, "reserve", degenerate)
    assert _run_main(_all_reported_example(tmp_path), tmp_path / "out", "--validate") == 1
    err = capsys.readouterr().err
    assert "error: no surviving mass" in err and "mc.n_paths" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"mc": {"n_paths": MAX_PATH_GRID_VALUES + 1}}, "mc.n_paths"),
    ({"portfolio": {"n": 100_000_000}}, "portfolio.n"),
    ({"development": {"rate": 1e9, "mark_mean": 0.5}}, "development.rate"),
    ({"market": _MARTINGALE, **_AT_HALF}, "market.vol"),
], ids=["paths", "book", "development", "moving_deflator_after_zero"])
def test_oracle_refusals_precede_any_pricing(tmp_path, capsys, monkeypatch, overrides, field):
    def forbidden(*args, **kwargs):
        raise AssertionError("priced a config the oracle refuses")
    for name in ("simulate_intensity_path", "reporting_curve", "reserve", "mc_reserve"):
        monkeypatch.setattr(cli, name, forbidden)
    config = _write(tmp_path, _scenario(**overrides))
    for flag in ("--validate", "--mc-only"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        assert f"config error at {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    # The closed form allocates nothing per path, policy or event.
    monkeypatch.undo()
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 0


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("field, section, key, value", [
    ("first_mark.mean", "first_mark", "mean", 1e300),
    ("development.mark_mean", "development", "mark_mean", 1e308),
])
def test_huge_mark_means_exit_one_naming_field(tmp_path, capsys, field, section, key, value):
    # Unbounded, these wrote Infinity and NaN into report.json: 1e300 with
    # exit 0 (diff / inf = 0 passed the check), 1e308 with exit 2.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example[section][key] = value
    config = _write(tmp_path, example)
    assert _run_main(config, tmp_path / "out", "--validate") == 1
    assert f"config error at {field}: must be <= {MAX_MARK_MEAN}" in capsys.readouterr().err


@pytest.mark.parametrize("field, intensity", [
    ("intensity.mu", {"kind": "constant", "mu": 1e308}),
    ("intensity.rates", {"kind": "piecewise", "breakpoints": [1.0], "rates": [1.0, 1e308]}),
], ids=["constant", "piecewise"])
def test_huge_rates_exit_one_naming_field(tmp_path, capsys, field, intensity):
    # Unbounded, both wrote "unreported_error_estimate": NaN into report.json
    # (exit 0 under --analytic-only, 2 under --validate): the trapezoid's sum
    # of two neighbouring rates overflowed to inf.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["intensity"] = intensity
    config = _write(tmp_path, example)
    for flag in ("--analytic-only", "--validate"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        assert f"config error at {field}: must be >= 0 and <= {MAX_RATE}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
    example["intensity"] = {"kind": "constant", "mu": MAX_RATE}
    assert parse_config(json.dumps(example)).intensity.mu == MAX_RATE


def test_huge_delay_rate_prices_without_a_numpy_warning(tmp_path):
    # rate * x overflowed in ExponentialDelay.cdf and .pdf with a numpy
    # RuntimeWarning, which filterwarnings = error makes a failure here.  The
    # total is still wrong (about 5e305 against an oracle mean near 14): this
    # test pins only the warning.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["delay"]["density"]["rate"] = 1e308
    assert run_scenario(_write(tmp_path, example), tmp_path / "out", analytic_only=True) == 0


@pytest.mark.parametrize("field, value, reason", [
    ("long_run_log_level", 800.0, f"must be finite and <= log({MAX_RATE})"),
    ("init", 1e301, f"must be > 0 and <= {MAX_RATE}"),
])
def test_huge_log_ou_levels_exit_one_naming_field(tmp_path, capsys, field, value, reason):
    # A long-run level of 800 overflowed the rate to inf: numpy warnings,
    # then "error: total must equal the sum of its components" in both
    # modes.  A huge vol can still overflow a path.
    intensity = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0}
    config = _write(tmp_path, _scenario(intensity={**intensity, field: value}))
    for flag in ("--analytic-only", "--validate"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        assert f"config error at intensity.{field}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
    edge = {**intensity, "long_run_log_level": math.log(MAX_RATE), "init": MAX_RATE}
    assert parse_config(json.dumps(_scenario(intensity=edge))).intensity.init == MAX_RATE


@pytest.mark.parametrize("T, step", [(1e7, 1e5), (1e9, 1e7)])
def test_non_finite_analytic_reserve_exits_one_naming_the_horizon(tmp_path, capsys, T, step):
    # A rate at MAX_RATE over a long horizon wrote "total": Infinity and
    # "unreported_error_estimate": NaN with exit 0: the trapezoid weighs the
    # first node's atom density, 2e299, by a cell of 1e5 or 1e7 years and
    # the payout 1 + 0.75 T.  At T = 1e9 the hazard itself overflows, which
    # McConfig refuses before any path is built.  No numpy warning is
    # raised on the way.  Over a two-year horizon the same rate and step
    # give a finite report.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["intensity"]["mu"] = MAX_RATE
    example["valuation"]["T"] = T
    example["grid"]["step"] = step
    config = _write(tmp_path, example)
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 1
    reason = {1e7: "the analytic reserve", 1e9: "the intensity's hazard over [0, T]"}[T]
    assert f"config error at valuation.T: {reason} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    example["valuation"]["T"] = 2.0
    assert _run_main(_write(tmp_path, example), tmp_path / "out", "--analytic-only") == 0
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert math.isfinite(report["analytic"]["diagnostics"]["unreported_error_estimate"])


@pytest.mark.parametrize("flag", ["--analytic-only", "--validate"])
def test_overflowing_log_ou_hazard_exits_one_naming_the_horizon(tmp_path, capsys, flag):
    # A log-OU rate near its level bound over 1e9 years: the curve path's
    # hazard overflowed in trapezoid_hazard, and the run printed numpy
    # warnings and exited 0 with a total of 2.184e16.  McConfig holds the
    # rate's median path (zero volatility) to a finite hazard, as it holds a
    # deterministic rate, before any path is built; no numpy warning is
    # raised on the way.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["intensity"] = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 690.0,
                            "vol": 0.5, "init": 1.0}
    example["market"] = {"kind": "deterministic", "level": 1.0}
    example["valuation"]["T"] = 1e9
    example["grid"]["step"] = 1e7
    assert _run_main(_write(tmp_path, example), tmp_path / "out", flag) == 1
    err = capsys.readouterr().err
    assert "config error at valuation.T: the intensity's hazard over [0, T] is not finite" in err
    assert not (tmp_path / "out" / "report.json").exists()
    example["valuation"]["T"] = 2.0
    example["grid"]["step"] = 0.02
    assert parse_config(json.dumps(example)).T == 2.0


@pytest.mark.parametrize("T", [1e12, 1e9])
def test_overflowing_development_exits_one_naming_the_horizon(tmp_path, capsys, T):
    # The payout c (T - u) overflows: the unreported component came out NaN
    # and the run ended in a ReserveResult invariant naming no field.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["development"]["rate"] = 1e300
    example["valuation"].update(t=1e7, T=T)
    example["grid"]["step"] = 1e7
    example["portfolio"]["reported_count"] = 4
    config = _write(tmp_path, example)
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 1
    assert "config error at valuation.T: the analytic reserve is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_overflowing_reported_component_exits_one(tmp_path, capsys):
    # Every policy reported: the reported part, rate x mark mean x (T - t),
    # overflows by itself and is no less refused.
    config = _write(tmp_path, _scenario(development={"rate": 1e300, "mark_mean": 1e10},
                                        portfolio={"n": 4, "reported_count": 4},
                                        valuation={"t": 0.5, "T": 2.0}))
    assert _run_main(config, tmp_path / "out", "--analytic-only") == 1
    assert "config error at valuation.T: the analytic reserve is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_mark_means_at_the_bound_give_a_finite_report(tmp_path):
    config = _write(tmp_path, _scenario(
        first_mark={"mean": MAX_MARK_MEAN, "kind": "lognormal", "sigma_ln": 1.0},
        development={"rate": 1.5, "mark_mean": MAX_MARK_MEAN, "mark_kind": "exponential"},
        market={"kind": "martingale", "init": 1.0, "vol": 0.2}, portfolio={"n": 8}))
    assert _run_main(config, tmp_path / "out", "--validate") == 0
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert math.isfinite(report["mc"]["std_error"]) and report["mc"]["std_error"] > 0.0
    assert report["comparison"]["passed"] is True


def test_validated_mismatch_exits_two(tmp_path, monkeypatch):
    # A 5% quadrature bias pushes the analytic value many standard errors
    # away from the oracle; with --validate that must surface as exit 2,
    # with the failure recorded in the report.
    path = _write(tmp_path, _scenario(mc={"n_paths": 20000}))
    _bias_quadrature(monkeypatch, 0.05)
    code = run_scenario(path, tmp_path / "out", validate=True)
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["comparison"]["passed"] is False


def test_coarse_grid_mismatch_exits_one_naming_grid_step(tmp_path, capsys):
    # On a yearly grid the quadrature error estimate (about 1.0) dwarfs the
    # oracle's standard error (about 0.033) and explains z = -30.8: the grid
    # is at fault, not the formula.  The report is still written.
    example = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    example["grid"]["step"] = 1.0
    example["mc"]["n_paths"] = 20000
    assert _run_main(_write(tmp_path, example), tmp_path / "out", "--validate") == 1
    assert "config error at grid.step" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["comparison"]["passed"] is False
    assert report["analytic"]["diagnostics"]["unreported_error_estimate"] > report["mc"]["std_error"]


#: The log-OU book of the stochastic_validate benchmark workload at seed 11.
_STOCHASTIC_BOOK = {
    "schema_version": 1,
    "seed": 11,
    "intensity": {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0},
    "delay": {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2.0}},
    "first_mark": {"mean": 1.0, "kind": "exponential"},
    "development": {"rate": 1.5, "mark_mean": 0.5, "mark_kind": "exponential"},
    "market": {"kind": "deterministic", "level": 1.0},
    "portfolio": {"n": 64},
    "valuation": {"t": 0.0, "T": 1.0},
    "mc": {"n_paths": 32768, "antithetic": False, "intensity_draws": 8192},
}


@pytest.mark.parametrize("step, code", [(0.5, 1), (0.25, 1), (1.0 / 365.0, 0)],
                         ids=["0.5", "0.25", "daily"])
def test_log_ou_quadrature_estimate_names_grid_step(tmp_path, capsys, step, code):
    # The stochastic reserve's even-node estimate (2.79 and 0.69) explains
    # its misses of z = -47.3 and -10.6 at steps 0.5 and 0.25, so the run
    # blames the grid instead of exiting 2.  At the daily step the estimate
    # (2.8e-4) is far below the oracle's standard error (0.05).
    config = _write(tmp_path, {**_STOCHASTIC_BOOK, "grid": {"step": step}})
    assert _run_main(config, tmp_path / "out", "--validate") == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    diagnostics = report["analytic"]["diagnostics"]
    if code == 1:
        assert "config error at grid.step" in capsys.readouterr().err
        assert report["comparison"]["passed"] is False
        assert diagnostics["unreported_error_estimate"] > report["mc"]["std_error"]
    else:
        assert report["comparison"]["passed"] is True
        assert diagnostics["unreported_error_estimate"] < 0.01 * report["mc"]["std_error"]


def test_log_ou_curve_is_the_reserves_effective_path_in_every_mode(tmp_path):
    # curve.csv is the mean law the reserve prices; --mc-only draws the
    # same paths to write the same bytes.
    config = _write(tmp_path, {**_STOCHASTIC_BOOK, "mc": {"n_paths": 400, "intensity_draws": 1024}})
    curves = set()
    for flag in ("--validate", "--analytic-only", "--mc-only"):
        assert _run_main(config, tmp_path / flag, flag) == 0
        curves.add((tmp_path / flag / "curve.csv").read_bytes())
        report = json.loads((tmp_path / flag / "report.json").read_text())
        assert report["curve_intensity"] == "mean law of the intensity draws"
    assert len(curves) == 1
    cfg = parse_config(config.read_text())
    grid = cfg.grid()
    path = pricing.effective_path(cfg.intensity, grid, cfg.intensity_draws, cfg.seed)[0]
    rows = curves.pop().decode().splitlines()[1:]
    cdf = pricing.reporting_curve(path, cfg.delay).cdf
    assert [float(row.split(",")[1]) for row in rows] == [float(f"{p:.12g}") for p in cdf]


@pytest.mark.parametrize("init, level, alpha0, validate_code", [
    (1e6, 13.8, 0.2, 1),
    (1e300, 690.0, 0.0, 0),
], ids=["1e6", "1e300"])
def test_log_ou_books_whose_every_draw_underflows_exit_cleanly(tmp_path, capsys, init, level,
                                                               alpha0, validate_code):
    # From the first cell on no draw's survival is above 0, so the effective
    # rate there is 0/0; it is set to 0 without a warning (filterwarnings =
    # error).  The quadrature misses the spike at t = 0 by its whole
    # estimate at alpha0 = 0.2, so --validate blames the grid.
    example = copy.deepcopy(_EXAMPLE)
    example["intensity"] = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": level,
                            "vol": 0.5, "init": init}
    example["delay"]["alpha0"] = alpha0
    example["mc"] = {"n_paths": 400, "intensity_draws": 512}
    config = _write(tmp_path, example)
    for flag, code in (("--validate", validate_code), ("--analytic-only", 0), ("--mc-only", 0)):
        assert _run_main(config, tmp_path / flag, flag) == code
        if code == 1:
            assert "config error at grid.step" in capsys.readouterr().err
        assert "nan" not in (tmp_path / flag / "curve.csv").read_text()


@pytest.mark.parametrize("field, value", [("vol", 1e155), ("vol", 1e154), ("init", 1e308), ("level", 1e308)],
                         ids=["vol-1e155", "vol-1e154", "init-1e308", "level-1e308"])
def test_huge_deflator_exits_one_naming_its_field(tmp_path, capsys, field, value):
    # Under --validate at 4,000 paths, vol = 1e155 raised an OverflowError
    # from vol ** 2; vol = 1e154 deflated every payment to 0 and named
    # grid.step; a start or level of 1e308 overflowed the deflated payments.
    example = copy.deepcopy(_EXAMPLE)
    example["market"] = ({"kind": "deterministic", "level": value} if field == "level"
                         else {**example["market"], field: value})
    example["mc"]["n_paths"] = 4000
    config = _write(tmp_path, example)
    for flag in ("--validate", "--analytic-only"):
        assert _run_main(config, tmp_path / "out", flag) == 1
        assert f"config error at market.{field}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


def _key_paths(node, path=()):
    """The path of every key of a JSON object, nested objects included."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


#: The structural mutations of one key, by name.
_MUTATIONS = {"removed": _ABSENT, "null": None, "a string": "x", "a list": [1.0], "an object": {},
              "a bool": True, "-1": -1, "0": 0, "1e308": 1e308}


def test_every_structural_mutation_prices_or_exits_cleanly(tmp_path):
    # Each key of configs/example.json removed, or set to a value of each
    # JSON type or to -1, 0 or 1e308, under --analytic-only and under
    # --mc-only at 400 paths: exit 0 with finite outputs, 1 naming a field,
    # or 3; never a traceback or a numpy warning.  630 runs, about 1.5 s.
    base = {**copy.deepcopy(_EXAMPLE), "mc": {**_EXAMPLE["mc"], "n_paths": 400}}
    config = tmp_path / "scenario.json"
    for path in _key_paths(base):
        for name, value in _MUTATIONS.items():
            mutated = copy.deepcopy(base)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            if value is _ABSENT:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            config.write_text(json.dumps(mutated))
            for mode in ("analytic_only", "mc_only"):
                out = tmp_path / "out"
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run_scenario(config, out, **{mode: True})
                case = f"{'.'.join(path)} {name} under {mode}: {err.getvalue()}"
                assert code in (0, 1, 3), case
                if code == 1:
                    assert err.getvalue().startswith("config error at "), case
                if code == 0:
                    output = mutated.get("output", {})
                    report = (out / output.get("report", "report.json")).read_text()
                    curve = (out / output.get("curve", "curve.csv")).read_text()
                    assert "NaN" not in report and "Infinity" not in report, case
                    assert "nan" not in curve and "inf" not in curve, case


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert run_scenario(tmp_path / "nope.json", tmp_path) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("output, field", [
    ({"report": "nested/report.json"}, "output.report"),
    ({"report": ""}, "output.report"),
    ({"report": ".."}, "output.report"),
    ({"curve": "."}, "output.curve"),
    ({"curve": "/tmp/curve.csv"}, "output.curve"),
    ({"report": "out.txt", "curve": "out.txt"}, "output.curve"),
], ids=["nested", "empty", "parent", "dot", "absolute", "equal"])
def test_output_names_must_be_plain_distinct_file_names(tmp_path, capsys, output, field):
    config = _scenario(output=output)
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(config))
    assert err.value.field == field
    assert run_scenario(_write(tmp_path, config), tmp_path / "out", analytic_only=True) == 1
    assert f"config error at {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_one(tmp_path, capsys):
    path = _write(tmp_path, _scenario())
    (tmp_path / "file").write_text("")
    assert run_scenario(path, tmp_path / "file", analytic_only=True) == 1
    assert "cannot write output" in capsys.readouterr().err
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert run_scenario(path, tmp_path / "out", analytic_only=True) == 1
    assert "cannot write output" in capsys.readouterr().err


def test_conditional_scenario_round_trip(tmp_path):
    config = _scenario(
        portfolio={"n": 2, "reported_count": 1},
        valuation={"t": 0.5, "T": 1.0},
        mc={"n_paths": 30000},
    )
    path = _write(tmp_path, config)
    assert run_scenario(path, tmp_path / "out", validate=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["comparison"]["passed"] is True


def test_curve_csv_layout(tmp_path):
    path = _write(tmp_path, _scenario())
    assert run_scenario(path, tmp_path / "out", analytic_only=True) == 0
    raw = (tmp_path / "out" / "curve.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[0] == b"time,reporting_cdf,reporting_density,ibnr_prob,survival"
    assert len(lines) == 1 + 366 + 1  # header + one row per grid node + final CRLF
    first = lines[1].split(b",")
    assert first[0] == b"0" and first[4] == b"1"


def test_repeated_runs_are_byte_identical(tmp_path):
    path = _write(tmp_path, _scenario(market={"kind": "martingale", "init": 1.0, "vol": 0.2},
                                      mc={"n_paths": 5000}))
    assert run_scenario(path, tmp_path / "a", validate=True, threads=1) == 0
    assert run_scenario(path, tmp_path / "b", validate=True, threads=2) == 0
    for name in ("report.json", "curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_exclusive_flags(tmp_path, capsys):
    path = _write(tmp_path, _scenario())
    assert run_scenario(path, tmp_path, mc_only=True, analytic_only=True) == 1
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--validate", "--mc-only"), ("--validate", "--analytic-only")])
def test_validate_excludes_the_other_mode_flags(tmp_path, capsys, flags):
    # Refused before the config is read: the path names no file.
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 1
    assert "mutually exclusive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run", "<config>", "--out", "<out>", "--validate", "--threads", "0"],
                                  ["run", "<config>", "--out", "<out>", "--threads", "-2"],
                                  ["selftest", "--quick", "--threads", "0"]])
def test_threads_below_one_exits_one(tmp_path, capsys, argv):
    fill = {"<config>": str(_write(tmp_path, _scenario())), "<out>": str(tmp_path)}
    with pytest.raises(SystemExit) as exc:
        main([fill.get(a, a) for a in argv])
    assert exc.value.code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# Self-test wiring
# ---------------------------------------------------------------------------

def test_quick_selftest_passes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--quick"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_broken_quadrature_is_detected(capsys, monkeypatch):
    _bias_quadrature(monkeypatch, 2e-4)
    assert run_selftest(quick=True) == 1
    assert "[FAIL]" in capsys.readouterr().out
