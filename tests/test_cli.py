"""Scenario configs, report files, exit codes."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import claimflow
from claimflow import SchemaError, pricing
from claimflow.cli import MAX_GRID_CELLS, MAX_MARK_MEAN, MAX_PATH_GRID_VALUES, main, parse_config, run_scenario
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


def test_missing_required_field():
    config = _scenario()
    del config["valuation"]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(config))
    assert err.value.field == "<config>.valuation"


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


@pytest.mark.parametrize("literal", ["1e400", "1" * 400], ids=["float", "integer"])
def test_numbers_beyond_float_range_rejected(literal):
    text = json.dumps(_scenario()).replace('"T": 1.0', '"T": ' + literal)
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert err.value.field == "valuation.T"


_LOG_OU = {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0, "vol": 0.5, "init": 1.0}

OVERSIZED = [
    ("grid.step", dict(grid={"step": 1e-300})),
    ("grid.step", dict(grid={"step": 10.0 / (MAX_GRID_CELLS + 1)}, valuation={"T": 10.0})),
    ("grid.step", dict(grid={"step": 1e-300}, valuation={"T": 1e300})),
    # 8,760 cells x 4,096 oracle paths per block
    ("grid.step", dict(grid={"step": 1.0 / 8760}, intensity=_LOG_OU, mc={"n_paths": 10_000})),
    # 365 cells x 50,000 intensity draws
    ("mc.intensity_draws", dict(grid={"step": 1.0 / 365}, intensity=_LOG_OU,
                                mc={"n_paths": 2000, "intensity_draws": 50_000})),
]


@pytest.mark.parametrize("field,override", OVERSIZED,
                         ids=["1e-300", "one-past-limit", "overflowing-ratio", "oracle-block", "draws"])
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
    # the log-OU budget exactly: 4,096 cells x 4,096 paths and x 4,096 draws
    cells = MAX_PATH_GRID_VALUES // 4096
    parse_config(json.dumps(_scenario(grid={"step": 1.0 / cells}, intensity=_LOG_OU,
                                      mc={"n_paths": 10_000, "intensity_draws": 4096})))


def test_cli_import_leaves_slow_scipy_modules_out():
    # scipy.stats and scipy.signal each take about a second to import;
    # every run would pay for them before its first request.
    src = str(Path(claimflow.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import claimflow.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
    # reuses that density and convolves once more, on the half-step path.
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


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert run_scenario(tmp_path / "nope.json", tmp_path) == 1
    assert "cannot read" in capsys.readouterr().err


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
    assert run_selftest(quick=True) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_broken_quadrature_is_detected(capsys, monkeypatch):
    _bias_quadrature(monkeypatch, 2e-4)
    assert run_selftest(quick=True) == 1
    assert "[FAIL]" in capsys.readouterr().out
