"""The four benchmark workloads: inputs built from the seed, requests, checks.

Each workload is a closed loop with one client.  Its inputs come from the
workload seed alone; claimflow only sees the generated configs and models.
A request either returns a result that ``check`` accepts or counts as
failed.  ``wall_s`` is measured over a fixed batch of ``batch_size``
requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from claimflow import (
    DelayLaw,
    DevelopmentLaw,
    ExponentialDelay,
    GammaDelay,
    MarkLaw,
    MartingaleDeflator,
    McConfig,
    PiecewiseConstantIntensity,
    PortfolioState,
    TimeGrid,
    benchmarked_cashflow,
    compare,
    mc_reserve,
    observed_state,
    reporting_cdf,
    reporting_curve,
    reserve,
    simulate_intensity_path,
    simulate_market,
    simulate_portfolio,
)
from claimflow.cli import ScenarioConfig, parse_config, run_scenario
from claimflow._rng import substream

#: Oracle threads: two, or fewer on a smaller machine.
THREADS = max(1, min(2, os.cpu_count() or 1))

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "valuation_ladder.json"


class RequestFailed(Exception):
    """A request returned, but its output is wrong."""


def _all_finite(node) -> bool:
    if isinstance(node, bool) or node is None:
        return True
    if isinstance(node, (int, float)):
        return math.isfinite(node)
    if isinstance(node, str):
        return node.lower() not in ("inf", "-inf", "nan")
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return True


def mc_config_of(cfg: ScenarioConfig, **overrides) -> McConfig:
    """The oracle configuration ``run_scenario`` builds for an unconditional scenario."""
    config = McConfig(
        n_policies=cfg.n_policies, t=cfg.t, T=cfg.T, intensity=cfg.intensity,
        delay=cfg.delay, first_mark=cfg.first_mark, development=cfg.development,
        market=cfg.market, n_paths=cfg.n_paths, seed=cfg.seed, grid_step=cfg.grid_step,
        conditioning=None, antithetic=cfg.antithetic)
    return replace(config, **overrides)


# ---------------------------------------------------------------------------
# Scenario configs
# ---------------------------------------------------------------------------

def example_config_text(root: Path, seed: int, small: bool) -> str:
    """configs/example.json with only its seed replaced (and its path count, if small)."""
    text = (root / "configs" / "example.json").read_text(encoding="utf-8")
    text, count = re.subn(r'("seed"\s*:\s*)\d+', rf"\g<1>{seed}", text, count=1)
    if count != 1:
        raise RuntimeError("configs/example.json has no top-level seed field")
    if small:
        text = re.sub(r'("n_paths"\s*:\s*)\d+', r"\g<1>4096", text, count=1)
    return text


def stochastic_config_text(seed: int, small: bool) -> str:
    config = {
        "schema_version": 1,
        "seed": seed,
        "grid": {"step": 1.0 / 365.0},
        "intensity": {"kind": "log_ou", "mean_rev": 2.0, "long_run_log_level": 0.0,
                      "vol": 0.5, "init": 1.0},
        "delay": {"alpha0": 0.2, "density": {"kind": "exponential", "rate": 2.0}},
        "first_mark": {"mean": 1.0, "kind": "exponential"},
        "development": {"rate": 1.5, "mark_mean": 0.5, "mark_kind": "exponential"},
        "market": {"kind": "deterministic", "level": 1.0},
        "portfolio": {"n": 64},
        "valuation": {"t": 0.0, "T": 1.0},
        "mc": {"n_paths": 4096 if small else 32768, "antithetic": False,
               "intensity_draws": 1024 if small else 8192},
    }
    return json.dumps(config, indent=2) + "\n"


#: The public calls ``CliScenario.replay`` makes, by span name.
REPLAY_CALLS = ("parse_config", "TimeGrid.regular", "simulate_intensity_path", "reporting_curve",
                "reserve", "mc_reserve", "compare")


class CliScenario:
    """One request is ``run_scenario(config, validate=True, threads=THREADS)``."""

    is_cli = True
    batch_size = 1

    def __init__(self, text: str, workdir: Path):
        self.text = text
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(text, encoding="utf-8")
        self.cfg = parse_config(text)
        self.grid = TimeGrid.regular(self.cfg.T, step=self.cfg.grid_step)
        self.intensity = self.cfg.intensity
        # Unused by the requests; set-up is defined to include the path.
        self.path = simulate_intensity_path(self.intensity, self.grid, seed=self.cfg.seed)
        self.out_dir = workdir / "out"

    def request(self, i: int, trace, out_dir: Path | None = None, threads: int = THREADS,
                analytic_only: bool = False) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return trace.call("cli", "run_scenario", run_scenario, self.config_path,
                              out_dir or self.out_dir, validate=not analytic_only,
                              analytic_only=analytic_only, threads=threads)

    def replay(self, trace, analytic_only: bool = False) -> None:
        """The public calls one ``run_scenario`` request makes, each in its own span."""
        cfg = trace.call("cli", "parse_config", parse_config, self.text)
        grid = trace.call("grids", "TimeGrid.regular", TimeGrid.regular, cfg.T, step=cfg.grid_step)
        # 0xC4E is the substream purpose run_scenario uses for its curve path.
        path = trace.call("intensity", "simulate_intensity_path", simulate_intensity_path,
                          cfg.intensity, grid, seed=substream(cfg.seed, 0xC4E))
        trace.call("pricing", "reporting_curve", reporting_curve, path, cfg.delay)
        state = PortfolioState.from_counts(cfg.t, cfg.n_policies, cfg.reported_count)
        result = trace.call("pricing", "reserve", reserve, state, cfg.intensity, cfg.delay,
                            cfg.first_mark, cfg.development, cfg.T, market=cfg.market, grid=grid,
                            intensity_draws=cfg.intensity_draws, seed=cfg.seed)
        if analytic_only:
            return
        estimate = trace.call("mc", "mc_reserve", mc_reserve, mc_config_of(cfg), threads=THREADS)
        trace.call("mc", "compare", compare, result, estimate)

    def read_report(self) -> dict:
        return json.loads((self.out_dir / self.cfg.report_name).read_text(encoding="utf-8"))

    def check(self, i: int, code: int) -> None:
        if code != 0:
            raise RequestFailed(f"run_scenario exit code {code}")
        report = self.read_report()
        if not _all_finite(report):
            raise RequestFailed("non-finite value in report.json")
        comparison = report.get("comparison") or {}
        z = comparison.get("z")
        if not comparison.get("passed") or not isinstance(z, (int, float)) or abs(z) > 3.0:
            raise RequestFailed(f"analytic-vs-oracle comparison failed: z={z}")
        if not (self.out_dir / self.cfg.curve_name).is_file():
            raise RequestFailed("curve.csv not written")

    def extras(self, wall_s: float) -> dict:
        mc = self.read_report()["mc"]
        rel_se = mc["std_error"] / abs(mc["mean"])
        return {
            "mc_paths_per_s": (self.cfg.n_paths * self.batch_size / wall_s, "1/s"),
            "mc_s_to_1pct": (wall_s / self.batch_size * (rel_se / 0.01) ** 2, "s"),
        }


# ---------------------------------------------------------------------------
# valuation_ladder
# ---------------------------------------------------------------------------

#: Books the seed chooses from; each has committed reference totals.
LADDER_VARIANTS = 8


class ValuationLadder:
    """A 5,000-policy book valued at 52 weekly dates on a 3-hour grid.

    The seed picks one of ``LADDER_VARIANTS`` books (seasonal rates, gamma
    delay, lognormal marks); every book has the same grid, so the cost of a
    request does not depend on the seed.
    """

    is_cli = False
    n = 5000
    T = 2.0
    step = 1.0 / (365.0 * 8.0)

    def __init__(self, seed: int, small: bool):
        self.variant = seed % LADDER_VARIANTS
        rng = np.random.default_rng([0x1ADD, self.variant])
        base = rng.uniform(0.3, 0.6)
        amplitude = rng.uniform(0.2, 0.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        months = np.arange(24)
        rates = base * (1.0 + amplitude * np.sin(2.0 * math.pi * months / 12.0 + phase))
        self.intensity = PiecewiseConstantIntensity(
            breakpoints=tuple(months[1:] / 12.0), rates=tuple(rates))
        self.delay = DelayLaw(alpha0=0.1, density=GammaDelay(shape=rng.uniform(1.5, 3.0),
                                                             rate=rng.uniform(2.0, 5.0)))
        self.first_mark = MarkLaw(mean=rng.uniform(0.8, 1.2), kind="lognormal", sigma_ln=1.0)
        self.dev = DevelopmentLaw(rate=rng.uniform(1.0, 2.0),
                                  mark=MarkLaw(mean=0.5, kind="lognormal", sigma_ln=0.8))
        self.grid = TimeGrid.regular(self.T, step=self.step)
        self.path = simulate_intensity_path(self.intensity, self.grid)
        self.dates = [7.0 * k / 365.0 for k in range(1, 53)]
        self.batch_size = 4 if small else len(self.dates)
        references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        self.reference = references[str(self.variant)]

    def request(self, i: int, trace):
        t = self.dates[i % self.batch_size]
        p = trace.call("pricing", "reporting_cdf", reporting_cdf, self.path, self.delay, t)
        reported = round(self.n * p)
        state = trace.call("claims", "PortfolioState.from_counts", PortfolioState.from_counts,
                           t, self.n, reported)
        result = trace.call("pricing", "reserve", reserve, state, self.path, self.delay,
                            self.first_mark, self.dev, self.T)
        return reported, result

    def check(self, i: int, out) -> None:
        reported, result = out
        k = i % self.batch_size
        t = self.dates[k]
        expected = self.dev.rate * self.dev.mark_mean * reported * (self.T - t)
        values = (result.total, result.reported_component, result.unreported_component)
        if not all(math.isfinite(v) for v in values):
            raise RequestFailed(f"non-finite reserve at t={t}")
        if not math.isclose(result.reported_component, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise RequestFailed(f"reported component {result.reported_component} != {expected}")
        if not math.isclose(result.total, self.reference[k], rel_tol=1e-9):
            raise RequestFailed(f"total {result.total} != reference {self.reference[k]} at t={t}")

    def extras(self, wall_s: float) -> dict:
        return {"valuations_per_s": (self.batch_size / wall_s, "1/s")}


# ---------------------------------------------------------------------------
# scenario_generation
# ---------------------------------------------------------------------------

class ScenarioGeneration:
    """Simulate a book record by record, observe it quarterly, value its cash flow.

    Request i uses its own simulation seed derived from the workload seed.
    """

    is_cli = False
    T = 2.0
    quarters = (0.25, 0.5, 0.75, 1.0)
    split = 1.5

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.n = 200 if small else 2000
        self.batch_size = 4
        self.grid = TimeGrid.regular(self.T)
        self.intensity = PiecewiseConstantIntensity(
            breakpoints=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75),
            rates=(0.6, 0.4, 0.3, 0.5, 0.6, 0.4, 0.3, 0.5))
        self.delay = DelayLaw(alpha0=0.2, density=ExponentialDelay(rate=2.0))
        self.first_mark = MarkLaw(mean=1.0, kind="lognormal", sigma_ln=0.8)
        self.dev = DevelopmentLaw(rate=1.5, mark=MarkLaw(mean=0.5, kind="exponential"))
        self.path = simulate_intensity_path(self.intensity, self.grid)
        self.market_path = simulate_market(MartingaleDeflator(init=1.0, vol=0.2), self.grid, seed=seed)

    def request_seed(self, i: int) -> int:
        return (self.seed << 24) + i

    def request(self, i: int, trace):
        records = trace.call("claims", "simulate_portfolio", simulate_portfolio, self.n, self.path,
                             self.delay, self.first_mark, self.dev, self.T, self.request_seed(i))
        states = [trace.call("claims", "observed_state", observed_state, records, q)
                  for q in self.quarters]
        cash = trace.call("market", "benchmarked_cashflow", benchmarked_cashflow,
                          records, self.market_path, self.quarters[-1], self.T)
        return records, states, cash

    def check(self, i: int, out) -> None:
        records, states, cash = out
        if len(records) != self.n:
            raise RequestFailed(f"{len(records)} records for {self.n} policies")
        for rec in records:
            if rec.occurred and rec.report_time != rec.accident_time + rec.delay:
                raise RequestFailed("a record's report time is not accident + delay")
        counts = [s.reported_count for s in states]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise RequestFailed(f"observed reported counts fall: {counts}")
        t = self.quarters[-1]
        parts = (benchmarked_cashflow(records, self.market_path, t, self.split)
                 + benchmarked_cashflow(records, self.market_path, self.split, self.T))
        if not (math.isfinite(cash) and math.isclose(cash, parts, rel_tol=1e-9, abs_tol=1e-12)):
            raise RequestFailed(f"cash flow not additive: {cash} vs {parts}")

    def extras(self, wall_s: float) -> dict:
        return {"policies_per_s": (self.n * self.batch_size / wall_s, "1/s")}


WORKLOADS = ("example_validate", "valuation_ladder", "stochastic_validate", "scenario_generation")


def build(name: str, root: Path, seed: int, small: bool, workdir: Path):
    """Everything a workload needs before its first request."""
    if name == "example_validate":
        return CliScenario(example_config_text(root, seed, small), workdir / name)
    if name == "stochastic_validate":
        return CliScenario(stochastic_config_text(seed, small), workdir / name)
    if name == "valuation_ladder":
        return ValuationLadder(seed, small)
    if name == "scenario_generation":
        return ScenarioGeneration(seed, small)
    raise ValueError(f"unknown workload {name!r}")
