"""Per-layer probes: timed calls into each module's public functions.

They run only in the traced run, each inside a span, at fixed shapes so
that a number means the same thing on every workload.  Times are medians
of ``repeats`` calls.
"""

from __future__ import annotations

import statistics
import tracemalloc
from pathlib import Path

import numpy as np

from claimflow import (
    BLOCK_SIZE,
    PortfolioState,
    TimeGrid,
    benchmarked_cashflow,
    invert_hazard,
    mc_reserve,
    observed_state,
    reporting_cdf,
    reporting_curve,
    reserve,
    simulate_intensity_path,
    simulate_portfolio,
)
from claimflow.cli import parse_config
from claimflow.intensity import trapezoid_hazard
from claimflow._rng import substream

import workloads


def _timed(tracer, layer: str, name: str, fn, *args, repeats: int = 3, **kwargs):
    """Median seconds of ``repeats`` calls, and the last call's result."""
    times = []
    result = None
    for _ in range(repeats):
        with tracer.span(layer, name) as span:
            result = fn(*args, **kwargs)
        times.append(span["end"] - span["start"])
    return statistics.median(times), result


def _peak_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _loop_us(tracer, layer: str, name: str, fn, arguments) -> float:
    """Microseconds per call of ``fn`` over ``arguments``, in one span."""
    with tracer.span(layer, name) as span:
        for arg in arguments:
            fn(*arg)
    span["calls"] = len(arguments)
    return (span["end"] - span["start"]) / len(arguments) * 1e6


def mc_probes(tracer, root: Path, seed: int, small: bool) -> dict:
    """One oracle block of each CLI scenario and the kernels inside it."""
    out = {}
    example = parse_config(workloads.example_config_text(root, seed, small))
    block = workloads.mc_config_of(example, n_paths=BLOCK_SIZE)
    s, _ = _timed(tracer, "mc", "mc_reserve", mc_reserve, block, threads=1)
    out["mc.block_ms"] = (s * 1e3, "ms")
    out["mc.block_peak_mb"] = (_peak_mb(mc_reserve, block, threads=1), "MB")

    grid = TimeGrid.regular(example.T, step=example.grid_step)
    rng = substream(seed, 0xB10C, 0)
    s, normals = _timed(tracer, "mc", "standard_normal", rng.standard_normal, (BLOCK_SIZE, grid.n_cells))
    out["mc.block_normals_ms"] = (s * 1e3, "ms")
    s, _ = _timed(tracer, "market", "paths_from_normals", example.market.paths_from_normals, grid, normals)
    out["market.paths_from_normals_ms"] = (s * 1e3, "ms")

    stochastic = parse_config(workloads.stochastic_config_text(seed, small))
    for n in (1, 64):
        config = workloads.mc_config_of(stochastic, n_policies=n, n_paths=BLOCK_SIZE)
        s, _ = _timed(tracer, "mc", "mc_reserve", mc_reserve, config, threads=1)
        out[f"mc.block_ms.n{n}"] = (s * 1e3, "ms")

    grid = TimeGrid.regular(stochastic.T, step=stochastic.grid_step)
    normals = rng.standard_normal((BLOCK_SIZE, grid.n_cells))
    s, x = _timed(tracer, "intensity", "log_level_paths", stochastic.intensity.log_level_paths, grid, normals)
    out["intensity.log_level_paths_ms"] = (s * 1e3, "ms")
    s, _ = _timed(tracer, "intensity", "trapezoid_hazard", trapezoid_hazard, grid, np.exp(x))
    out["intensity.trapezoid_hazard_ms"] = (s * 1e3, "ms")

    state = PortfolioState.from_counts(0.0, stochastic.n_policies, 0)
    s, _ = _timed(tracer, "pricing", "reserve", reserve, state, stochastic.intensity, stochastic.delay,
                  stochastic.first_mark, stochastic.development, stochastic.T, market=stochastic.market,
                  grid=grid, intensity_draws=stochastic.intensity_draws, seed=seed)
    out["pricing.reserve_stochastic_ms"] = (s * 1e3, "ms")
    return out


def pricing_probes(tracer, seed: int, small: bool) -> dict:
    """The analytic reserve of the valuation_ladder book and the reporting law inside it."""
    out = {}
    book = workloads.ValuationLadder(seed, small)
    s, _ = _timed(tracer, "pricing", "reporting_curve", reporting_curve, book.path, book.delay)
    out["pricing.reporting_curve_ms"] = (s * 1e3, "ms")
    fine = simulate_intensity_path(book.intensity, TimeGrid.regular(book.T, step=book.grid.step / 2))
    s, _ = _timed(tracer, "pricing", "reporting_curve", reporting_curve, fine, book.delay)
    out["pricing.reporting_curve_ms.fine"] = (s * 1e3, "ms")
    for cells in (730, 7300, 73000):
        path = simulate_intensity_path(book.intensity, TimeGrid.regular(book.T, step=book.T / cells))
        s, _ = _timed(tracer, "pricing", "reporting_curve", reporting_curve, path, book.delay,
                      repeats=1 if cells > 10_000 else 3)
        out[f"pricing.reporting_curve_ms.{cells}"] = (s * 1e3, "ms")

    t = book.dates[len(book.dates) // 2]
    s, p = _timed(tracer, "pricing", "reporting_cdf", reporting_cdf, book.path, book.delay, t)
    out["pricing.reporting_cdf_ms"] = (s * 1e3, "ms")
    s, state = _timed(tracer, "claims", "PortfolioState.from_counts", PortfolioState.from_counts,
                      t, book.n, round(book.n * p))
    out["claims.from_counts_ms"] = (s * 1e3, "ms")
    args = (state, book.path, book.delay, book.first_mark, book.dev, book.T)
    s, _ = _timed(tracer, "pricing", "reserve", reserve, *args)
    out["pricing.reserve_ms"] = (s * 1e3, "ms")
    out["pricing.reserve_peak_mb"] = (_peak_mb(reserve, *args), "MB")
    return out


def claims_probes(tracer, seed: int, small: bool) -> dict:
    """The scenario_generation book through the record-based scalar API."""
    out = {}
    book = workloads.ScenarioGeneration(seed, small)
    s, records = _timed(tracer, "claims", "simulate_portfolio", simulate_portfolio, book.n, book.path,
                        book.delay, book.first_mark, book.dev, book.T, book.request_seed(0))
    out["claims.simulate_portfolio_us_per_policy"] = (s / book.n * 1e6, "us")
    out["rng.substream_us"] = (_loop_us(tracer, "rng", "substream", substream,
                                        [(seed, 0, i) for i in range(book.n)]), "us")
    thresholds = np.random.default_rng(seed).exponential(size=book.n)
    out["claims.invert_hazard_us"] = (_loop_us(tracer, "claims", "invert_hazard", invert_hazard,
                                               [(book.path, e) for e in thresholds]), "us")
    s, _ = _timed(tracer, "claims", "observed_state", observed_state, records, book.quarters[-1])
    out["claims.observed_state_ms"] = (s * 1e3, "ms")
    events = sum(1 for rec in records for _ in rec.payment_events())
    s, _ = _timed(tracer, "market", "benchmarked_cashflow", benchmarked_cashflow,
                  records, book.market_path, 0.0, book.T)
    out["market.benchmarked_cashflow_us_per_event"] = (s / max(events, 1) * 1e6, "us")
    return out


def setup_probes(tracer, workload, cli_scenario, seed: int) -> dict:
    """The calls a workload's set-up makes: config parsing and its intensity path."""
    s, _ = _timed(tracer, "cli", "parse_config", parse_config, cli_scenario.text, repeats=5)
    out = {"cli.parse_config_ms": (s * 1e3, "ms")}
    s, _ = _timed(tracer, "intensity", "simulate_intensity_path", simulate_intensity_path,
                  workload.intensity, workload.grid, seed=seed, repeats=5)
    out["intensity.simulate_path_ms"] = (s * 1e3, "ms")
    return out


def all_probes(tracer, root: Path, workload, cli_scenario, seed: int, small: bool) -> dict:
    out = {}
    out.update(setup_probes(tracer, workload, cli_scenario, seed))
    out.update(mc_probes(tracer, root, seed, small))
    out.update(pricing_probes(tracer, seed, small))
    out.update(claims_probes(tracer, seed, small))
    return out
