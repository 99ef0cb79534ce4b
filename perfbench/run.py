"""Benchmark of claimflow: one workload per run, metrics as one JSON line.

Usage, from the root of a claimflow checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
With ``--trace 1`` it replays one batch with a span around every call into
claimflow, runs the per-layer probes, checks that reports are byte-identical
across thread counts and against ``claimflow run``, and writes the spans to
``perfbench/out/``.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the metric names are
those BENCHMARK.json declares.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NoTrace, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Scratch space of this process: configs and reports, removed at exit.
WORKDIR = OUT / f"work-{os.getpid()}"
SETUP_REPEATS = 3
LAYERS = ("cli", "intensity", "claims", "market", "pricing", "mc", "rng")
WORKLOADS = ("example_validate", "valuation_ladder", "stochastic_validate", "scenario_generation")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for perfbench/selftest.py")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def machine(args, threads: int) -> dict:
    import numpy
    import scipy

    cpu = l3 = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "l3": l3, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "workload": args.workload, "seed": args.seed, "threads": threads,
        "small": args.small,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + (["--small"] if args.small else [])
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with code {proc.returncode}")
    return elapsed


class Run:
    """Counts attempted and failed operations and keeps the failure messages
    and the timed requests' latencies."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def one_request(workload, trace, i: int, replay: bool, latencies: list) -> None:
    with trace.request(i):
        if replay:
            workload.replay(trace)
        started = time.perf_counter()
        try:
            result = workload.request(i, trace)
        finally:
            latencies.append(time.perf_counter() - started)
    workload.check(i, result)


def run_batch(workload, trace, run: Run, first: int, replay: bool = False) -> list[float]:
    """One batch of requests; returns each request's latency in seconds.

    The output check runs after the latency is taken.  With ``replay`` a
    CLI request first makes its public calls one by one, each in a span.
    """
    latencies: list[float] = []
    for i in range(first, first + workload.batch_size):
        run.attempt(f"request {i}", one_request, workload, trace, i, replay, latencies)
    return latencies


def warm_up(workload, run: Run) -> None:
    """Request 0, checked but not timed, so that lazy set-up inside claimflow
    and the first touch of the process's memory stay out of the timings."""
    run.attempt("request 0", one_request, workload, NoTrace(), 0, False, [])


def untraced(args, workload, run: Run) -> tuple[dict, dict]:
    setup = [measure_setup(args) for _ in range(1 if args.small else SETUP_REPEATS)]
    warm_up(workload, run)
    latencies, batches = run.latencies, []
    started = time.perf_counter()
    while True:
        batch = run_batch(workload, NoTrace(), run, 1 + len(latencies))
        latencies += batch
        batches.append(sum(batch))
        if time.perf_counter() - started + batches[-1] > args.seconds:
            break
    wall = statistics.median(batches)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        # The gated latency: on a shared machine, phases of contention from
        # other tenants move the median of a whole run by up to half.
        "request_min_s": (min(latencies), "s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (len(run.failures) / run.attempted, "ratio"),
    }
    extras = {"requests": (len(latencies), "count"), "batches": (len(batches), "count")}
    if len(latencies) >= 50:
        extras["request_p80_s"] = (statistics.quantiles(latencies, n=5)[3], "s")
    if not run.failures:
        extras.update(workload.extras(wall))
    return metrics, extras


def exit_ok(fn, *args) -> None:
    code = fn(*args)
    if code != 0:
        raise RuntimeError(f"exit code {code}")


def identical_outputs(scenario, dirs) -> None:
    names = (scenario.cfg.report_name, scenario.cfg.curve_name)
    reference = [(scenario.out_dir / n).read_bytes() for n in names]
    for d in dirs:
        for name, data in zip(names, reference):
            if (d / name).read_bytes() != data:
                raise AssertionError(f"{name} in {d.name} differs from {scenario.out_dir.name}")


def replayed_s(tracer, request_id) -> float:
    import workloads

    return sum(sum(tracer.durations(name, request_id)) for name in workloads.REPLAY_CALLS)


def cli_self_s(scenario, tracer, run: Run, repeats: int = 5) -> float:
    """Median ``run_scenario`` time outside the calls it makes, without the oracle.

    Analytic-only, so that the oracle's run-to-run noise does not swamp the
    few milliseconds of report writing and point queries.
    """
    out_dir = scenario.workdir / "out_analytic"
    run_s, replay_s = [], []
    for k in range(repeats):
        request_id = f"cli-self-{k}"
        with tracer.request(request_id):
            scenario.replay(tracer, analytic_only=True)
            run.attempt("run_scenario --analytic-only", exit_ok, scenario.request, 0, tracer,
                        out_dir, 1, True)
        run_s.append(tracer.durations("run_scenario", request_id)[0])
        replay_s.append(replayed_s(tracer, request_id))
    return statistics.median(run_s) - statistics.median(replay_s)


def cli_section(scenario, tracer, run: Run, request_ids) -> dict:
    """CLI-layer metrics, plus the byte-identity checks across thread counts and the CLI."""
    from claimflow import BLOCK_SIZE
    import workloads

    run_s = [tracer.durations("run_scenario", r)[0] for r in request_ids]
    report = scenario.read_report()
    metrics = {
        "cli.run_scenario_s": (statistics.median(run_s), "s"),
        "cli.self_ms": (cli_self_s(scenario, tracer, run) * 1e3, "ms"),
        "mc.blocks": (-(-scenario.cfg.n_paths // BLOCK_SIZE), "count"),
        "mc.rel_std_error": (report["mc"]["std_error"] / abs(report["mc"]["mean"]), "ratio"),
    }

    one_thread = scenario.workdir / "out_threads1"
    started = time.perf_counter()
    run.attempt("run_scenario threads=1", exit_ok, scenario.request, 0, NoTrace(), one_thread, 1)
    metrics["mc.thread_speedup"] = ((time.perf_counter() - started) / statistics.median(run_s), "ratio")

    by_cli = scenario.workdir / "out_cli"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, "-m", "claimflow.cli", "run", str(scenario.config_path), "--out", str(by_cli),
           "--validate", "--threads", str(workloads.THREADS)]
    run.attempt("claimflow run", exit_ok, lambda: subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, timeout=150).returncode)
    run.attempt("byte-identical reports", identical_outputs, scenario, [one_thread, by_cli])
    return metrics


def traced(args, workload, run: Run) -> tuple[dict, dict]:
    import probes
    import workloads

    # Untraced batches before and after the traced one, so that drift does
    # not show up as tracing overhead.
    tracer = Tracer()
    warm_up(workload, run)
    batch_ids = list(range(1, 1 + workload.batch_size))
    untraced_wall = sum(run_batch(workload, NoTrace(), run, batch_ids[0]))
    traced_wall = sum(run_batch(workload, tracer, run, batch_ids[0], replay=workload.is_cli))
    untraced_wall = (untraced_wall + sum(run_batch(workload, NoTrace(), run, batch_ids[0]))) / 2

    if workload.is_cli:
        scenario, cli_ids = workload, batch_ids
    else:
        scenario = workloads.build("example_validate", ROOT, args.seed, args.small, WORKDIR)
        cli_ids = [batch_ids[-1] + 1]
        run_batch(scenario, tracer, run, cli_ids[0], replay=True)
    metrics = cli_section(scenario, tracer, run, cli_ids)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics.update(probes.all_probes(tracer, ROOT, workload, scenario, args.seed, args.small))
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")

    self_ms = {f"self_ms.{layer}": (s * 1e3, "ms")
               for layer, s in sorted(tracer.self_times(set(batch_ids)).items())}
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file, {"workload": args.workload, "seed": args.seed,
                              "self_ms_per_layer": {k: v for k, (v, _) in self_ms.items()}})
    extras = dict(self_ms, untraced_wall_s=(untraced_wall, "s"), traced_wall_s=(traced_wall, "s"),
                  spans=(len(tracer.spans), "count"))
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return metrics, extras


def result_line(args, declared: dict, run: Run, metrics: dict) -> str:
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit} but BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    failed = len(run.failures)
    return json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                       "metrics": out})


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/claimflow/__init__.py", "configs/example.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a claimflow checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {spec["name"]: spec["why"] for spec in declared["workloads"]}
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        workload = workloads.build(args.workload, ROOT, args.seed, args.small, WORKDIR)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        run = Run()
        metrics, extras = (traced if args.trace else untraced)(args, workload, run)
        stamp = machine(args, workloads.THREADS)
        for key, value in stamp.items():
            print(f"machine {key} = {value}")
        for name, (value, unit) in {**metrics, **extras}.items():
            print(f"metric {name} = {value:.6g} {unit}")
        results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps({
            "machine": stamp, "why": why[args.workload], "attempted": run.attempted,
            "failures": run.failures, "latencies_s": run.latencies,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        }, indent=1) + "\n", encoding="utf-8")
        line = result_line(args, declared, run, metrics)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
