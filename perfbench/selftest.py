"""Fast self-test of the benchmark at reduced sizes.

Runs every workload once untraced and once traced with ``--small``, and
checks that every metric the benchmark defines is printed with a unit, that
the result line holds exactly the metrics BENCHMARK.json declares, and that
``error_rate`` is 0.  Finally runs the command in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Metrics printed besides the gated ones, per workload, untraced.
COMMON = ("wall_s", "request_p50_s", "error_rate")
EXTRAS = {
    "example_validate": COMMON + ("mc_paths_per_s", "mc_s_to_1pct"),
    "valuation_ladder": COMMON + ("valuations_per_s", "request_p80_s"),
    "stochastic_validate": COMMON + ("mc_paths_per_s", "mc_s_to_1pct"),
    "scenario_generation": COMMON + ("policies_per_s",),
}
#: Long enough for 50 requests of the small ladder, so that p80 is printed.
SECONDS = {"valuation_ladder": 8}
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
           "--seconds", str(SECONDS.get(workload, 1)), "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(workload: str, trace: int) -> list[str]:
    done = run(workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = BENCH["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {spec["name"] for spec in declared}:
        problems.append(f"result metrics differ from BENCHMARK.json: {sorted(result['metrics'])}")
    for spec in declared:
        got = result["metrics"].get(spec["name"], {})
        if got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{spec['name']}: {got}")
    wanted = [spec["name"] for spec in declared] + ([] if trace else list(EXTRAS[workload]))
    problems += [f"{name} not printed with a unit" for name in wanted if not printed.get(name)]
    if not trace and not re.search(r"^metric error_rate = 0 ratio$", done.stdout, re.M):
        problems.append("error_rate is not 0")
    if trace and not list((ROOT / "perfbench" / "out").glob(f"spans-{workload}-seed42.json")):
        problems.append("no span file")
    return problems


def check_outside_checkout() -> list[str]:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run("example_validate", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"exit code {done.returncode} with stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    for spec in BENCH["workloads"]:
        for trace in (0, 1):
            problems = check(spec["name"], trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {spec['name']} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_outside_checkout()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} fails outside a checkout")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
