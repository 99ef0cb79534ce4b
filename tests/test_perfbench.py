"""The benchmark's per-layer probes run against the package as it stands."""
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_all_probes_give_finite_declared_metrics(tmp_path, monkeypatch):
    # perfbench/probes.py calls into the package by name (log_level_paths,
    # trapezoid_hazard, mc_reserve, ...), so dropping a name it still uses
    # fails here rather than in a benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import probes
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {spec["name"]: spec["unit"] for spec in declared["per_layer"]}
    scenario = workloads.build("stochastic_validate", ROOT, 42, True, tmp_path)
    metrics = probes.all_probes(spans.Tracer(), ROOT, scenario, scenario, 42, True)
    assert metrics
    for name, (value, unit) in metrics.items():
        assert math.isfinite(value), name
        assert unit and units[name] == unit, name
