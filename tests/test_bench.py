import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tool_keeps_perfbench_result_and_metadata(monkeypatch):
    # perfbench part only: the tool's Tier-1 run is left out, so the suite
    # never starts itself
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench = importlib.import_module("bench")
    run = bench.perfbench(ROOT, "dynamic-churn", bench.SEED, 0.2, "smoke")
    assert set(run) == {"meta", "result"}
    assert run["meta"]["workload"] == "dynamic-churn" and run["meta"]["size"] == "smoke"
    assert run["meta"]["seed"] == bench.SEED
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run["result"]["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(bench.WORKLOADS) == {w["name"] for w in spec["workloads"]}
