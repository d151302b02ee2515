"""Smoke tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Per-layer metrics that are counts, not times: equal on every run of one seed.
COUNTS = [
    "graphs.degeneracy.calls_per_op",
    "estimators.estimate_matching_logspace.items_per_edge",
    "estimators.estimate_matching_logspace.attempts_per_op",
    "estimators.estimate_matching_logspace.alloc_peak_bytes_per_edge",
    "estimators.alg4.tests_started_per_edge",
    "estimators.alg4.levels_terminated",
    "estimators.alg4.useful_test_ratio",
    "estimators.alg2_estimate.items_per_edge",
    "estimators.alg2_estimate.alloc_peak_bytes_per_edge",
    "estimators.dynamic_estimate.items_per_edge",
    "estimators.dynamic_estimate.alloc_peak_bytes_per_edge",
]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def test_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_declared_metric(workload, trace):
    meta, result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert meta["workload"] == workload and meta["fail_fraction"] == 0.0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    first = result_of(bench(workload, 1))[1]["metrics"]
    second = result_of(bench(workload, 1))[1]["metrics"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_restores_wrapped_functions():
    sys.path.insert(0, str(ROOT / "src"))
    from arbormatch import graphs, harness, streams
    from probe import Probe, library_calls

    targets = library_calls([harness, streams], (graphs, "degeneracy"))
    before = [getattr(m, a) for m, a in targets]
    with Probe(targets, spans=True) as probe:
        with probe.span("root"):
            harness.maximum_matching_size(streams.generate_union_of_forests(50, 1, 0))
    assert [getattr(m, a) for m, a in targets] == before
    totals = probe.totals()
    # root > generate_union_of_forests > build_graph > degeneracy, and the oracle
    assert totals["graphs.degeneracy"].calls == 1
    assert totals["root"].self_s <= totals["root"].total_s
    assert probe.root_seconds() == pytest.approx(totals["root"].total_s)
