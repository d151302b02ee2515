"""Benchmark of arbormatch through its public entry points.

    python3 perfbench/run.py --workload static-validate --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports the library from ``src/``. The
metric names, units and each workload's reason come from ``BENCHMARK.json``.

Workloads (sizes are fixed; ``--size smoke`` shrinks them for the tests):

* ``static-validate``: ``harness.run_experiment``, one trial per op, each on
  its own union-of-forests graph (n=4000, c=2, uniform-random order, alg2,
  mu=7, eps=0.5). Dominated by the exact matching oracle.
* ``survivor-stream``: ``cli.main(["estimate", file, "--algorithm",
  "logspace", ...])`` over one union-of-forests stream file (n=100k, c=1)
  written during set-up; one estimator seed per op. At eps=0.6 level 0
  terminates, so the estimator runs in its sampled regime. No oracle.
* ``dynamic-churn``: ``harness.run_experiment`` with the insert/delete
  estimator (n=1000, c=1, mu=3, eps=0.5, delete-fraction 0.5). Dominated by
  the dynamic stream generator and its degeneracy checks.

Each op's input derives from ``--seed`` and the op's index, so a seed fixes
the inputs. Every op is checked: the estimate must not fail and must lie in
the paper's window, around the exact M* for alg2 and dynamic and around
3*e_6 (counted offline at set-up) for logspace. M* is itself checked against
an oracle other than the blossom one: greedy bounds, or the forest oracle
when c=1.

``--trace 0`` sets up at least ``SETUP_REPEATS`` times and for at least
``SETUP_SECONDS`` (``setup_s`` is the median of: library import in a fresh
interpreter plus building the run's inputs and references), runs one warm-up op, then runs ops in a closed loop, one at a
time, for ``--seconds`` and reports the end-to-end metrics.

On a shared host the same work can take tens of percent longer from one
minute to the next. So the end-to-end times are given at reference speed:
a fixed pure-Python loop in this file (``reference_loop``) runs between the
set-ups and after every op, for about ``REFERENCE_SHARE`` of the op's time,
and each time is scaled by ``REFERENCE_S`` / the loop's mean time in the run.
The mean, not the median: an op's time sums the host's slow and fast
moments, and so does the mean. The loop does not touch the library, so only
a change to the program moves the scaled times. The raw times are in the
metadata.

``--trace 1`` runs a fixed number of ops, each once untraced and once with
spans around every public streams/graphs/estimators call as harness, cli and
streams see it; both must return the same record. It then replays the first estimator
call under ``tracemalloc`` and each logspace call's first alg4 attempt with
its trace hook, and reports the per-layer metrics. Per-layer metrics of a
layer a workload does not run read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata (git SHA, Python, nproc, seed, parameters, op
count, fail fraction and the span summary).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # the benchmark writes no bytecode into the checkout
from probe import Probe, library_calls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0  # cheap set-ups repeat until then, so their median is steady
REFERENCE_S = 0.025  # reference_loop's time at reference speed (about its mean on a 2-CPU VM)
REFERENCE_SHARE = 0.05  # reference-loop time after each op, as a share of the op's time


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def load_library() -> SimpleNamespace:
    package = SRC / "arbormatch" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no arbormatch sources at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arbormatch
    from arbormatch import cli, errors, estimators, graphs, harness, streams

    if Path(arbormatch.__file__).resolve() != package.resolve():
        raise BenchError(f"imported arbormatch from {arbormatch.__file__}, not {package}")
    return SimpleNamespace(
        cli=cli, errors=errors, estimators=estimators, graphs=graphs, harness=harness,
        streams=streams,
    )


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from None


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclasses.dataclass(frozen=True)
class Record:
    """What one op returned; the traced and untraced runs must agree on it."""

    value: float | int | None
    m_star: int | None
    space_peak: int
    failed: bool


@dataclasses.dataclass
class OpResult:
    seconds: float
    record: Record
    events: int  # stream events the estimator handled
    problem: str | None


def in_window(value, lo: float, hi: float) -> str | None:
    if value is None:
        return "estimate failed"
    if not lo <= value <= hi:
        return f"estimate {value} outside [{lo}, {hi}]"
    return None


class ExperimentWorkload:
    """One trial per op through ``harness.run_experiment``; each trial builds its own graph."""

    root = "harness.run_experiment"

    def __init__(self, lib, name: str, params: dict, producer: str, estimator: str, trace_ops: int):
        self.lib = lib
        self.name = name
        self.params = params
        self.producer = (lib.harness, producer)  # the call that makes the estimator's stream
        self.estimator = estimator
        self.trace_ops = trace_ops  # fixed, so the traced run's counts repeat exactly
        self.beta = lib.estimators.Alg1Params(
            mu=params["mu"], p=1.0, c=params["c"], epsilon=params["epsilon"]
        ).beta

    def prepare(self, workdir: Path) -> dict[str, float]:
        """Write and parse the experiment config, as ``arbormatch experiment`` does."""
        start = time.perf_counter()
        path = workdir / f"{self.name}.cfg"
        lines = [f"{key} = {value}" for key, value in self.params.items()]
        path.write_text("\n".join(lines + ["trials = 1"]) + "\n")
        self.config = self.lib.harness.parse_config(path.read_text())
        return {"config_s": time.perf_counter() - start}

    def run_op(self, key: int) -> Record:
        (rec,) = self.lib.harness.run_experiment(dataclasses.replace(self.config, seed0=key))
        return Record(rec.value, rec.m_star, rec.space_peak, rec.failed)

    def window(self, rec: Record) -> str | None:
        """alg2 and dynamic: [(1-eps)M*, (1+eps)*beta*M*]."""
        eps = self.params["epsilon"]
        value = None if rec.failed else rec.value
        return in_window(value, (1 - eps) * rec.m_star, (1 + eps) * self.beta * rec.m_star)


class StaticValidate(ExperimentWorkload):
    def check(self, rec: Record, last: dict, deep: bool) -> tuple[int, str | None]:
        _, _, stream = last["streams.order_stream"]
        # Independent of the blossom oracle: a maximal matching is at least half a maximum one.
        greedy = self.lib.graphs.greedy_maximal_matching(stream)
        if not greedy <= rec.m_star <= min(2 * greedy, stream.n // 2):
            return len(stream.events), f"m_star {rec.m_star} outside greedy bounds of {greedy}"
        return len(stream.events), self.window(rec)


class DynamicChurn(ExperimentWorkload):
    def check(self, rec: Record, last: dict, deep: bool) -> tuple[int, str | None]:
        (g, *_), _, stream = last["streams.generate_dynamic_stream"]
        events = len(stream.events)
        try:
            exact = self.lib.graphs.forest_matching_size(g)  # c=1 graphs are forests
            if deep:
                stream.validate()
        except (self.lib.errors.GraphError, self.lib.errors.StreamInvariantError) as exc:
            return events, f"reference check raised {exc}"
        if rec.m_star != exact:
            return events, f"m_star {rec.m_star} != forest oracle {exact}"
        if deep and stream.live_edges() != set(g.edges):
            return events, "dynamic stream's live edges differ from the graph"
        return events, self.window(rec)


class SurvivorStream:
    """``arbormatch estimate --algorithm logspace`` on one stream file, a new seed per op."""

    root = "cli.main"
    estimator = "estimators.estimate_matching_logspace"

    def __init__(self, lib, name: str, params: dict, seed: int, trace_ops: int):
        self.lib = lib
        self.name = name
        self.params = params
        self.producer = (lib.cli, "parse_stream")
        self.trace_ops = trace_ops
        rng = random.Random(f"{name}/{seed}/stream")
        self.graph_seed = rng.randrange(2**31)
        self.order_seed = rng.randrange(2**31)

    def prepare(self, workdir: Path) -> dict[str, float]:
        """Write the stream file and count its surviving edges at alpha = 6c offline."""
        streams, p = self.lib.streams, self.params
        t0 = time.perf_counter()
        g = streams.generate_union_of_forests(p["n"], p["c"], self.graph_seed)
        t1 = time.perf_counter()
        self.stream = streams.order_stream(g, p["ordering"], self.order_seed)
        t2 = time.perf_counter()
        self.path = workdir / f"{self.name}.stream"
        self.path.write_text(streams.serialize_stream(self.stream))
        t3 = time.perf_counter()
        self.e6 = len(self.lib.graphs.offline_alpha_good_set(self.stream, 6 * p["c"]))
        t4 = time.perf_counter()
        return {"generate_s": t1 - t0, "order_s": t2 - t1, "write_s": t3 - t2, "e6_s": t4 - t3}

    def run_op(self, key: int) -> Record:
        p = self.params
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main([
                "estimate", str(self.path), "--algorithm", "logspace", "--c", str(p["c"]),
                "--epsilon", str(p["epsilon"]), "--seed", str(key),
            ])
        fields = dict(item.split("=", 1) for item in out.getvalue().split())
        value = float(fields["value"]) if fields.get("value") else None
        failed = code != 0 or fields.get("fail") != "0"
        return Record(value, None, int(fields.get("space_peak", 0)), failed)

    def check(self, rec: Record, last: dict, deep: bool) -> tuple[int, str | None]:
        _, _, parsed = last["streams.parse_stream"]
        if parsed.events != self.stream.events:
            return len(parsed.events), "parsed stream differs from the stream written"
        eps = self.params["epsilon"]
        target = 3 * self.e6
        value = None if rec.failed else rec.value
        return len(parsed.events), in_window(value, (1 - 3 * eps) * target, (1 + 3 * eps) * target)


def make_workload(lib, name: str, size: str, seed: int):
    full = size == "full"
    if name == "static-validate":
        params = {"generator": "union-of-forests", "n": 4000 if full else 300, "c": 2,
                  "ordering": "uniform-random", "estimator": "alg2", "mu": 7, "epsilon": 0.5}
        return StaticValidate(lib, name, params, "order_stream", "estimators.alg2_estimate",
                              trace_ops=8 if full else 2)
    if name == "dynamic-churn":
        params = {"generator": "union-of-forests", "n": 1000 if full else 120, "c": 1,
                  "estimator": "dynamic", "mu": 3, "epsilon": 0.5, "delete-fraction": 0.5}
        return DynamicChurn(lib, name, params, "generate_dynamic_stream",
                            "estimators.dynamic_estimate", trace_ops=4 if full else 2)
    params = {"generator": "union-of-forests", "n": 100_000 if full else 2000, "c": 1,
              "ordering": "uniform-random", "estimator": "logspace", "epsilon": 0.6}
    return SurvivorStream(lib, name, params, seed, trace_ops=3 if full else 2)


def run_op(workload, probe: Probe, key: int, deep: bool) -> OpResult:
    probe.last.clear()
    start = time.perf_counter()
    with probe.span(workload.root):
        record = workload.run_op(key)
    seconds = time.perf_counter() - start
    events, problem = workload.check(record, probe.last, deep)
    return OpResult(seconds, record, events, problem)


def warm_up(workload, key: int) -> OpResult:
    """One checked op before anything is timed, so first-call costs stay out of the job."""
    with Probe([workload.producer], spans=False) as tap:
        return run_op(workload, tap, key, deep=False)


# Imports the library in a fresh interpreter and prints the seconds it took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import arbormatch.cli; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Library import time in a fresh interpreter; -B writes no bytecode into src/."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def set_up(workload, workdir: Path) -> dict[str, float]:
    """Import the library and build the run's inputs and references; seconds per phase."""
    return {"import_s": import_seconds(), **workload.prepare(workdir)}


def reference_loop() -> int:
    """Fixed pure-Python graph work that uses no library code: build a random
    multigraph's adjacency lists, then match greedily. Returns the matching size."""
    rng = random.Random(0)
    adj: dict[int, list[int]] = {}
    for _ in range(15_000):
        u, v = rng.randrange(3000), rng.randrange(3000)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    matched: set[int] = set()
    for u in sorted(adj):
        if u not in matched:
            for v in adj[u]:
                if v != u and v not in matched:
                    matched.update((u, v))
                    break
    return len(matched) // 2


REFERENCE_RESULT = reference_loop()


def reference_seconds(budget_s: float) -> list[float]:
    """Run the reference loop until it has taken ``budget_s``, at least once."""
    samples: list[float] = []
    while not samples or sum(samples) < budget_s:
        start = time.perf_counter()
        if reference_loop() != REFERENCE_RESULT:
            raise BenchError("the reference loop's result changed")
        samples.append(time.perf_counter() - start)
    return samples


def timed_run(workload, workdir: Path, keys, warmup_key: int, seconds: float):
    setup_s, ref_s = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        phases = set_up(workload, workdir)
        setup_s.append(sum(phases.values()))
        ref_s += reference_seconds(REFERENCE_SHARE * setup_s[-1])
    warm = warm_up(workload, warmup_key)
    timed = []
    with Probe([workload.producer], spans=False) as tap:
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() < deadline:
            timed.append(run_op(workload, tap, next(keys), deep=False))
            ref_s += reference_seconds(REFERENCE_SHARE * timed[-1].seconds)
    op_s = [op.seconds for op in timed]
    # How much slower than reference speed the host ran; times are divided by it.
    slowdown = statistics.fmean(ref_s) / REFERENCE_S
    events_per_s = sum(op.events for op in timed) / sum(op_s)
    metrics = {
        "events_per_s": events_per_s * slowdown,
        "op_ms_p50": statistics.median(op_s) * 1e3 / slowdown,
        "space_items_per_edge": max(op.record.space_peak / op.events for op in timed),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s) / slowdown,
    }
    quartiles = statistics.quantiles(op_s, n=4) if len(op_s) > 1 else op_s * 3
    meta = {
        "ops": len(timed),
        "reference": {"runs": len(ref_s), "mean_ms": statistics.fmean(ref_s) * 1e3,
                      "slowdown": slowdown},
        "raw": {"events_per_s": events_per_s, "op_ms_p50": statistics.median(op_s) * 1e3,
                "setup_s": statistics.median(setup_s)},
        "op_ms_quartiles": [q * 1e3 for q in quartiles],
        "setup_s_runs": setup_s,
        "setup_phases_s": phases,
    }
    return [warm] + timed, metrics, meta


# Span name -> stream events or graph edges the call handled, for per-event rates.
WORK_OF = {
    "graphs.maximum_matching_size": lambda args, result: args[0].m,
    "streams.generate_dynamic_stream": lambda args, result: len(result.events),
    "streams.parse_stream": lambda args, result: len(result.events),
    "estimators.alg2_estimate": lambda args, result: len(args[0].events),
    "estimators.dynamic_estimate": lambda args, result: len(args[0].events),
    "estimators.estimate_matching_logspace": lambda args, result: len(args[0].events),
}


def traced_run(workload, workdir: Path, keys, warmup_key: int):
    lib = workload.lib
    workload.prepare(workdir)
    warm = warm_up(workload, warmup_key)
    keys = [next(keys) for _ in range(workload.trace_ops)]
    tap = Probe([workload.producer], spans=False)
    probe = Probe(
        library_calls([lib.harness, lib.cli, lib.streams], (lib.graphs, "degeneracy")), spans=True
    )
    work = dict.fromkeys(WORK_OF, 0)
    plain, traced = [], []
    calls = []  # (args, kwargs, Estimate) of each op's estimator call
    # Each op runs untraced, then traced, so a slow spell of the machine hits both.
    for key in keys:
        with tap:
            plain.append(run_op(workload, tap, key, deep=False))
        with probe:
            traced.append(run_op(workload, probe, key, deep=True))
        for name, size in WORK_OF.items():
            if name in probe.last:
                args, _, result = probe.last[name]
                work[name] += size(args, result)
        calls.append(probe.last[workload.estimator])
        if plain[-1].record != traced[-1].record and traced[-1].problem is None:
            traced[-1].problem = f"traced record {traced[-1].record} != untraced {plain[-1].record}"

    counts = count_pass(lib, workload.estimator, calls)
    totals = probe.totals()
    root_s = probe.root_seconds()
    n_ops = len(keys)
    plain_s = sum(op.seconds for op in plain)

    def self_ms(name: str) -> float:
        return totals[name].self_s * 1e3 / n_ops if name in totals else 0.0

    def self_per(name: str, scale: float) -> float:
        return totals[name].self_s * scale / work[name] if work[name] else 0.0

    est = workload.estimator

    def est_mean(metric: str, name: str) -> float:
        return statistics.fmean(counts[metric]) if name == est else 0.0

    def items_per_edge(name: str) -> float:
        if name != est:
            return 0.0
        return statistics.fmean(e.space_peak / len(a[0].events) for a, _, e in calls)

    logspace = "estimators.estimate_matching_logspace"
    metrics = {
        "graphs.maximum_matching_size.self_ms": self_ms("graphs.maximum_matching_size"),
        "graphs.maximum_matching_size.us_per_edge": self_per("graphs.maximum_matching_size", 1e6),
        "graphs.degeneracy.calls_per_op":
            totals["graphs.degeneracy"].calls / n_ops if "graphs.degeneracy" in totals else 0.0,
        "graphs.degeneracy.self_ms": self_ms("graphs.degeneracy"),
        "streams.generate_dynamic_stream.self_ms": self_ms("streams.generate_dynamic_stream"),
        "streams.generate_dynamic_stream.ns_per_event":
            self_per("streams.generate_dynamic_stream", 1e9),
        "streams.generate_union_of_forests.self_ms": self_ms("streams.generate_union_of_forests"),
        "streams.order_stream.self_ms": self_ms("streams.order_stream"),
        "streams.parse_stream.ns_per_event": self_per("streams.parse_stream", 1e9),
        f"{logspace}.ns_per_event": self_per(logspace, 1e9),
        f"{logspace}.items_per_edge": items_per_edge(logspace),
        f"{logspace}.attempts_per_op":
            statistics.fmean(e.params["attempts"] for *_, e in calls) if est == logspace else 0.0,
        f"{logspace}.alloc_peak_bytes_per_edge": est_mean("alloc_per_edge", logspace),
        "estimators.alg4.tests_started_per_edge": est_mean("tests_per_edge", logspace),
        "estimators.alg4.levels_terminated": est_mean("levels_terminated", logspace),
        "estimators.alg4.useful_test_ratio": est_mean("useful_ratio", logspace),
        "estimators.alg2_estimate.ns_per_event": self_per("estimators.alg2_estimate", 1e9),
        "estimators.alg2_estimate.items_per_edge": items_per_edge("estimators.alg2_estimate"),
        "estimators.alg2_estimate.alloc_peak_bytes_per_edge":
            est_mean("alloc_per_edge", "estimators.alg2_estimate"),
        "estimators.dynamic_estimate.ns_per_event": self_per("estimators.dynamic_estimate", 1e9),
        "estimators.dynamic_estimate.items_per_edge": items_per_edge("estimators.dynamic_estimate"),
        "estimators.dynamic_estimate.alloc_peak_bytes_per_edge":
            est_mean("alloc_per_edge", "estimators.dynamic_estimate"),
        "harness.run_experiment.self_ms_per_trial": self_ms("harness.run_experiment"),
        "cli.main.self_ms_per_op": self_ms("cli.main"),
        "trace.overhead_pct": (root_s - plain_s) / plain_s * 100.0,
    }
    layers: dict[str, float] = {}
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t.self_s / root_s
    meta = {
        "ops": n_ops,
        "layer_self_share": layers,
        "spans": {
            name: {"calls": t.calls, "self_share": t.self_s / root_s,
                   "total_share": t.total_s / root_s}
            for name, t in sorted(totals.items(), key=lambda kv: -kv[1].self_s)
        },
    }
    return [warm] + plain + traced, metrics, meta


def count_pass(lib, estimator: str, calls) -> dict[str, list[float]]:
    """Replay the first estimator call under tracemalloc, and the first alg4
    attempt of each logspace call with its trace hook; these counts repeat
    exactly for a seed."""
    fn = getattr(lib.estimators, estimator.split(".", 1)[1])
    args, kwargs, _ = calls[0]
    tracemalloc.start()  # slows logspace tenfold, so only the first call is replayed
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts: dict[str, list[float]] = {"alloc_per_edge": [peak / len(args[0].events)]}
    if estimator != "estimators.estimate_matching_logspace":
        return counts
    counts.update(tests_per_edge=[], levels_terminated=[], useful_ratio=[])
    for args, kwargs, _ in calls:
        c = kwargs["c"]
        est = lib.estimators.alg4_estimate_e_alpha(
            args[0], 6 * c, c, kwargs["epsilon"], kwargs["seed"], collect_trace=True
        )
        started = [len(positions) for positions in est.trace["started"].values()]
        selected = est.params["selected_level"]
        useful = 0 if selected is None else started[selected]
        counts["tests_per_edge"].append(sum(started) / len(args[0].events))
        counts["levels_terminated"].append(sum(est.trace["terminated"]))
        counts["useful_ratio"].append(useful / sum(started))
    return counts


def key_stream(label: str):
    rng = random.Random(label)
    while True:
        yield rng.randrange(2**31)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="arbormatch benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("static-validate", "survivor-stream", "dynamic-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input so the benchmark's tests run in seconds")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        lib = load_library()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(lib, args.workload, args.size, args.seed)
    keys = key_stream(f"{args.workload}/{args.seed}/ops")
    warmup_key = next(key_stream(f"{args.workload}/{args.seed}/warm-up"))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            ops, values, extra = traced_run(workload, Path(tmp), keys, warmup_key)
        else:
            ops, values, extra = timed_run(workload, Path(tmp), keys, warmup_key, args.seconds)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} do not match {SPEC.name}")
    problems = [op.problem for op in ops if op.problem]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    meta = {
        "workload": args.workload, "why": why.get(args.workload), "params": workload.params,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "fail_fraction": len(problems) / len(ops), "problems": problems[:5], **extra,
    }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
