"""Mutation check: does the Tier-1 suite fail when the code is broken on purpose?

    python tools/mutants.py                 # every mutant in the catalogue
    python tools/mutants.py --only alpha-plus-one --timeout 300

Each catalogue entry names one edit, ``(file, old text, new text)``. For each
entry the tool copies the repository into a temporary directory, applies the
edit there (it stops with an error when the old text is not found exactly
once, so the catalogue cannot rot silently), and runs the Tier-1 suite with
``-x -q`` under a timeout, after the mutated module's own test files (those
``OWN_TESTS`` names, else ``tests/test_<module>.py`` when there is one). A
mutant is *killed* when either run fails, *timed out* when it hangs past the
timeout (a hang is a failure too, so it counts as killed), and *survived*
when every test passes. An entry listed as equivalent changes no output a
test can reach, for the reason it gives; its edit is still applied, so its
text stays checked, but the suite is not run for it.

The exit status is 0 when every other mutant is killed, 1 when one survives,
and 2 when an edit no longer applies. Standard library only; the repository
working tree is never modified.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py checks that each edit applies to the unmutated tree, so in a
# mutated copy it fails by construction; it is left out so that only the program's
# own tests can kill a mutant
TIER1 = [
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--ignore=tests/test_mutants.py",
]
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".perfbench-*", "*.egg-info"
)
CLI = "src/arbormatch/cli.py"
ESTIMATORS = "src/arbormatch/estimators.py"
GRAPHS = "src/arbormatch/graphs.py"
HARNESS = "src/arbormatch/harness.py"
STREAMS = "src/arbormatch/streams.py"
# The test files run before the suite for a mutant of each module; by default a
# module's own ``tests/test_<module>.py``. alg4 lives in estimators.py, but its
# differential and survivor tests are in tests/test_alg4.py, which kills an alg4
# mutant in seconds where the whole suite takes 20-48 s to reach them. The lemma
# report that harness.py formats is pinned through the CLI, in tests/test_cli.py.
OWN_TESTS = {
    ESTIMATORS: ["tests/test_alg4.py", "tests/test_estimators.py"],
    HARNESS: ["tests/test_harness.py", "tests/test_cli.py"],
}


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None  # why no test can tell the edit apart


CATALOGUE = (
    Mutant(
        "alpha-plus-one",  # a test sees alpha + 1 later edges at an endpoint before it fails
        ESTIMATORS,
        "reach = int(alpha) + 1",
        "reach = int(alpha) + 2",
    ),
    Mutant(
        "failure-counted-at-both-ends",  # a test that fails at u leaves its copy live
        ESTIMATORS,
        "                        _mark_copy_dead(by_vertex[queue_u[3]], u, floor)\n",
        "",
    ),
    Mutant(
        "mark-ignores-the-floor",  # the first copy naming x is marked, even a dead one
        ESTIMATORS,
        "if queue[i + 1] == x and queue[i] >= floor:",
        "if queue[i + 1] == x:",
    ),
    Mutant(
        "sweep-drops-the-floor-level",  # the sweep also drops live tests whose top is the floor
        ESTIMATORS,
        "            if queue[i + 1] >= floor:",
        "            if queue[i + 1] > floor:",
    ),
    Mutant(
        "stale-test-off-by-one",  # a live test at the floor level is taken for a dead one
        ESTIMATORS,
        "if top >= floor:  # fails at u",
        "if top > floor:  # fails at u",
    ),
    Mutant(
        "never-sweep",  # dead entries are kept until their deadline
        ESTIMATORS,
        "if entries > 4 * live:",
        "if False:",
    ),
    Mutant(
        "tau-alpha-not-squared",  # the level cap grows with alpha, not alpha squared
        ESTIMATORS,
        "64.0 * alpha * alpha",
        "64.0 * alpha",
    ),
    Mutant(
        "scale-one-level-low",  # a count at level i is scaled as if it were at level i - 1
        ESTIMATORS,
        "value = count / growth ** (-i) if i else count",
        "value = count / growth ** (-(i - 1)) if i else count",
    ),
    Mutant(
        "highest-qualifying-level",  # selection keeps the last level under tau', not the first
        ESTIMATORS,
        "            value = count / growth ** (-i) if i else count\n            break\n",
        "            value = count / growth ** (-i) if i else count\n",
    ),
    Mutant(
        "alg2-sampler-seed-plus-one",  # alg2's degree sampler draws another sample than alg1's
        ESTIMATORS,
        "state = Alg1State(stream.n, params, seed)\n    matched",
        "state = Alg1State(stream.n, params, seed + 1)\n    matched",
    ),
    Mutant(
        "greedy-wins-at-cutoff",  # a greedy matching that reached t still decides
        ESTIMATORS,
        "if r is not None and r < t:",
        "if r is not None and r <= t:",
    ),
    Mutant(
        "lower-counter-high-at-mu",  # an unsampled neighbour counts as high at l = mu
        ESTIMATORS,
        "if count > mu)",
        "if count >= mu)",
    ),
    Mutant(
        "overflow-at-capacity",  # the live-edge set is given up when it holds exactly 4t^2
        ESTIMATORS,
        "if held > capacity:",
        "if held >= capacity:",
    ),
    Mutant(
        "shuffle-block-off-by-one",  # each block starts one i late: i = 1 never swaps
        STREAMS,
        "lo = (1 << (bits - 1)) - 1",
        "lo = 1 << (bits - 1)",
    ),
    Mutant(
        "merge-drops-members",  # a merged component's old vertices keep a stale label
        STREAMS,
        "            keep += gone\n",
        "",
    ),
    Mutant(
        "greedy-never-guesses",  # a seed that needed a guess is taken for a maximum matching
        GRAPHS,
        "                guessed = True\n",
        "",
    ),
    Mutant(
        "peel-leaves-a-level-early",  # a vertex is peeled once it falls to k + 1
        GRAPHS,
        "                    if d == k:\n",
        "                    if d == k + 1:\n",
    ),
    Mutant(
        "profile-counts-before-reading",  # each edge is counted among its own later edges
        GRAPHS,
        "        a = later[u]\n        b = later[v]\n        out[i] = a if a > b else b\n"
        "        later[u] = a + 1\n        later[v] = b + 1\n",
        "        later[u] += 1\n        later[v] += 1\n        a = later[u]\n        b = later[v]\n"
        "        out[i] = a if a > b else b\n",
    ),
    Mutant(
        "trees-never-meet",  # two trees that touch are contracted as one blossom
        GRAPHS,
        "if tree[to] != tree[v]:",
        "if False:",
    ),
    Mutant(
        "flip-one-side",  # only v's path is flipped when two trees meet
        GRAPHS,
        "                        flip(match[to])\n",
        "",
    ),
    Mutant(
        "bound-off-by-one",  # the matcher stops one short of the counting bound
        GRAPHS,
        "bound = size + len(roots) // 2",
        "bound = size + len(roots) // 2 - 1",
    ),
    Mutant(
        "collector-left-off",  # a trial leaves the cyclic collector paused
        HARNESS,
        "            gc.enable()\n",
        "            pass\n",
    ),
    Mutant(
        "trial-graph-from-seed0",  # every trial generates the graph of the first trial
        HARNESS,
        "g = GENERATORS[config.generator](config, seed)",
        "g = GENERATORS[config.generator](config, config.seed0)",
    ),
    Mutant(
        "lemma-ok-mark",  # a check that holds is marked "ok" without the padding space
        HARNESS,
        'mark = "ok " if c.holds',
        'mark = "ok" if c.holds',
    ),
    Mutant(
        "oracle-keys-unsorted",  # the oracle report lists its keys in insertion order
        CLI,
        "print(json.dumps(payload, sort_keys=True))",
        "print(json.dumps(payload))",
    ),
    Mutant(
        "check-lemmas-always-passes",  # a violated inequality still exits 0
        CLI,
        "return 0 if report.passed else 1",
        "return 0",
    ),
    Mutant(
        "blossom-phase-always-runs",
        GRAPHS,
        "    if not guessed:\n",
        "    if False:\n",
        equivalent="the certificate only skips a phase that cannot succeed: with no guess "
        "the seed is already maximum, so a phase, where the counting bound lets one start, "
        "finds no augmenting path and the size is the same",
    ),
    Mutant(
        "selection-strictly-under-threshold",
        ESTIMATORS,
        "if count <= threshold:",
        "if count < threshold:",
        equivalent="above level 0 the threshold is tau'*(1+eps) = 8 ln(n)(1+eps)/eps^2, "
        "an integer only for special n and eps, so an integer count almost never equals "
        "it; at level 0 it is infinite",
    ),
)


def apply(mutant: Mutant, tree: Path) -> None:
    """Apply the mutant's edit inside ``tree``; the old text must occur exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        print(
            f"mutant {mutant.name}: the old text occurs {found} times in {mutant.path}, "
            "not once; update the catalogue",
            file=sys.stderr,
        )
        raise SystemExit(2)
    path.write_text(text.replace(mutant.old, mutant.new))


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no failing test named; see the output)"


def run(mutant: Mutant, timeout: float) -> tuple[str, str]:
    """(status, detail) for one mutant, run in a fresh copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="arbormatch-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        apply(mutant, tree)
        if mutant.equivalent:
            return "equivalent", mutant.equivalent
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        # The mutated module's own test file runs first, on small cases that fail
        # fast: a matcher mutant that loops forever on a large graph would hang the
        # whole suite's first test (the acceptance corpus) until the timeout.
        own = OWN_TESTS.get(mutant.path, [f"tests/test_{Path(mutant.path).stem}.py"])
        own = [path for path in own if (tree / path).exists()]
        for paths in (own, []) if own else ([],):
            try:
                done = subprocess.run(
                    [sys.executable, *TIER1, *paths], cwd=tree, env=env, timeout=timeout,
                    capture_output=True, text=True,
                )
            except subprocess.TimeoutExpired:
                return "timed out", f"no result after {timeout:.0f} s"
            if done.returncode != 0:
                return "killed", first_failure(done.stdout + done.stderr)
        return "survived", "every Tier-1 test passed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per suite run")
    args = parser.parse_args(argv)
    names = {m.name for m in CATALOGUE}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in CATALOGUE if not args.only or m.name in args.only]
    survived = 0
    for m in chosen:
        start = time.perf_counter()
        status, detail = run(m, args.timeout)
        survived += status == "survived"
        print(f"{m.name}: {status} in {time.perf_counter() - start:.0f} s -- {detail}", flush=True)
    killed = sum(1 for m in chosen if not m.equivalent) - survived
    print(f"{killed} killed, {survived} survived, {sum(bool(m.equivalent) for m in chosen)} equivalent")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
