"""Mutation check: does the Tier-1 suite fail when the code is broken on purpose?

    python tools/mutants.py                 # every mutant in the catalogue
    python tools/mutants.py --only alpha-plus-one --timeout 300

Each catalogue entry names one edit, ``(file, old text, new text)``. For each
entry the tool copies the repository into a temporary directory, applies the
edit there (it stops with an error when the old text is not found exactly
once, so the catalogue cannot rot silently), and runs the Tier-1 suite with
``-x -q`` under a timeout, after the mutated module's own test file
(``tests/test_<module>.py``) when there is one. A mutant is *killed* when
either run fails, *timed out* when it hangs past the timeout (a hang is a
failure too, so it counts as killed), and *survived* when every test
passes. An entry listed as equivalent changes no output a test can reach,
for the reason it gives; its edit is still applied, so its text stays
checked, but the suite is not run for it.

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
ESTIMATORS = "src/arbormatch/estimators.py"
GRAPHS = "src/arbormatch/graphs.py"
HARNESS = "src/arbormatch/harness.py"
STREAMS = "src/arbormatch/streams.py"


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
        own = f"tests/test_{Path(mutant.path).stem}.py"
        for paths in ([own], []) if (tree / own).exists() else ([],):
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
