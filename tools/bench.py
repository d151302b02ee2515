"""Write a BENCH file: perfbench's end-to-end results and the Tier-1 wall time, per checkout.

    python tools/bench.py -o BENCH_<n>.json
    python tools/bench.py --tree parent=../parent --tree change=. -o BENCH_<n>.json

For each checkout (``--tree LABEL=DIR``; by default the one holding this file,
labelled ``change``) the tool runs ``perfbench/run.py --trace 0`` once per
workload at seed ``SEED`` for ``SECONDS``, each in its own interpreter from the
checkout's root, and keeps perfbench's two output lines: the result and its
metadata. It then runs the checkout's Tier-1 suite and records the wall time,
the pass and fail counts and the five slowest tests. Each
checkout's entry also names its git commit, and whether tracked files differ
from it (``dirty``), so a run on a working tree is told apart from one on a
commit. The host's Python version and CPU count are recorded once.

``<n>`` numbers the change that writes the file, so consecutive files diff as
JSON; the settings are constants so that every file is made alike. Checkouts
run one after another, in the order given; numbers from one host and one file
compare, numbers across files only roughly. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("static-validate", "survivor-stream", "dynamic-churn")
SEED = 7
SECONDS = 35.0
TIER1 = [
    "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--durations=5",
]
DURATION = re.compile(r"^([0-9.]+)s\s+(?:call|setup|teardown)\s+(\S+)$")
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def perfbench(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """perfbench's metadata and result for one workload, run in ``tree``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--size", size,
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench {workload} failed in {tree}:\n{done.stderr}")
    return {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def tier1(tree: Path) -> dict:
    """Wall time, counts and the five slowest tests of one Tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    counts = {kind.rstrip("s"): int(k) for k, kind in COUNT.findall(lines[-1] if lines else "")}
    slowest = [
        {"test": m.group(2), "seconds": float(m.group(1))}
        for m in map(DURATION.match, lines) if m
    ]
    return {
        "wall_s": round(wall, 2), "exit": done.returncode, "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0), "slowest": slowest,
    }


def bench_tree(tree: Path) -> dict:
    return {
        "git_sha": git(tree, "rev-parse", "HEAD"),
        "dirty": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
        "perfbench": {w: perfbench(tree, w, SEED, SECONDS, "full") for w in WORKLOADS},
        "tier1": tier1(tree),
    }


def parse_tree(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(path).resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", required=True, help="the BENCH file to write")
    parser.add_argument("--tree", type=parse_tree, action="append", metavar="LABEL=DIR",
                        help="a checkout to run, in order (default: change=this repository)")
    args = parser.parse_args(argv)
    trees = args.tree or [("change", ROOT)]
    report = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "settings": {"seed": SEED, "seconds": SECONDS, "size": "full", "trace": 0},
        "trees": {label: bench_tree(tree) for label, tree in trees},
    }
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
