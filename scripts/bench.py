#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in BENCH_<n>.json.

Runs ``perfbench/run.py --workload W --seed 1`` for each workload that
BENCHMARK.json declares, one process after another, reads the JSON object
on the last line of each run's output, and writes ``BENCH_<n>.json`` at
the root of the checkout. The file holds the git revision checked out,
the git tree hash of each directory whose code the runs execute, as the
working tree held it (so a change not yet committed is named too),
whether every one of those trees is the revision's own, the Python
version, and for each workload the operations attempted and failed and
the end-to-end metrics BENCHMARK.json lists. A file written before its
change is committed names the parent as ``rev``, with ``trees_at_rev``
false; compare ``trees`` to tell which code was measured.

Usage: python scripts/bench.py N
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "perfbench")
sys.path.insert(0, str(ROOT / "src"))
from gluecheck.cli import at_least  # noqa: E402


def git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def measured_trees() -> dict[str, str]:
    """The tree hash of each code directory as it stands on disk, untracked
    files included; ``git rev-parse <commit>:<dir>`` gives the same hash
    for a commit that holds exactly these files."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", "--", *CODE_DIRS, env=env)
        return {d: git("write-tree", f"--prefix={d}/", env=env) for d in CODE_DIRS}


def trees_at_rev(trees: dict[str, str]) -> bool:
    """Whether each measured tree is ``git rev-parse HEAD:<dir>``, the tree
    the checked-out revision holds there."""
    try:
        return all(git("rev-parse", f"HEAD:{d}") == tree for d, tree in trees.items())
    except subprocess.CalledProcessError:  # a directory HEAD does not hold
        return False


def run_workload(name: str) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", "1"]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"workload {name} exited {child.returncode}:\n{child.stderr}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=at_least(1), help="number of the BENCH_<n>.json file to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    trees = measured_trees()
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_workload(workload)
        workloads[workload] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in names},
        }
        print(workload, " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in names),
              f"failed={result['failed']}/{result['attempted']}")
    bench = {
        "rev": git("rev-parse", "HEAD"),
        "trees": trees,
        "trees_at_rev": trees_at_rev(trees),
        "python": platform.python_version(),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
