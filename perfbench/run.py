#!/usr/bin/env python3
"""The gluecheck benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain|corpus|repair --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload, one process each

Each workload is a closed loop with one client on one thread: the next
operation starts when the previous one returns.  One operation is one
``gluecheck.cli.main`` call on one document, and its report is checked by
``oracle.verify``.  A round is one pass over the workload's operations; the
loop runs rounds until ``--seconds`` have passed and at least one round is
complete.  ``wall_s`` is the time of one round, from each operation's mean
time over the run.  Times are in reference seconds: each is scaled by the
host's speed around it, measured by ``hostspeed.reference_work`` between
operations, because the shared hosts this runs on change speed by half
within a run.  The unscaled ``wall_s`` is printed alongside.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first measures the same loop untraced, then runs one more round with the
tracer installed, and prints the per-layer metrics; the spans go to
``.perfbench_out/`` when the run ends.  Every metric is printed as
"<workload> <name> <value> <unit>", and the last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.

Two figures are printed but are not in BENCHMARK.json, whose end-to-end
metrics every workload must report and none may be 0: ``failed_ratio``
(0 when the program is correct; the JSON line carries attempted and
failed), and ``op_s.p95``, printed only where a round has at least 200
operations so that ten lie beyond it (``corpus``; ``chain`` has three).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
# Set-up is timed this many times in a run, spread evenly over the
# measured window so that the samples see the host in the same states as
# the operations do, and scaled like them; setup_s is their median.
SETUP_SAMPLES = 10
# The highest percentile reported needs ten samples beyond it.
P95_MIN_SAMPLES = 200

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


class MissingProgram(RuntimeError):
    pass


def import_gluecheck():
    """Import ``gluecheck`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gluecheck" / "__init__.py").is_file():
        raise MissingProgram(f"no gluecheck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gluecheck.cli
    import gluecheck.specfile

    if SRC not in Path(gluecheck.__file__).resolve().parents:
        raise MissingProgram(f"gluecheck was imported from {gluecheck.__file__}, not {SRC}")
    return gluecheck.cli, gluecheck.specfile


def setup(workload: str, seed: int, tiny: bool, workdir: Path) -> list[workloads.Op]:
    """What a run does before its first operation: import, then write documents."""
    import_gluecheck()
    return workloads.prepare(workload, seed, workdir, tiny)


_SETUP_CHILD = (
    "import sys, time; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import run; "
    "run.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1', Path(sys.argv[5])); "
    "print(time.monotonic())"
)


def time_setup(workload: str, seed: int, tiny: bool, workdir: Path) -> float:
    """Time from starting a fresh interpreter until its setup is done.

    The child's clock is the system-wide monotonic clock, so its ready
    time can be compared with the start time taken here.
    """
    where = workdir.with_name(f"{workdir.name}-setup")
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(HERE), workload, str(seed),
         "1" if tiny else "0", str(where)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(where, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"setup failed in a fresh interpreter:\n{child.stderr}")
    return float(child.stdout.split()[-1]) - start


def run_op(cli, argv: list[str]) -> tuple[object, str, str | None, float]:
    """One closed-loop operation: (returned code, stdout, crash text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            crash = f"SystemExit({e.code}) {err.getvalue()}"
        except Exception:  # a traceback is a failed operation, not a failed run
            crash = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), crash, elapsed


class Loop:
    """Closed-loop rounds over a workload's operations, with the outcome of each."""

    def __init__(self, cli, specfile, ops: list[workloads.Op]):
        self.cli = cli
        self.ops = ops
        # Bound before any tracer is installed: the oracle's own parsing
        # must not count as work of the program.
        parse, family_json, dump = specfile.parse_document, specfile.family_json, specfile.dump_document
        self.parse_rational = specfile.parse_rational

        def roundtrip(text: str) -> str:
            _, family, options = parse(text)
            return dump(family_json(family, options=options))

        self.roundtrip = roundtrip
        self.attempted = 0
        self.failures: list[tuple[list[str], list[str]]] = []

    def run(self, seconds: float | None, tracer: Tracer | None = None,
            between=None) -> list[list[tuple[float, float]]]:
        """Run rounds until ``seconds`` have passed and one round is complete;
        with ``seconds=None`` run exactly one round.  Returns the (start,
        seconds) samples of each operation, in round order.

        ``between(elapsed)``, if given, runs before each operation with the
        window's elapsed seconds; the time it takes is left out of the window.
        """
        samples: list[list[tuple[float, float]]] = [[] for _ in self.ops]
        start = time.perf_counter()
        while True:
            for op, times in zip(self.ops, samples):
                now = time.perf_counter()
                if samples[-1] and (seconds is None or now - start >= seconds):
                    return samples
                if between is not None:
                    between(now - start)
                    start += time.perf_counter() - now
                if tracer is not None:
                    tracer.begin_op(self.attempted)
                began = time.perf_counter()
                code, stdout, crash, elapsed = run_op(self.cli, op.argv)
                self.attempted += 1
                problems = oracle.verify(op, code, stdout, crash, self.parse_rational, self.roundtrip)
                if problems:
                    self.failures.append((op.argv, problems))
                times.append((began, elapsed))


def op_means(samples: list[list[tuple[float, float]]], speed: HostSpeed) -> list[float]:
    """Each operation's mean time over the run, in reference seconds.

    Every sample in the window counts, including those of an unfinished
    last round, so the whole window averages out the host's drift; taking
    one mean per operation keeps the operation mix that of one round.
    """
    return [statistics.fmean(speed.scale(start, elapsed) for start, elapsed in times)
            for times in samples]


def end_to_end(means: list[float], setup_s: float) -> dict:
    wall = sum(means)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (len(means) / wall, "1/s"),
        "op_s.p50": (statistics.median(means), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _count_closure(counts: dict, closure) -> None:
    _add(counts, "lattice.elements", len(closure.elements))
    _add(counts, "lattice.incomplete", 0 if closure.complete else 1)


def _count_entries(counts: dict, report) -> None:
    _add(counts, "multipullback.extension_entries", len(report.entries))


HOOKS = {
    "lattice.generate_lattice": _count_closure,
    "multipullback.check_condition2": _count_entries,
    "multipullback.check_condition3": _count_entries,
}


def per_layer(tracer: Tracer, ops: list[workloads.Op], traced_wall: float, overhead: float) -> dict:
    metrics: dict = {}
    for module, names in TARGETS.items():
        for qual in names:
            name = f"{module}.{qual}"
            metrics[f"{name}.calls"] = (tracer.calls(name), "count")
            metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    metrics["cli.main.total_s"] = (tracer.total_s("cli.main"), "s")
    algebras = sum(op.algebras for op in ops)
    maps = sum(op.maps for op in ops)
    metrics["algebra.validate_algebra.per_algebra"] = (
        tracer.calls("algebra.validate_algebra") / algebras, "ratio")
    attempts = sum(tracer.edges.get(("lattice.generate_lattice", f"exactlin.{f}"), 0)
                   for f in ("subspace_sum", "intersect"))
    elements = tracer.counts.get("lattice.elements", 0)
    metrics["lattice.elements"] = (elements, "count")
    metrics["lattice.incomplete"] = (tracer.counts.get("lattice.incomplete", 0), "count")
    metrics["lattice.new_per_op"] = (elements / attempts if attempts else 0.0, "ratio")
    metrics["multipullback.extension_entries"] = (
        tracer.counts.get("multipullback.extension_entries", 0), "count")
    metrics["multipullback.kernel_per_map"] = (
        tracer.calls("exactlin.kernel") / maps if maps else 0.0, "ratio")
    self_total = sum(stats[1] for stats in tracer.stats.values()) / 1e9
    # Time in code no wrapper covers becomes self time of the nearest wrapped
    # caller, at worst cli.main, the root of every operation: the sum of
    # self times equals cli.main's total, so trace.coverage stays near 1 by
    # construction.  Leaving cli.main's own self time out gives a figure that
    # drops when a layer loses its wrappers or work moves into unlisted code.
    metrics["trace.coverage"] = (self_total / traced_wall, "ratio")
    metrics["trace.coverage_below_cli"] = (
        (self_total - tracer.self_s("cli.main")) / traced_wall, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workdir = WORK_DIR / f"{name}-seed{seed}-{'tiny' if tiny else 'full'}"
    try:
        cli, specfile = import_gluecheck()
        ops = workloads.prepare(name, seed, workdir, tiny)
        loop = Loop(cli, specfile, ops)
        speed = HostSpeed()
        if trace:
            samples = loop.run(seconds, between=lambda _: speed.tick())
            tracer = Tracer()
            tracer.install(hooks=HOOKS)
            try:
                traced = loop.run(None, tracer, between=lambda _: speed.tick())
            finally:
                tracer.uninstall()
            speed.sample()
            tracer.write(TRACE_DIR / f"trace-{name}-seed{seed}.json")
            # Self times are raw, so coverage takes the raw traced wall time;
            # the overhead compares the two rounds at the same host speed.
            overhead = sum(op_means(traced, speed)) / sum(op_means(samples, speed))
            metrics = per_layer(tracer, ops, sum(e for times in traced for _, e in times), overhead)
        else:
            setups: list[tuple[float, float]] = []

            def take_setup() -> None:
                start = time.perf_counter()
                setups.append((start, time_setup(name, seed, tiny, workdir)))

            def between(elapsed: float) -> None:
                speed.tick()
                if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
                    take_setup()

            samples = loop.run(seconds, between=between)
            while len(setups) < SETUP_SAMPLES:
                take_setup()
            speed.sample()
            means = op_means(samples, speed)
            metrics = end_to_end(means, statistics.median(speed.scale(*t) for t in setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem_argv, problems in loop.failures[:10]:
        print(f"FAILED {' '.join(problem_argv)}: {'; '.join(problems[:3])}", file=sys.stderr)
    failed = len(loop.failures)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value} {unit}")
    print(f"{name} failed_ratio {failed / loop.attempted} ratio  ({failed} of {loop.attempted})")
    raw = sum(statistics.fmean(e for _, e in times) for times in samples)
    print(f"{name} host reference_s median {speed.median()} s over {len(speed.times)} samples;"
          f" wall_s unscaled {raw} s")
    if not trace:
        print(f"{name} ops per round {len(ops)}  timed ops {sum(map(len, samples))}")
        if len(means) >= P95_MIN_SAMPLES:
            p95 = statistics.quantiles(means, n=20)[18]
            print(f"{name} op_s.p95 {p95} s  ({len(means)} operations)")
        if name == "repair":
            repairs = [op for op in ops if op.command == "repair"]
            refused = sum(not op.facts.pieces_embed for op in repairs)
            print(f"{name} refused {refused} of {len(repairs)} repairs per round")
    return {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process; metrics are keyed "<workload>.<name>"."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gluecheck benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    try:
        import_gluecheck()
        if args.workload is None:
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
