"""The benchmark prints exactly the metrics BENCHMARK.json declares, and
every workload completes at a tiny size with no failed operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_the_spec(trace, section):
    result, _ = bench("--workload", "chain", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(section)


def test_spec_names_its_workloads():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_divides_out_a_slower_host():
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.times = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # from 1.1 s to 1.9 s the host ran at half speed
    assert speed.scale(1.1, 0.8) == pytest.approx(0.4)
    # a measurement over the whole run sees the mean of every sample
    assert speed.scale(0.0, 3.0) == pytest.approx(2.0)


def test_every_workload_completes_tiny():
    result, stdout = bench()
    assert result["correct"] and result["failed"] == 0
    for name in ("chain", "corpus", "repair"):
        assert f"{name}.wall_s" in result["metrics"]
        assert f"{name} failed_ratio 0.0" in stdout
