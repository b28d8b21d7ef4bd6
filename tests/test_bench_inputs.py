"""The benchmark's own copies of the corpus generator and of the interval
fixtures draw the same gluings as the library's.

``perfbench/workloads.py`` writes every benchmark document from its own
model of a finite gluing, so that no input comes from the code under test;
its docstring promises that ``random_gluing`` and ``FIXTURES`` match
``gluecheck.finset``.  The file is loaded read-only by path, as
``tests/test_trace_targets.py`` loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gluecheck import finset

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def assert_same_gluing(copy, library: finset.FiniteGluing) -> None:
    assert tuple(copy.labels) == library.labels
    assert dict(copy.spaces) == dict(library.spaces)
    assert dict(copy.identifications) == dict(library.identifications)


@pytest.mark.parametrize("chain", [3, 8, 24])
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_fixtures_match_the_library(workloads, name, chain):
    assert_same_gluing(workloads.fixture_gluing(name, chain), finset.fixture_gluing(name, chain))


def test_random_gluings_match_the_library(workloads):
    for seed in range(100):
        assert_same_gluing(workloads.random_gluing(seed), finset.random_gluing(seed))
