"""Acceptance gate: one test per release criterion.

Everything is exact arithmetic, so every comparison below is equality with
zero tolerance; the only numeric budgets are wall-clock ones.  Each test
prints a single PASS line on success (run with -s to see them inline).
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import matrix_of
from gluecheck.exactlin import (
    Subspace,
    image,
    kernel,
    quotient,
    span,
    subspace_sum,
    intersect,
    vec,
)
from gluecheck.finset import glue, tcirc_a
from gluecheck.lattice import check_distributive_family, generate_lattice, is_distributive
from gluecheck.multipullback import (
    RepairRefused,
    analyse,
    build_pullback,
    check_cocycle,
    check_condition2,
    check_condition3,
    projection_surjective,
    pullback_subspace,
    repair,
)


def report(line: str) -> None:
    print(line)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_collapsing_fixture(example1):
    with Stopwatch() as watch:
        p = build_pullback(example1)
        assert p.dim == 5
        surjective, img = projection_surjective(p, "I2")
        assert not surjective
        assert img.dim == 2
    assert watch.elapsed < 1.0
    report(f"ACCEPTANCE 1 collapsing fixture (dim 5, image dim 2): PASS [{watch.elapsed:.3f}s]")


def test_criterion_2_single_overlap_circle(example2, projection_reference, report_entry):
    with Stopwatch() as watch:
        p = build_pullback(example2)
        assert all(projection_surjective(p, i)[0] for i in p.over)

        cocycle = check_cocycle(example2)
        entry = report_entry(cocycle.condition1, triple=("I1", "I2", "I3"))
        assert not entry.equal
        assert entry.lhs == Subspace.zero(1)
        assert entry.rhs == Subspace.full(1)

        ext3 = check_condition3(example2)
        failing = report_entry(ext3.entries, subset=("I2", "I3"), extend_by="I1")
        assert not failing.ok
        assert [(e.subset, e.extend_by) for e in ext3.failures] == [(("I2", "I3"), "I1")]
        witness = vec([-1, 0, 1]) + vec([-1, -1, -1])  # identity chart with constant -1
        projected, _ = projection_reference(example2, failing.subset, failing.extend_by)
        assert build_pullback(example2, failing.subset).subspace.contains(witness)
        assert not projected.contains(witness)

        ext2 = check_condition2(example2)
        assert [(e.subset, e.extend_by) for e in ext2.failures] == [(("I2", "I3"), "I1")]
    assert watch.elapsed < 1.0
    report(f"ACCEPTANCE 2 single-overlap circle diagnostics: PASS [{watch.elapsed:.3f}s]")


def test_criterion_3_double_overlap_circle(example3):
    with Stopwatch() as watch:
        cocycle = check_cocycle(example3)
        assert cocycle.overall
        assert all(e.equal for e in cocycle.condition1)
        assert all(e.status == "ok" for e in cocycle.condition2)
        assert check_condition2(example3).ok
        assert check_condition3(example3).ok
        assert build_pullback(example3).dim == 6
        assert glue(tcirc_a()).size == 6
    assert watch.elapsed < 1.0
    report(f"ACCEPTANCE 3 double-overlap circle passes everything: PASS [{watch.elapsed:.3f}s]")


def test_criterion_4_equivalence_on_the_corpus(corpus):
    assert len(corpus) >= 200
    with Stopwatch() as watch:
        for gluing, family in corpus:
            result = analyse(family)
            assert result.skipped is None, f"theorem test skipped on seed corpus entry {gluing.labels}"
            assert result.consistent, f"verdicts disagree on seed corpus entry {gluing.labels}"
    assert watch.elapsed < 60.0
    report(
        f"ACCEPTANCE 4 three-way equivalence on {len(corpus)} random families: "
        f"PASS [{watch.elapsed:.1f}s]"
    )


def test_criterion_5_repair_suite(example1, example2, example3, matrices):
    with Stopwatch() as watch:
        repaired = repair(example2)
        assert check_cocycle(repaired).overall
        assert repaired.overlap("I2", "I3").dim == 2

        pullback = build_pullback(example2)
        comparison = matrices.stacked(
            [pullback.projection(i) for i in repaired.labels],
            pullback.dim,
        )
        assert kernel(comparison).dim == 0
        assert image(comparison, Subspace.full(pullback.dim)) == pullback_subspace(repaired)

        with pytest.raises(RepairRefused):
            repair(example1)

        unchanged = repair(example3)
        for key, overlap in example3.overlaps.items():
            assert unchanged.overlaps[key].dim == overlap.dim
    assert watch.elapsed < 1.0
    report(f"ACCEPTANCE 5 repair suite: PASS [{watch.elapsed:.3f}s]")


def test_criterion_6_duality_on_the_corpus(corpus):
    from gluecheck.finset import duality_check

    mismatches = 0
    with Stopwatch() as watch:
        for gluing, _family in corpus:
            result = duality_check(gluing)
            mismatches += len(result.mismatches)
            assert result.ok
    report(
        f"ACCEPTANCE 6 duality bridge on {len(corpus)} gluings "
        f"({mismatches} mismatches): PASS [{watch.elapsed:.1f}s]"
    )


def test_criterion_7_lattice_suite(corpus):
    with Stopwatch() as watch:
        lines = [span([[1, 0]], 2), span([[0, 1]], 2), span([[1, 1]], 2)]
        verdict = is_distributive(generate_lattice(lines, cap=10_000))
        assert verdict.status == "not-distributive"
        a, b, c = verdict.witness
        assert intersect(a, subspace_sum(b, c)) != subspace_sum(
            intersect(a, b), intersect(a, c)
        )

        for _gluing, family in corpus:
            result = check_distributive_family(family)
            assert result.ok

        rng = random.Random(909)
        for _ in range(60):
            ambient = rng.randint(1, 4)
            gens = [
                span(
                    [
                        [rng.randint(-3, 3) for _ in range(ambient)]
                        for _ in range(rng.randint(0, ambient))
                    ],
                    ambient,
                )
                for _ in range(3)
            ]
            assert generate_lattice(gens, cap=10_000).complete
    report(f"ACCEPTANCE 7 lattice suite: PASS [{watch.elapsed:.1f}s]")


def test_criterion_8_exactness_on_large_rationals():
    rng = random.Random(424242)

    def big_fraction() -> Fraction:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    with Stopwatch() as watch:
        for trial in range(1000):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = matrix_of(
                [[big_fraction() for _ in range(cols)] for _ in range(rows)]
            )

            s = span(m.entries, m.cols)
            assert span(s.basis_rows, cols) == s

            assert kernel(m).dim + image(m, Subspace.full(cols)).dim == cols

            v = span([[big_fraction() for _ in range(cols)] for _ in range(rng.randint(0, cols))], cols)
            assert kernel(quotient(cols, v).projection) == v
    report(f"ACCEPTANCE 8 exactness on 1000 large-entry matrices: PASS [{watch.elapsed:.1f}s]")
