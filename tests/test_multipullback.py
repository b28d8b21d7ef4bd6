import functools
import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _rebased, _rebased_algebra, matrix_of, pullback_kernels
from gluecheck import algebra, multipullback, specfile, unionfind
from gluecheck.algebra import (
    AlgebraHom,
    FamilyValidationError,
    GluingFamily,
    is_ideal,
    quotient_algebra,
    validate_hom,
)
from gluecheck.exactlin import Matrix, Subspace, image, intersect, invert, kernel, quotient, span, subspace_sum, vec
from gluecheck.finset import FIXTURES, FiniteGluing, duality_check, dualize, fixture_family, fixture_gluing, random_gluing
from gluecheck.lattice import DEFAULT_CAP, check_distributive_family
from gluecheck.multipullback import (
    RepairRefused,
    TooManyPieces,
    analyse,
    build_pullback,
    check_cocycle,
    check_condition2,
    check_condition3,
    projection_surjective,
    pullback_subspace,
    repair,
)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def no_overlap_family(dims=(2, 3, 2)) -> GluingFamily:
    g = FiniteGluing(
        ("A", "B", "C"),
        {lab: tuple(f"p{m}" for m in range(d)) for lab, d in zip(("A", "B", "C"), dims)},
        {},
    )
    return dualize(g)


class TestBuildPullback:
    def test_singleton_is_the_whole_piece(self, example1):
        p = build_pullback(example1, ["I2"])
        assert p.dim == 3
        assert p.subspace == Subspace.full(3)

    def test_example_dimensions(self, example1, example2, example3):
        assert build_pullback(example1).dim == 5
        assert build_pullback(example2).dim == 6
        assert build_pullback(example3).dim == 6

    def test_unit_tuple_is_a_member(self, example2):
        p = build_pullback(example2)
        assert p.subspace.contains([1] * p.subspace.ambient_dim)

    def test_induced_algebra_is_associative(self, example1, pullback_algebra):
        p = build_pullback(example1)
        from gluecheck.algebra import validate_algebra

        assert validate_algebra(pullback_algebra(example1, p)) is None

    def test_induced_algebra_builds_on_the_corpus(self, corpus, pullback_algebra):
        # the closure of the pullback, which no command checks at run time
        for _, fam in corpus:
            p = build_pullback(fam)
            assert pullback_algebra(fam, p).dim == p.dim

    def test_no_overlaps_mean_no_constraints(self):
        fam = no_overlap_family()
        p = build_pullback(fam)
        assert p.dim == 7

    def test_rejects_non_surjective_family(self, example3):
        squash = matrix_of([[0, 0, 1], [0, 0, 1]])
        bad = AlgebraHom(example3.pieces["I2"], example3.overlap("I2", "I3"), squash)
        broken = GluingFamily(example3.labels, example3.pieces, example3.overlaps,
                              {**example3.maps, ("I2", "I3"): bad})
        with pytest.raises(FamilyValidationError):
            build_pullback(broken)


class TestMapRows:
    """What the family's sparse map rows compute equals the dense path it
    replaced: the pullback subspace on every label subset, against the
    stacked dense matrix, and every pushed kernel m_ij(ker m_ik), against
    ``image`` of the dense map."""

    @staticmethod
    def assert_as_reference(fam: GluingFamily, reference) -> int:
        """Returns the number of ``Fraction`` entries in the bases compared."""
        fractions = 0
        for n in range(1, len(fam.labels) + 1):
            for s in itertools.combinations(fam.labels, n):
                got, want = pullback_subspace(fam, s), reference(fam, s)
                assert got == want and got.pivots == want.pivots, s
                assert repr(got.basis_rows) == repr(want.basis_rows), s  # ints stay ints
                fractions += sum(type(x) is Fraction for row in got.basis_rows for x in row)
        return fractions

    def test_the_duals_of_the_corpus(self, pullback_subspace_reference):
        for seed in range(100):
            self.assert_as_reference(dualize(random_gluing(seed)), pullback_subspace_reference)

    def test_the_rebased_families(self, rebased_families, pullback_subspace_reference):
        fractions = 0
        for _, fam, rebased in rebased_families:
            self.assert_as_reference(fam, pullback_subspace_reference)
            fractions += self.assert_as_reference(rebased, pullback_subspace_reference)
        assert fractions > 0

    def test_pushed_kernels(self, fresh_families, rebased_families):
        families = [fam for _, fam in fresh_families] + [fam for _, _, fam in rebased_families]
        fractions = 0
        for fam in families:
            for i, j, k in itertools.permutations(fam.labels, 3):
                got = multipullback._pushed_kernel(fam, i, j, k)
                want = image(fam.map(i, j).matrix, fam.map_kernels[(i, k)])
                assert got == want and repr(got.basis_rows) == repr(want.basis_rows), (i, j, k)
                fractions += sum(type(x) is Fraction for row in got.basis_rows for x in row)
        assert fractions > 0


class TestProjections:
    def test_middle_piece_of_tstar_not_hit(self, example1):
        p = build_pullback(example1)
        ok, img = projection_surjective(p, "I2")
        assert not ok
        # functions with equal endpoint values
        assert img == span([[1, 0, 1], [0, 1, 0]], 3)

    def test_all_projections_hit_on_the_circle_families(self, example2, example3):
        for fam in (example2, example3):
            p = build_pullback(fam)
            assert all(projection_surjective(p, i)[0] for i in p.over)

    def test_singleton_projection(self, example1):
        p = build_pullback(example1, ["I1"])
        ok, img = projection_surjective(p, "I1")
        assert ok and img == Subspace.full(img.ambient_dim)

    def test_blocks_match_the_stored_matrices(self, rebased_families, projection_image_reference):
        # over every label subset of size 1, 2 and all, so blocks start at
        # offsets other than those of the full direct sum
        families = [dualize(random_gluing(seed)) for seed in range(200)]
        families += [fixture_family(name, chain) for name in ("example1", "example2", "example3")
                     for chain in (3, 8, 24)]
        families += [f for _, fam, rebased in rebased_families for f in (fam, rebased)]
        compared = 0
        for fam in families:
            subsets = [*itertools.combinations(fam.labels, 1), *itertools.combinations(fam.labels, 2)]
            for over in (None, *subsets):
                p = build_pullback(fam, over)
                for i in p.over:
                    matrix, verdict = projection_image_reference(fam, p, i)
                    assert p.projection(i) == matrix
                    assert projection_surjective(p, i) == verdict
                    compared += 1
        assert compared > 3000


class TestPairwiseExtension:
    def test_circle_family_with_single_overlap_point_fails(self, example2):
        report = check_condition3(example2)
        assert not report.ok
        assert [(e.subset, e.extend_by) for e in report.failures] == [(("I2", "I3"), "I1")]

    def test_the_classic_witness_pair(self, example2, projection_reference, report_entry):
        # identity chart on one chain, constant -1 on the other: compatible
        # at the shared endpoint yet admitting no third component
        entry = report_entry(check_condition3(example2).entries, subset=("I2", "I3"), extend_by="I1")
        projected, _ = projection_reference(example2, entry.subset, entry.extend_by)
        witness = {"I2": vec([-1, 0, 1]), "I3": vec([-1, -1, -1])}
        flat = list(witness["I2"]) + list(witness["I3"])
        assert build_pullback(example2, entry.subset).subspace.contains(flat)
        assert not projected.contains(flat)
        assert entry.witness is not None

    def test_double_overlap_presentation_passes(self, example3):
        assert check_condition3(example3).ok

    def test_no_overlap_family_passes(self):
        assert check_condition3(no_overlap_family()).ok


class TestSubsetExtension:
    def test_failure_located_at_the_pair(self, example2):
        report = check_condition2(example2)
        assert not report.ok
        assert [(e.subset, e.extend_by) for e in report.failures] == [(("I2", "I3"), "I1")]

    def test_all_subsets_pass_for_the_good_presentation(self, example3):
        report = check_condition2(example3)
        assert report.ok
        sizes = {len(e.subset) for e in report.entries}
        assert sizes == {1, 2}

    def test_singleton_subsets_reduce_to_pair_surjectivity(self, example2):
        report = check_condition2(example2)
        assert all(e.ok for e in report.entries if len(e.subset) == 1)

    def test_size_bound_is_enforced(self, example3):
        with pytest.raises(TooManyPieces):
            check_condition2(example3, max_indices=2)

    def test_projection_monotone_under_subset_growth(self, fresh_families, projection_reference):
        # compatible tuples project to compatible tuples
        for name, fam in fresh_families:
            for e in check_condition2(fam).entries:
                projected, _ = projection_reference(fam, e.subset, e.extend_by)
                small = build_pullback(fam, e.subset).subspace
                assert all(small.contains(r) for r in projected.basis_rows), (name, e.subset, e.extend_by)

    def test_entries_match_the_projection_reference(self, fresh_families, projection_reference):
        # a basis row of P(K) extends exactly when it lies in the projection
        # of P(K + {k}), so both algorithms give the same verdict and witness
        chain8 = [(f"{name}-chain8", fixture_family(name, 8)) for name in ("example1", "example2", "example3")]
        for name, fam in fresh_families + chain8:
            for e in check_condition2(fam).entries:
                projected, witness = projection_reference(fam, e.subset, e.extend_by)
                small = build_pullback(fam, e.subset).subspace
                where = (name, e.subset, e.extend_by)
                assert e.ok == (projected == small), where
                assert e.witness == witness, where
                assert all(small.contains(r) for r in projected.basis_rows), where

    def test_the_sweep_applies_no_map_and_tests_no_membership(self, monkeypatch):
        # one elimination per entry decides it and names the witness
        fam = fixture_family("example3", 8)
        fam.require_valid()
        calls = []
        for cls, name in ((Subspace, "contains"), (Matrix, "apply")):
            def recorded(*args, _original=getattr(cls, name), _name=name):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(cls, name, recorded)
        assert check_condition2(fam).ok
        assert calls == []


class TestRebasedFamilies:
    """The sweep away from 0/1 maps: each family in a rational basis whose
    pivots are not all units, so that its eliminations divide."""

    def test_rebased_families_are_valid(self, rebased_families):
        for _, _, fam in rebased_families:
            fam.require_valid()

    def test_entries_match_the_projection_reference(self, rebased_families, projection_reference):
        for name, _, fam in rebased_families:
            for e in check_condition2(fam).entries + check_condition3(fam).entries:
                projected, witness = projection_reference(fam, e.subset, e.extend_by)
                where = (name, e.subset, e.extend_by)
                assert e.ok == (projected == build_pullback(fam, e.subset).subspace), where
                assert e.witness == witness, where

    def test_verdicts_survive_the_change_of_basis(self, rebased_families):
        for name, fam, rebased in rebased_families:
            for check in (check_condition2, check_condition3):
                verdicts = [[(e.subset, e.extend_by, e.ok) for e in check(f).entries]
                            for f in (fam, rebased)]
                assert verdicts[0] == verdicts[1], name


def count_against_elimination(fam: GluingFamily) -> int:
    """Analyse the family, then check each entry whose k has an adapted
    basis against the entry that ``_eliminated_entry`` gives with the blocks
    withheld: rank-nullity passes it exactly when the elimination does, and
    a passing entry is the same field for field.  The sweep of a family
    with a coordinate index builds no P(K + {k}), so it is built here for
    the count to read.  Returns how many entries the count decided."""
    analyse(fam)
    blocks = dict(fam.kernel_blocks)
    counted = {}
    for (subset, k), e in fam.extension_entries.items():
        if k in blocks:
            small = build_pullback(fam, subset)
            build_pullback(fam, (*subset, k))
            counted[(subset, k)] = (e, multipullback._extends_by_count(fam, small, k))
    fam.kernel_blocks.clear()
    try:
        for (subset, k), (e, by_count) in counted.items():
            eliminated = multipullback._eliminated_entry(fam, build_pullback(fam, subset), k)
            assert by_count == eliminated.ok, (subset, k)
            if by_count:
                assert (e.ok, e.witness) == (eliminated.ok, eliminated.witness), (subset, k)
    finally:
        fam.kernel_blocks.update(blocks)
    return sum(by_count for _, by_count in counted.values())


class TestExtensionByCount:
    """A passing entry whose k has an adapted basis of its kernels is decided
    by rank-nullity on P(K + {k}) -> P(K), whose kernel is 0 + the meet of
    the ker m_kj; every other entry runs the one elimination."""

    def test_count_matches_the_elimination_on_the_corpus(self):
        counted = sum(count_against_elimination(dualize(random_gluing(seed))) for seed in range(200))
        assert counted > 3000

    @pytest.mark.parametrize("chain", [3, 8, 24])
    def test_count_matches_the_elimination_on_the_examples(self, chain):
        counted = [count_against_elimination(fixture_family(name, chain))
                   for name in ("example1", "example2", "example3")]
        assert all(counted)

    def test_count_matches_the_elimination_on_rebased_families(self, rebased_families):
        for _, _, fam in rebased_families:
            count_against_elimination(fam)

    @staticmethod
    def eliminations(monkeypatch, fam: GluingFamily, **kwargs) -> int:
        calls = []
        echelon = multipullback._echelon

        def recorded(*args):
            calls.append(args)
            return echelon(*args)

        monkeypatch.setattr(multipullback, "_echelon", recorded)
        analyse(fam, **kwargs)
        return len(calls)

    @pytest.mark.parametrize("source", ["seed7", "example2-chain8"])
    def test_only_failing_and_blockless_entries_are_eliminated(self, monkeypatch, record_calls, source):
        # the dual reads every entry off one union-find per label subset and
        # eliminates nothing; its rebased copy has no coordinate index
        dual = dualize(random_gluing(7)) if source == "seed7" else fixture_family("example2", 8)
        union_finds = record_calls(unionfind, "_union_find")
        assert self.eliminations(monkeypatch, dual) == 0
        every = [s for n in range(1, len(dual.labels) + 1) for s in itertools.combinations(dual.labels, n)]
        assert sorted(args[1] for args in union_finds) == sorted(every)
        fam = _rebased(dual, 0)
        eliminated = self.eliminations(monkeypatch, fam)
        assert len(union_finds) == len(every)
        entries = fam.extension_entries.values()
        assert eliminated == sum(not e.ok or e.extend_by not in fam.kernel_blocks for e in entries)
        assert eliminated < len(entries)

    @pytest.mark.parametrize("case", ["three-lines", "seed7-cap2"])
    def test_a_piece_without_blocks_is_eliminated(self, monkeypatch, three_line_family,
                                                  projection_reference, case):
        # P1's kernels are three lines of a plane; at cap 2 the meets of
        # S3's kernels pass the cap, though S3 is distributive.  Neither
        # family has a coordinate index: the dual of seed 7 is rebased
        fam, cap, piece = ((three_line_family, DEFAULT_CAP, "P1") if case == "three-lines"
                           else (_rebased(dualize(random_gluing(7)), 0), 2, "S3"))
        assert fam.coordinate_index is None
        eliminated = self.eliminations(monkeypatch, fam, lattice_cap=cap)
        assert piece not in fam.kernel_blocks and len(fam.kernel_blocks) == len(fam.labels) - 1
        entries = fam.extension_entries.values()
        assert eliminated == sum(not e.ok or e.extend_by == piece for e in entries)
        for e in entries:
            projected, witness = projection_reference(fam, e.subset, e.extend_by)
            assert e.ok == (projected == build_pullback(fam, e.subset).subspace), (e.subset, e.extend_by)
            assert e.witness == witness, (e.subset, e.extend_by)

    def test_blocks_count_the_dimension_of_each_kernel_meet(self, fresh_families, rebased_families):
        # the meet of any set of kernels ker m_kj, the empty set's being the
        # whole piece, is spanned by the blocks inside all of them, so its
        # dimension is their widths' sum; rebased families have Fraction entries
        families = fresh_families + [(f"{name}-rebased", fam) for name, _, fam in rebased_families]
        for name, fam in families:
            check_distributive_family(fam)
            assert len(fam.kernel_blocks) == len(fam.labels), name
            for k, blocks in fam.kernel_blocks.items():
                others = [j for j in fam.labels if j != k]
                for r in range(len(others) + 1):
                    for js in itertools.combinations(others, r):
                        meet = functools.reduce(intersect, (fam.map_kernels[(k, j)] for j in js),
                                                Subspace.full(fam.pieces[k].dim))
                        width = sum(c for c, inside in blocks if inside.issuperset(js))
                        assert meet.dim == width, (name, k, js)


def eliminated_as_reference(fam: GluingFamily, entries, reference) -> list:
    """Each entry (K, k) computed by ``_eliminated_entry`` with the family's
    kernel blocks withheld, so that it runs the elimination, and checked
    against the full-RREF reference, ``repr`` included."""
    blocks = dict(fam.kernel_blocks)
    fam.kernel_blocks.clear()
    try:
        computed = []
        for subset, k in entries:
            small = build_pullback(fam, subset)
            e = multipullback._eliminated_entry(fam, small, k)
            assert repr(e) == repr(reference(fam, small, k)), (subset, k)
            computed.append(e)
        return computed
    finally:
        fam.kernel_blocks.update(blocks)


class TestExtensionByEchelon:
    """An entry that runs an elimination eliminates the y block of [y | a]
    only: it passes when the rows left over are zero, and the least
    a-column at which one is not names the witness that the first a-pivot
    of the full RREF names."""

    def test_the_corpus(self, extension_entry_reference):
        failing = 0
        for seed in range(200):
            fam = dualize(random_gluing(seed))
            analyse(fam)
            entries = eliminated_as_reference(fam, fam.extension_entries, extension_entry_reference)
            failing += sum(not e.ok for e in entries)
        assert failing > 1000

    @pytest.mark.parametrize("chain", [3, 8])
    def test_the_fixtures(self, chain, extension_entry_reference):
        for name in FIXTURES:
            fam = fixture_family(name, chain)
            analyse(fam)
            eliminated_as_reference(fam, fam.extension_entries, extension_entry_reference)

    def test_the_rebased_families(self, rebased_families, extension_entry_reference):
        # their eliminations divide, so witnesses carry Fractions
        fractions = 0
        for name, _, fam in rebased_families:
            analyse(fam)
            for e in eliminated_as_reference(fam, fam.extension_entries, extension_entry_reference):
                fractions += sum(type(x) is Fraction for part in (e.witness or {}).values() for x in part)
        assert fractions > 0

    def test_the_pairwise_sweep_of_many_pieces(self, extension_entry_reference):
        pieces = set()
        for seed in range(40):
            fam = dualize(random_gluing(seed, max_pieces=10))
            entries = [(e.subset, e.extend_by) for e in check_condition3(fam).entries]
            eliminated_as_reference(fam, entries, extension_entry_reference)
            pieces.add(len(fam.labels))
        assert max(pieces) == 10


def halved_overlap(fam: GluingFamily, key: tuple[str, str]) -> GluingFamily:
    """The family with the overlap ``key`` presented in the basis 2 e_r, so
    that each row of its two maps is the single nonzero 1/2."""
    s = Matrix(fam.overlaps[key].dim, fam.overlaps[key].dim,
               tuple(tuple(2 * x for x in row) for row in Matrix.identity(fam.overlaps[key].dim).entries))
    s_inv = invert(s)
    overlap = _rebased_algebra(fam.overlaps[key], s, s_inv)
    maps = dict(fam.maps)
    for i, j in (key, key[::-1]):
        maps[(i, j)] = AlgebraHom(fam.pieces[i], overlap, s_inv @ fam.maps[(i, j)].matrix)
    return GluingFamily(fam.labels, fam.pieces, {**fam.overlaps, key: overlap}, maps)


class TestSweepOnUnionFinds:
    """On a family whose map rows are all single 1s, the union-find path
    and the elimination path give the same P(K) on every label subset, and
    the same (ok, witness) on every entry, field for field.

    This is what keeps acceptance criterion 6, the duality of a gluing and
    its dual family, tied to elimination: ``glue --duality`` compares the
    gluing's union-find with the dual family's pullback and pairwise
    sweep, and those now read the dual's own union-find, so without this
    test the cross-check would compare two union-finds with each other."""

    @staticmethod
    def assert_paths_agree(fam: GluingFamily, sizes, entry_sizes) -> int:
        """Compare both paths on the subsets of the given sizes, and the
        entries (K, k) of K of ``entry_sizes``; returns the failing entries."""
        fam.require_valid()
        assert fam.coordinate_index is not None and not fam.kernel_blocks
        labels = sorted(fam.labels)
        failing = 0
        for size in sizes:
            for subset in itertools.combinations(labels, size):
                blocks = multipullback._block_layout(fam, subset)
                by_classes = multipullback._class_subspace(fam, blocks)
                eliminated = multipullback._constraint_subspace(fam, blocks)
                assert by_classes == eliminated and by_classes.pivots == eliminated.pivots, subset
                assert repr(by_classes.basis_rows) == repr(eliminated.basis_rows), subset
                checked = Subspace(by_classes.ambient_dim, by_classes.basis_rows)  # the public RREF check
                assert checked.pivots == by_classes.pivots, subset
                if size not in entry_sizes:
                    continue
                small = multipullback.MultiPullback(tuple(blocks), eliminated, blocks)
                for k in labels:
                    if k not in subset:
                        on_roots = multipullback._entry_on_roots(fam, subset, k)
                        assert repr(on_roots) == repr(multipullback._eliminated_entry(fam, small, k)), (subset, k)
                        failing += not on_roots.ok
        return failing

    def test_the_duals_of_the_corpus(self):
        failing = 0
        for seed in range(200):
            fam = dualize(random_gluing(seed))
            n = len(fam.labels)
            failing += self.assert_paths_agree(fam, range(1, n + 1), range(1, n))
        assert failing > 1000

    def test_the_pairwise_sweep_of_many_pieces(self):
        # the pairwise sweep reads the roots of each pair and triple
        pieces = set()
        for seed in range(40):
            fam = dualize(random_gluing(seed, max_pieces=10))
            n = len(fam.labels)
            self.assert_paths_agree(fam, {2, 3, n} & set(range(1, n + 1)), {2} - {n})
            pieces.add(n)
        assert max(pieces) == 10

    @pytest.mark.parametrize("chain", [3, 8, 24])
    def test_the_fixtures(self, chain):
        for name in FIXTURES:
            self.assert_paths_agree(fixture_family(name, chain), (1, 2, 3), (1, 2))


class TestEliminationRouting:
    """A family with a map row that is not a single 1 has no coordinate
    index and keeps the elimination path, with its verdicts."""

    @staticmethod
    def assert_eliminated(fam: GluingFamily, record_calls) -> tuple:
        """Run the pairwise sweep on a fresh copy: every entry runs an
        elimination, each pair's pullback one null space, and no union-find
        runs.  Returns the entries and the verdicts of ``analyse`` on
        another fresh copy."""
        fresh = GluingFamily(fam.labels, fam.pieces, fam.overlaps, fam.maps)
        fresh.require_valid()  # which eliminates each map
        assert fresh.coordinate_index is None
        calls = {name: record_calls(multipullback, name) for name in ("_null_space", "_echelon", "_union_find")}
        entries = check_condition3(fresh).entries
        assert {name: len(c) for name, c in calls.items()} == {
            "_null_space": len({e.subset for e in entries}), "_echelon": len(entries), "_union_find": 0}
        again = GluingFamily(fam.labels, fam.pieces, fam.overlaps, fam.maps)
        verdicts = analyse(again).verdicts
        assert calls["_union_find"] == [] and again.subset_roots == {}
        return [(e.subset, e.extend_by, e.ok, e.witness) for e in entries], verdicts

    def test_rebased_families(self, rebased_families, record_calls):
        # a family whose overlaps all have dimension 0 has no map row to
        # rebase, so its coordinate index stays
        rebased_families = [named for named in rebased_families if any(named[2].map_rows.values())]
        assert len(rebased_families) > 25
        for name, fam, rebased in rebased_families:
            _, verdicts = self.assert_eliminated(rebased, record_calls)
            assert verdicts == analyse(GluingFamily(fam.labels, fam.pieces, fam.overlaps, fam.maps)).verdicts, name

    def test_the_augmented_three_line_family(self, augmented_three_line_family, record_calls):
        # cocycle and pairwise extension hold, subset extension fails
        _, verdicts = self.assert_eliminated(augmented_three_line_family, record_calls)
        assert verdicts == (True, False, True)

    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_an_overlap_in_the_basis_2e(self, record_calls, name):
        dual = fixture_family(name)
        halved = halved_overlap(dual, ("I2", "I3"))
        halved.require_valid()
        rows = halved.map_rows[("I2", "I3")] + halved.map_rows[("I3", "I2")]
        assert rows and all(len(row) == 1 and row[0][1] == Fraction(1, 2) for row in rows)
        entries, verdicts = self.assert_eliminated(halved, record_calls)
        # the constraints are only scaled, so P(K), verdicts and witnesses are the dual's
        assert entries == [(e.subset, e.extend_by, e.ok, e.witness) for e in check_condition3(dual).entries]
        assert verdicts == analyse(dual).verdicts


class TestTripleQuotients:
    """The charts and comparison maps of each ordered triple, on the six
    compositions reference that clause 2's loop replaced."""

    def test_shared_endpoint_quotient_is_a_point(self, example2, transition_reference):
        tq = transition_reference(example2).charts[("I1", "I2", "I3")]
        assert tq.bracket.rows == 1
        assert tq.overlap_projection.rows == 1

    def test_quotient_dimensions_match_by_construction(self, example3, transition_reference):
        # both kernels out of I2 vanish at the 1-endpoint, so their sum is
        # the functions vanishing there and the quotient is a line
        tq = transition_reference(example3).charts[("I2", "I3", "I1")]
        assert tq.bracket.rows == 1
        assert tq.overlap_projection.rows == 1

    def test_comparison_map_identity(self, fresh_families, transition_reference):
        # iso is well defined: it carries the bracket class of b to the class of m_ij(b)
        for name, fam in fresh_families:
            for (i, j, k), tq in transition_reference(fam).charts.items():
                lhs = tq.iso @ tq.bracket
                rhs = tq.overlap_projection @ fam.map(i, j).matrix
                assert lhs == rhs, (name, tq.triple)

    def test_charts_are_the_canonical_surjections(self, fresh_families, transition_reference):
        # what clause 2 takes on trust: both subspaces are ideals (which
        # quotient_algebra checks), the charts clause 2 builds are the
        # canonical surjections onto the quotients, with the ideals as
        # kernels (which the reference checks), and iso is a hom between
        # the quotients
        for name, fam in fresh_families:
            for (i, j, k), tq in transition_reference(fam).charts.items():
                ksum = subspace_sum(fam.map_kernels[(i, j)], fam.map_kernels[(i, k)])
                pushed = image(fam.map(i, j).matrix, fam.map_kernels[(i, k)])
                bracket = quotient(fam.pieces[i].dim, ksum).projection
                overlap_projection = quotient(fam.overlap(i, j).dim, pushed).projection
                assert bracket == tq.bracket, (name, tq.triple)
                assert overlap_projection == tq.overlap_projection, (name, tq.triple)
                iso = AlgebraHom(tq.piece_quotient, tq.overlap_quotient, tq.iso)
                assert validate_hom(iso) is None, (name, tq.triple)

    def test_degenerate_triple_is_the_zero_algebra(self, transition_reference):
        tq = transition_reference(no_overlap_family()).charts[("A", "B", "C")]
        assert tq.bracket.rows == 0
        assert tq.iso == Matrix.identity(0)


class TestCocycle:
    def test_single_overlap_circle_fails_clause_one(self, example2, report_entry):
        report = check_cocycle(example2)
        assert not report.overall
        entry = report_entry(report.condition1, triple=("I1", "I2", "I3"))
        assert not entry.equal
        assert entry.lhs == Subspace.zero(1)
        assert entry.rhs == Subspace.full(1)
        trans = report_entry(report.condition2, triple=("I1", "I2", "I3"))
        assert trans.status == "not evaluable"

    def test_double_overlap_circle_satisfies_both_clauses(self, example3):
        report = check_cocycle(example3)
        assert report.overall
        assert all(e.equal for e in report.condition1)
        assert all(e.status == "ok" for e in report.condition2)

    def test_collapsed_middle_family_cannot_satisfy_it(self, example1):
        assert not check_cocycle(example1).overall

    def test_no_overlap_family_satisfies_it(self):
        assert check_cocycle(no_overlap_family()).overall

    def test_report_is_sorted(self, example2):
        report = check_cocycle(example2)
        for entries in (report.condition1, report.condition2):
            triples = [e.triple for e in entries]
            assert triples == sorted(triples)

    def test_each_piece_chart_is_built_once(self, record_calls):
        # a trio quotients each of its pieces once, by the kernels of its
        # maps to the other two, and only its first when that quotient is 0
        sums = record_calls(multipullback, "subspace_sum")
        zero_charts = []
        for fam in (fixture_family("example3"), *(dualize(random_gluing(seed)) for seed in range(20))):
            if fam.problems():
                continue
            del sums[:]
            report = check_cocycle(fam)
            loops = {tuple(sorted(e.triple)): e.loop for e in report.condition2 if e.loop is not None}
            assert len(sums) == sum(1 if loop.rows == 0 else 3 for loop in loops.values())
            zero_charts += [loop.rows == 0 for loop in loops.values()]
        assert set(zero_charts) == {True, False}

    def test_twisted_triangle_fails_clause_two_everywhere(self, twisted_triangle):
        for fam in (twisted_triangle.family, twisted_triangle.rebased):
            report = check_cocycle(fam)
            assert len(report.condition1) == len(report.condition2) == 6
            assert all(e.equal for e in report.condition1)
            assert all(e.status == "fail" for e in report.condition2)
            assert not report.overall
            # going round the triangle swaps the two points
            loop = report.condition2[0].loop
            assert all(e.loop is loop for e in report.condition2)
            assert loop != Matrix.identity(2) and loop @ loop == Matrix.identity(2)

    def test_a_trio_s_three_charts_have_one_dimension(self, fresh_families, rebased_families,
                                                       twisted_triangle, transition_reference):
        # under clause 1 each c_ab is an isomorphism Q_a = B_ab/m_ab(ker m_ac) = Q_b,
        # so a trio whose Q_i is 0 has the 0 x 0 identity as its loop, and
        # the comparison matrix of each turn inverts
        families = [*fresh_families,
                    *((f"seed{n}", dualize(random_gluing(n))) for n in range(100, 200)),
                    *((f"{name}-rebased", rebased) for name, _, rebased in rebased_families),
                    ("twisted", twisted_triangle.family), ("twisted-rebased", twisted_triangle.rebased)]
        dims = set()
        for name, fam in families:
            expected = transition_reference(fam).status
            report = check_cocycle(fam)
            assert {e.triple: e.status for e in report.condition2} == expected, name
            for e in report.condition2:
                if e.loop is None:
                    continue
                i, j, k = e.triple
                turns = ((i, j, k), (j, k, i), (k, i, j))
                charts = {a: quotient(fam.pieces[a].dim,
                                      subspace_sum(fam.map_kernels[(a, b)], fam.map_kernels[(a, c)]))
                          for a, b, c in turns}
                assert {chart.dim for chart in charts.values()} == {e.loop.rows}, (name, e.triple)
                dims.add(e.loop.rows)
                for a, b, c in turns:
                    m_ab = fam.map(a, b).matrix
                    overlap = quotient(fam.overlap(a, b).dim, image(m_ab, fam.map_kernels[(a, c)]))
                    c_ab = overlap.projection @ m_ab @ charts[a].section
                    assert (c_ab.rows, c_ab.cols) == (e.loop.rows, e.loop.rows), (name, a, b, c)
                    assert c_ab @ invert(c_ab) == Matrix.identity(e.loop.rows), (name, a, b, c)
        assert 0 in dims and len(dims) > 1

    def test_loops_match_the_transition_reference(self, fresh_families, rebased_families,
                                                  twisted_triangle, transition_reference):
        # the loop of a trio is the identity exactly when its six
        # compositions hold, and is None exactly when clause 1 fails on it
        families = [*fresh_families, *((f"{name}-rebased", rebased) for name, _, rebased in rebased_families),
                    ("twisted", twisted_triangle.family), ("twisted-rebased", twisted_triangle.rebased)]
        statuses = set()
        for name, fam in families:
            expected = transition_reference(fam).status
            for e in check_cocycle(fam).condition2:
                assert e.status == expected[e.triple], (name, e.triple)
                assert (e.loop is None) == (e.status == "not evaluable"), (name, e.triple)
                if e.loop is not None:
                    assert (e.loop == Matrix.identity(e.loop.rows)) == (e.status == "ok"), (name, e.triple)
                statuses.add(e.status)
        assert statuses == {"ok", "fail", "not evaluable"}


class TestBracketTransitionIdentity:
    @given(
        b_i=st.lists(small_fracs, min_size=3, max_size=3),
        b_j=st.lists(small_fracs, min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_bracket_agreement_iff_difference_in_pushed_kernel(self, example3, transition_reference,
                                                               b_i, b_j):
        # the transition carries the bracket class of b_j to that of b_i
        # exactly when the overlap difference falls into the pushed kernel
        charts = transition_reference(example3).charts
        for i, j, k in (("I1", "I2", "I3"), ("I2", "I3", "I1")):
            tq_ij = charts[(i, j, k)]
            tq_ji = charts[(j, i, k)]
            phi = tq_ij.iso_inv @ tq_ji.iso
            lhs = tq_ij.bracket.apply(b_i) == phi.apply(tq_ji.bracket.apply(b_j))
            diff = [
                x - y
                for x, y in zip(example3.map(i, j).apply(b_i), example3.map(j, i).apply(b_j))
            ]
            assert lhs == tq_ij.pushed_kernel.contains(diff)


class TestTheoremEquivalence:
    def test_verdicts_agree_when_false(self, example2):
        report = analyse(example2)
        assert report.skipped is None
        assert report.verdicts == (False, False, False)
        assert report.consistent

    def test_verdicts_agree_when_true(self, example3):
        report = analyse(example3)
        assert report.skipped is None
        assert report.verdicts == (True, True, True)
        assert report.consistent

    def test_twisted_triangle_verdicts_agree(self, twisted_triangle):
        for fam in (twisted_triangle.family, twisted_triangle.rebased):
            analysis = analyse(fam)
            assert analysis.skipped is None
            assert analysis.verdicts == (False, False, False)
            assert analysis.consistent

    def test_refuses_non_distributive_families(self, three_line_family):
        analysis = analyse(three_line_family)
        assert analysis.skipped == "family is not distributive"
        assert not analysis.consistent

    def test_refuses_non_surjective_families(self, example3):
        squash = matrix_of([[0, 0, 1], [0, 0, 1]])
        bad = AlgebraHom(example3.pieces["I2"], example3.overlap("I2", "I3"), squash)
        broken = GluingFamily(example3.labels, example3.pieces, example3.overlaps,
                              {**example3.maps, ("I2", "I3"): bad})
        analysis = analyse(broken)
        assert analysis.skipped == "family is not surjective"
        assert analysis.cocycle is None
        assert not analysis.consistent

    @pytest.mark.parametrize("seed", range(12))
    def test_small_random_sample_is_consistent(self, seed):
        fam = dualize(random_gluing(seed, max_pieces=4, max_points=6))
        analysis = analyse(fam)
        assert analysis.skipped is None
        assert analysis.consistent

    def test_smallest_non_distributive_instance(self, augmented_three_line_family):
        # the values of this one family; no implication between the verdicts
        # is asserted off the theorem's hypothesis
        fam = augmented_three_line_family
        analysis = analyse(fam)
        assert analysis.skipped == "family is not distributive"
        assert {i: v.status for i, v in analysis.distributive.per_piece.items()} == {
            "P1": "not-distributive", "P2": "distributive", "P3": "distributive", "P4": "distributive",
        }
        assert analysis.pullback.dim == 3
        assert all(surjective for surjective, _ in analysis.projection_images.values())
        assert analysis.verdicts == (True, False, True)
        assert not analysis.consistent
        [failure] = analysis.all_extensions.failures
        assert (failure.subset, failure.extend_by) == (("P2", "P3", "P4"), "P1")
        assert failure.witness == {"P2": vec([0, 1]), "P3": vec([0, 0]), "P4": vec([0, 0])}

    def test_smallest_non_distributive_instance_subfamilies(self, augmented_three_line_family):
        fam = augmented_three_line_family
        for subset in itertools.combinations(fam.labels, 3):
            sub = GluingFamily(subset, {i: fam.pieces[i] for i in subset},
                               {k: a for k, a in fam.overlaps.items() if set(k) <= set(subset)},
                               {k: m for k, m in fam.maps.items() if set(k) <= set(subset)})
            analysis = analyse(sub)
            assert analysis.distributive.ok, subset
            assert analysis.skipped is None, subset
            assert analysis.verdicts == (True, True, True), subset


class TestRepair:
    def test_single_overlap_circle_gains_the_second_point(self, example2):
        repaired = repair(example2)
        assert repaired.overlap("I2", "I3").dim == 2
        assert repaired.overlap("I1", "I2").dim == 1
        assert check_cocycle(repaired).overall
        assert build_pullback(repaired).dim == build_pullback(example2).dim

    def test_repair_of_a_good_family_preserves_overlap_dimensions(self, example3):
        repaired = repair(example3)
        for key, overlap in example3.overlaps.items():
            assert repaired.overlaps[key].dim == overlap.dim

    def test_pieces_keep_their_coordinates(self, example2):
        repaired = repair(example2)
        for i in example2.labels:
            assert repaired.pieces[i] == example2.pieces[i]

    def test_refused_when_a_projection_misses(self, example1):
        with pytest.raises(RepairRefused, match="projection onto piece I2"):
            repair(example1)
        try:
            repair(example1)
        except RepairRefused as e:
            assert e.projection == "I2"

    def test_refused_when_kernels_are_not_distributive(self, three_line_family):
        with pytest.raises(RepairRefused, match="distributive") as exc:
            repair(three_line_family)
        assert exc.value.witness is not None

    @pytest.fixture(scope="class")
    def repairs(self, fresh_families):
        """(name, family, repaired family) for every property input that
        repair accepts."""
        out = []
        for name, fam in fresh_families:
            try:
                out.append((name, fam, repair(fam)))
            except RepairRefused:
                pass
        return out

    def test_projection_kernels_are_ideals(self, repairs, pullback_algebra):
        for name, fam, repaired in repairs:
            induced = pullback_algebra(repaired, build_pullback(fam))  # the pieces are kept
            for i, k in pullback_kernels(fam).items():
                assert is_ideal(induced, k), (name, i)

    def test_overlaps_are_the_checked_quotients(self, repairs, pullback_algebra):
        # repair presents P/(K_i+K_j) from the piece B_i; the checked
        # quotient of the pullback's induced algebra is the reference
        for name, fam, repaired in repairs:
            pullback = build_pullback(fam)
            induced = pullback_algebra(repaired, pullback)
            kernels = pullback_kernels(fam)
            for (i, j), overlap in repaired.overlaps.items():
                ideal = subspace_sum(kernels[i], kernels[j])
                q, surjection = quotient_algebra(induced, ideal, label=overlap.label)
                assert overlap == q, (name, i, j)
                for a, b in ((i, j), (j, i)):
                    through_piece = repaired.map(a, b).matrix @ pullback.projection(a)
                    assert through_piece == surjection.matrix, (name, a, b)

    def test_repaired_families_pass_validation(self, repairs):
        # repair builds its family with the validation recorded as empty
        for name, _, rep in repairs:
            rebuilt = GluingFamily(rep.labels, rep.pieces, rep.overlaps, rep.maps)
            assert rebuilt.problems() == [], name

    def test_repaired_families_satisfy_the_cocycle_condition(self, repairs):
        # a theorem for the re-presentation, which repair leaves to
        # cmd_repair's report and to this test
        for name, _, repaired in repairs:
            assert check_cocycle(repaired).overall, name

    def test_repair_builds_no_pullback_algebra_and_validates_nothing(self, record_calls):
        fam = fixture_family("example2")
        fam.require_valid()
        validated = record_calls(algebra, "validate_algebra")
        homs = record_calls(algebra, "validate_hom")
        induced = record_calls(algebra, "subspace_algebra")
        assert check_cocycle(repair(fam)).overall
        assert (validated, homs, induced) == ([], [], [])

    def test_comparison_with_the_repaired_pullback_is_bijective(self, repairs, matrices):
        assert {name for name, _, _ in repairs} >= {"example2", "example3"}
        for name, fam, repaired in repairs:
            pullback = build_pullback(fam)
            comparison = matrices.stacked(
                [pullback.projection(i) for i in repaired.labels],
                pullback.dim,
            )
            repaired_sub = pullback_subspace(repaired)
            assert image(comparison, Subspace.full(pullback.dim)) == repaired_sub, name
            assert kernel(comparison).dim == 0, name


def checked_and_released(g: FiniteGluing) -> tuple[weakref.ref, weakref.ref]:
    """Weak references to the family parsed from the dual of ``g``, after
    ``analyse`` and ``repair``, and to ``g``, after ``duality_check``, once
    nothing here refers to them."""
    _, fam, _ = specfile.parse_document(specfile.dump_document(specfile.family_json(dualize(g))))
    analyse(fam)
    try:
        repair(fam)
    except RepairRefused:
        pass
    duality_check(g)
    return weakref.ref(fam), weakref.ref(g)


class TestFreedByReferenceCounting:
    """What a family and a gluing keep of their analyses (the pullback of
    each label subset among them) holds no reference back to either, so
    they are freed with the cycle collector switched off."""

    def test_families_and_gluings_are_freed(self):
        gc.collect()
        gc.disable()
        try:
            refs = [checked_and_released(fixture_gluing(name)) for name in FIXTURES]
            refs += [checked_and_released(random_gluing(seed)) for seed in range(15)]
            alive = [(n, fam() is not None, g() is not None) for n, (fam, g) in enumerate(refs)]
        finally:
            gc.enable()
        assert len(refs) == 21
        assert [a for a in alive if a[1] or a[2]] == []

    def test_families_past_the_subset_bound_are_freed(self):
        # analyse keeps their TooManyPieces refusal, without its traceback
        seeds = [seed for seed in range(40)
                 if len(random_gluing(seed, max_pieces=12).labels) > multipullback.DEFAULT_MAX_INDICES]
        gc.collect()
        gc.disable()
        try:
            refs = [checked_and_released(random_gluing(seed, max_pieces=12)) for seed in seeds]
            alive = [(seed, fam() is not None, g() is not None) for seed, (fam, g) in zip(seeds, refs)]
        finally:
            gc.enable()
        assert len(refs) == 17
        assert [a for a in alive if a[1] or a[2]] == []
