import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import matrix_of, spokes_gluing, star_gluing
from gluecheck import exactlin, lattice
from gluecheck.algebra import AlgebraHom, FamilyValidationError, GluingFamily, is_ideal
from gluecheck.exactlin import Subspace, intersect, kernel, span, subspace_sum
from gluecheck.finset import FIXTURES, FiniteGluing, dualize, fixture_family, random_gluing, tcirc_a, tcirc_c, tstar
from gluecheck.lattice import (
    DEFAULT_CAP,
    check_distributive_family,
    decide_distributivity,
    generate_lattice,
    is_distributive,
)
from gluecheck.multipullback import build_pullback, projection_surjective

LINE_A = span([[1, 0]], 2)
LINE_B = span([[0, 1]], 2)
LINE_C = span([[1, 1]], 2)


def piece_kernels(fam: GluingFamily, i: str) -> list[Subspace]:
    """The kernels of the maps out of piece i, the generators its lattice check closes."""
    return [fam.map_kernels[(i, j)] for j in sorted(fam.labels) if j != i]


def random_subspace(rng: random.Random, ambient: int) -> Subspace:
    rows = [
        [rng.randint(-3, 3) for _ in range(ambient)]
        for _ in range(rng.randint(0, ambient))
    ]
    return span(rows, ambient)


class TestGenerateLattice:
    def test_single_generator_is_a_fixed_point(self):
        u = span([[1, 2, 0]], 3)
        closure = generate_lattice([u])
        assert closure.elements == (u,)
        assert closure.complete

    def test_two_transverse_lines(self):
        closure = generate_lattice([LINE_A, LINE_B])
        assert closure.complete
        assert set(closure.elements) == {LINE_A, LINE_B, Subspace.zero(2), Subspace.full(2)}

    def test_kernels_inside_a_middle_piece(self):
        # kernels of the maps out of the middle chain of the tstar family,
        # cross-checked against a hand enumeration of coordinate subspaces
        fam = dualize(tstar())
        gens = [kernel(fam.map("I2", j).matrix) for j in ("I1", "I3")]
        closure = generate_lattice(gens)
        assert closure.complete
        assert set(closure.elements) == {
            span([[1, 0, 0], [0, 1, 0]], 3),  # vanish at the 1-endpoint
            span([[0, 1, 0]], 3),             # vanish at both endpoints
        }

    def test_tables_are_sum_and_meet(self):
        # the diagonal included, which the closure records without computing
        for closure in (generate_lattice([LINE_A, LINE_B, LINE_C]), generate_lattice([LINE_A])):
            els = closure.elements
            for x, a in enumerate(els):
                for y, b in enumerate(els):
                    assert els[closure.sum_table[x][y]] == subspace_sum(a, b)
                    assert els[closure.meet_table[x][y]] == intersect(a, b)

    def test_cap_reported_honestly(self):
        closure = generate_lattice([LINE_A, LINE_B, LINE_C], cap=3)
        assert not closure.complete
        assert len(closure.elements) == 3
        assert is_distributive(closure).status == "indeterminate"

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [0, 0, 1], [0, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ], ids=["three-lines-of-a-plane", "coordinate-axes"])
    def test_generators_past_the_cap_leave_it_incomplete(self, rows, cap):
        # a distinct generator the closure cannot list is work left undone
        gens = [span([r], 3) for r in rows]
        closure = generate_lattice(gens, cap)
        assert not closure.complete
        assert len(closure.elements) == cap
        assert is_distributive(closure).status == "indeterminate"
        verdict = decide_distributivity(gens, cap)
        assert (verdict.status, verdict.blocks) == ("indeterminate", None)

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError):
            generate_lattice([LINE_A, span([[1, 0, 0]], 3)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_three_generator_closures_complete_at_28(self, seed):
        # the sublattice generated by three subspaces is a quotient of the
        # free modular lattice on three generators, which has 28 elements
        rng = random.Random(seed)
        ambient = rng.randint(1, 4)
        gens = [random_subspace(rng, ambient) for _ in range(3)]
        closure = generate_lattice(gens, cap=28)
        assert closure.complete


class TestIsDistributive:
    def test_chain_is_distributive(self):
        u = span([[1, 0, 0]], 3)
        v = span([[1, 0, 0], [0, 1, 0]], 3)
        w = Subspace.full(3)
        assert is_distributive(generate_lattice([u, v, w])).status == "distributive"

    def test_three_lines_fail_with_witness(self):
        closure = generate_lattice([LINE_A, LINE_B, LINE_C])
        verdict = is_distributive(closure)
        assert verdict.status == "not-distributive"
        a, b, c = verdict.witness
        assert (a, b, c) == (LINE_A, LINE_B, LINE_C)
        assert intersect(a, subspace_sum(b, c)) == a
        assert subspace_sum(intersect(a, b), intersect(a, c)) == Subspace.zero(2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_verdict_is_order_independent(self, seed):
        rng = random.Random(seed)
        gens = [random_subspace(rng, 3) for _ in range(3)]
        statuses = set()
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
            closure = generate_lattice([gens[p] for p in perm])
            statuses.add(is_distributive(closure).status)
        assert len(statuses) == 1


@st.composite
def subspace_sets(draw):
    """1-5 subspaces of one Q^d, d in 1..4, spanned by small integer rows."""
    ambient = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient)
    return [span(draw(st.lists(row, max_size=ambient)), ambient)
            for _ in range(draw(st.integers(1, 5)))]


class TestAdaptedBasisCertificate:
    """``decide_distributivity`` against the closure and ``is_distributive``:
    the same verdict and witness, except that the count may prove
    distributive a lattice whose closure passes the cap.  The blocks it
    reports are checked against exact linear algebra."""

    @staticmethod
    def assert_blocks_adapt(gens, blocks):
        """The blocks' widths count the ambient space, each generator and
        each meet of two."""
        assert all(width > 0 for width, _ in blocks)
        assert sum(width for width, _ in blocks) == gens[0].ambient_dim
        for n, g in enumerate(gens):
            assert sum(width for width, inside in blocks if n in inside) == g.dim
        for n, m in itertools.combinations(range(len(gens)), 2):
            assert (sum(width for width, inside in blocks if n in inside and m in inside)
                    == intersect(gens[n], gens[m]).dim)

    @classmethod
    def assert_matches_closure(cls, gens, caps=(3, 6, DEFAULT_CAP)):
        for cap in caps:
            closure = generate_lattice(gens, cap)
            verdict = decide_distributivity(gens, cap)
            expected = is_distributive(closure)
            if verdict.blocks is not None:
                assert verdict.status == "distributive", cap
                cls.assert_blocks_adapt(gens, verdict.blocks)
            if closure.complete or verdict.status == "indeterminate":
                assert verdict.status == expected.status, cap
            else:
                # a distributive lattice of subspaces of Q^d has at most 2^d elements
                assert verdict.status == "distributive", cap
                uncapped = generate_lattice(gens, 2 ** gens[0].ambient_dim)
                assert is_distributive(uncapped).status == "distributive", cap
            assert verdict.witness == expected.witness

    @classmethod
    def assert_piece_blocks_adapt(cls, fam):
        """Every piece the count decides reports blocks whose widths count
        the piece, each ker m_ij and each ker m_ij & ker m_il, each kernel
        named by its label j, and are the blocks the family keeps for the
        piece; returns how many pieces it decided."""
        counted = 0
        for label, verdict in check_distributive_family(fam).per_piece.items():
            if verdict.blocks is not None:
                assert fam.kernel_blocks[label] == verdict.blocks
                others = [j for j in sorted(fam.labels) if j != label]
                gens = [fam.map_kernels[(label, j)] for j in others]
                blocks = [(width, {others.index(j) for j in inside}) for width, inside in verdict.blocks]
                cls.assert_blocks_adapt(gens, blocks)
                counted += 1
        return counted

    def test_reported_blocks_of_every_family(self, fresh_families, rebased_families):
        # every piece of these families has maps out of it and is decided by the count
        families = [fam for _, fam in fresh_families] + [fam for _, _, fam in rebased_families]
        counted = sum(self.assert_piece_blocks_adapt(fam) for fam in families)
        assert counted == sum(len(fam.labels) for fam in families)

    @given(subspace_sets())
    @settings(max_examples=300, deadline=None)
    def test_random_subspace_sets(self, gens):
        # four or more subspaces can generate an infinite lattice, which
        # the reference closure would list up to the default cap of 10,000
        # elements; the default cap is compared where 120 already suffices
        finite = generate_lattice(gens, 120).complete
        self.assert_matches_closure(gens, (3, 6, 120, DEFAULT_CAP) if finite else (3, 6, 120))

    def test_three_lines_fall_back_to_the_closure_witness(self):
        verdict = decide_distributivity([LINE_A, LINE_B, LINE_C])
        assert (verdict.status, verdict.blocks) == ("not-distributive", None)
        assert verdict.witness == (LINE_A, LINE_B, LINE_C)

    @pytest.mark.parametrize("cap", [5, 6, 7])
    def test_a_count_that_succeeds_decides_past_the_cap(self, cap):
        # the five meets of the coordinate axes of Q^3 fit under the cap and
        # their count proves the lattice distributive, while its eight
        # elements do not; each axis is a block of its own
        axes = [span([row], 3) for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        verdict = decide_distributivity(axes, cap)
        assert verdict.status == "distributive"
        assert verdict.blocks == ((1, frozenset({0})), (1, frozenset({1})), (1, frozenset({2})))
        assert not generate_lattice(axes, cap).complete
        self.assert_matches_closure(axes, (cap,))

    def test_meets_past_the_cap_stay_indeterminate(self, record_calls):
        # the four coordinate hyperplanes of Q^4 have 16 meets, so at cap 10
        # the count cannot run; a closure would hold ten meets and their
        # sum Q^4, which is no generator, so it is not run
        closures = record_calls(lattice, "generate_lattice")
        hyperplanes = [span([[int(c == r) for c in range(4)] for r in range(4) if r != h], 4)
                       for h in range(4)]
        verdict = decide_distributivity(hyperplanes, 10)
        assert (verdict.status, verdict.blocks) == ("indeterminate", None)
        assert closures == []

    def test_meets_past_the_cap_of_a_chain_run_the_closure(self, record_calls):
        # a chain's sum is its top, a meet, so its closure may finish within
        # the cap: three elements at cap 3
        closures = record_calls(lattice, "generate_lattice")
        chain = [span([[int(c == r) for c in range(4)] for r in range(n)], 4) for n in (1, 2, 3)]
        assert decide_distributivity(chain, 3).status == "distributive"
        assert len(closures) == 1

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_generators_past_the_cap_keep_the_closure_order(self, order):
        # the closure lists no distinct generator beyond the cap, so which
        # ones it keeps, and whether they close within the cap, follows
        # their order; the certificate answers as the closure does
        gens = [span([[1, 0, 0]], 3), span([[1, 0, 0], [0, 1, 0]], 3), span([[0, 0, 1]], 3)]
        self.assert_matches_closure([gens[n] for n in order], caps=(1, 2, 3))

    def test_piece_kernels_of_every_family(self, fresh_families):
        for name, fam in fresh_families:
            for i in sorted(fam.labels):
                self.assert_matches_closure(piece_kernels(fam, i))

    def test_projection_kernels_that_repair_closes(self, fresh_families):
        checked = 0
        for name, fam in fresh_families:
            p = build_pullback(fam)
            if all(projection_surjective(p, i)[0] for i in p.over):
                self.assert_matches_closure([kernel(p.projection(i)) for i in sorted(p.over)])
                checked += 1
        assert checked >= 2

    def test_intersections_are_bounded_by_the_meets(self, monkeypatch):
        # a hub of four points and twelve spokes of one to three points, each
        # identified with its own subset of the hub: every kernel of the
        # dual family is a coordinate subspace, so a piece with p points has
        # at most 2^p distinct meets, while its 12 generators have 2^12
        # subsets
        hub = ("a", "b", "c", "d")
        subsets = [s for size in (1, 2, 3) for s in itertools.combinations(hub, size)][:12]
        labels = ("H",) + tuple(f"S{n:02d}" for n in range(len(subsets)))
        spaces = {"H": hub}
        identifications = {}
        for label, chosen in zip(labels[1:], subsets):
            spaces[label] = tuple(f"q{n}" for n in range(len(chosen)))
            identifications[("H", label)] = tuple(zip(chosen, spaces[label]))
        fam = dualize(FiniteGluing(labels, spaces, identifications))
        generators = len(labels) - 1
        assert generators >= 12
        calls = []
        # the masks withheld, each meet the count lists is one intersect
        monkeypatch.setattr(lattice, "_pivot_masks", lambda gens: None)
        monkeypatch.setattr(lattice, "intersect", lambda u, v: calls.append(1) or intersect(u, v))
        monkeypatch.setattr(lattice, "generate_lattice", None)  # the closure never runs
        assert check_distributive_family(fam).ok
        meets_bound = sum(2 ** len(spaces[i]) for i in labels)
        assert 0 < len(calls) <= meets_bound * generators < 2 ** generators


def eliminated(gens, cap):
    """``_adapted_basis`` with the pivot masks withheld, so that every meet
    is an ``intersect`` and every rank an elimination: the reference the
    count on masks must reproduce."""
    with mock.patch.object(lattice, "_pivot_masks", return_value=None):
        return lattice._adapted_basis(gens, cap)


def coordinate_subspace(ambient: int, columns) -> Subspace:
    return span([[int(c == p) for c in range(ambient)] for p in columns], ambient)


@st.composite
def coordinate_sets(draw):
    """1-6 coordinate subspaces of one Q^d, d in 1..6, the zero and the
    full subspace among the choices."""
    ambient = draw(st.integers(1, 6))
    columns = st.one_of(st.just(()), st.just(range(ambient)), st.sets(st.integers(0, ambient - 1)))
    return [coordinate_subspace(ambient, sorted(draw(columns))) for _ in range(draw(st.integers(1, 6)))]


class TestPivotMasks:
    """The count on pivot masks against the count on eliminations: the same
    blocks, or "past cap" at the same cap, wherever every generator is a
    coordinate subspace; anywhere else the eliminations run."""

    @staticmethod
    def assert_paths_agree(gens, caps=(DEFAULT_CAP,)):
        assert lattice._pivot_masks(gens) is not None
        for cap in caps:
            assert lattice._adapted_basis(gens, cap) == eliminated(gens, cap), cap

    @classmethod
    def assert_family_agrees(cls, fam, caps=(DEFAULT_CAP,)):
        for i in sorted(fam.labels):
            cls.assert_paths_agree(piece_kernels(fam, i), caps)

    def test_every_piece_of_the_corpus_duals(self):
        for seed in range(200):
            self.assert_family_agrees(dualize(random_gluing(seed)))

    @pytest.mark.parametrize("chain", [3, 8])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_the_fixtures(self, name, chain):
        self.assert_family_agrees(fixture_family(name, chain))

    def test_the_spokes_at_caps_one_to_six(self):
        # S1's five meets pass every cap below five
        self.assert_family_agrees(dualize(spokes_gluing()), caps=range(1, 7))

    def test_the_coordinate_hyperplanes_of_q4_at_cap_ten(self):
        hyperplanes = [coordinate_subspace(4, [c for c in range(4) if c != h]) for h in range(4)]
        self.assert_paths_agree(hyperplanes, caps=(10,))
        assert lattice._adapted_basis(hyperplanes, 10) == "past cap"

    def test_the_star(self):
        fam = dualize(star_gluing())
        self.assert_family_agrees(fam)
        assert lattice._adapted_basis(piece_kernels(fam, "H"), DEFAULT_CAP) == "past cap"

    @given(coordinate_sets(), st.sampled_from([1, 2, 3, 5, 8, 20, DEFAULT_CAP]))
    @settings(max_examples=300, deadline=None)
    def test_random_coordinate_sets(self, gens, cap):
        self.assert_paths_agree(gens, caps=(cap,))

    def test_other_subspaces_have_no_masks(self, rebased_families):
        assert lattice._pivot_masks([LINE_A, LINE_B]) == [0b01, 0b10]
        assert lattice._pivot_masks([LINE_A, LINE_C]) is None
        for _, _, rebased in rebased_families:
            pieces = [piece_kernels(rebased, i) for i in rebased.labels]
            # the zero and the full subspace are coordinate in any basis
            if any(0 < k.dim < k.ambient_dim for gens in pieces for k in gens):
                assert any(lattice._pivot_masks(gens) is None for gens in pieces)

    def test_only_subspaces_that_are_not_coordinate_intersect(self, record_calls, rebased_families):
        meets = record_calls(exactlin, "intersect")
        for fam in (dualize(random_gluing(0)), dualize(star_gluing())):
            check_distributive_family(fam)
        assert meets == []
        for _, _, rebased in rebased_families:
            check_distributive_family(rebased)
        assert meets


class TestDistributiveFamily:
    @pytest.mark.parametrize("fixture", [tstar, tcirc_a, tcirc_c])
    def test_dualized_fixtures_are_distributive(self, fixture):
        report = check_distributive_family(dualize(fixture()))
        assert report.ok
        assert not report.surjectivity_failures
        for verdict in report.per_piece.values():
            assert verdict.status == "distributive"

    def test_every_closure_element_is_an_ideal(self, fresh_families):
        # the check tests no element: kernels of homs are ideals, and sums
        # and meets of ideals are ideals
        for name, fam in fresh_families:
            for i in sorted(fam.labels):
                closure = generate_lattice(piece_kernels(fam, i))
                assert all(is_ideal(fam.pieces[i], s) for s in closure.elements), (name, i)

    def test_non_surjective_map_is_named(self):
        fam = dualize(tcirc_c())
        squash = matrix_of([[0, 0, 1], [0, 0, 1]])
        bad = AlgebraHom(fam.pieces["I2"], fam.overlap("I2", "I3"), squash)
        broken = GluingFamily(
            fam.labels, fam.pieces, fam.overlaps, {**fam.maps, ("I2", "I3"): bad}
        )
        report = check_distributive_family(broken)
        assert not report.ok
        assert ("I2", "I3") in report.surjectivity_failures

    def test_map_that_is_not_a_hom_is_rejected(self):
        # its kernel, span{(1, -1, 0)}, is no ideal; validation refuses the
        # family before any kernel is taken on trust
        fam = dualize(tcirc_c())
        bad = AlgebraHom(fam.pieces["I2"], fam.overlap("I2", "I3"),
                         matrix_of([[1, 1, 0], [0, 0, 1]]))
        broken = GluingFamily(
            fam.labels, fam.pieces, fam.overlaps, {**fam.maps, ("I2", "I3"): bad}
        )
        assert not is_ideal(fam.pieces["I2"], kernel(bad.matrix))
        with pytest.raises(FamilyValidationError, match=r"map \(I2, I3\)"):
            check_distributive_family(broken)
