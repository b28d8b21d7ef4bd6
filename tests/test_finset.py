import hashlib
import itertools
from collections import Counter, deque

import pytest

from conftest import indicator_matrix, matrix_of, oriented_pairs, twisted_triangle_gluing
from gluecheck import finset, multipullback
from gluecheck.algebra import GluingFamily, _onto, validate_algebra, validate_hom
from gluecheck.finset import (
    FIXTURES,
    FiniteGluing,
    check_embedding,
    chain_points,
    duality_check,
    dualize,
    fixture_family,
    fixture_gluing,
    glue,
    random_gluing,
    tcirc_a,
    tcirc_c,
    tstar,
)
from gluecheck.multipullback import analyse


def component_count(g: FiniteGluing, over) -> int:
    """Independent oracle: breadth-first components of the identification graph."""
    chosen = [i for i in g.labels if i in set(over)]
    points = [(i, p) for i in chosen for p in g.spaces[i]]
    adjacency = {pt: [] for pt in points}
    for i, j in itertools.combinations(chosen, 2):
        for a, b in oriented_pairs(g, i, j):
            adjacency[(i, a)].append((j, b))
            adjacency[(j, b)].append((i, a))
    seen = set()
    count = 0
    for start in points:
        if start in seen:
            continue
        count += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


class TestGlue:
    def test_collapsing_fixture_has_five_classes(self):
        glued = glue(tstar())
        assert glued.size == 5
        assert sorted(len(c) for c in glued.classes) == [1, 1, 1, 1, 5]

    def test_single_point_circle_fixture_has_six_classes(self):
        assert glue(tcirc_a()).size == 6

    def test_double_point_circle_fixture_has_six_classes(self):
        assert glue(tcirc_c()).size == 6

    def test_single_piece_is_unchanged(self):
        glued = glue(tstar(), ["I1"])
        assert glued.size == 3
        assert all(len(c) == 1 for c in glued.classes)

    def test_no_identifications_gives_the_disjoint_union(self):
        g = FiniteGluing(("A", "B"), {"A": ("x", "y"), "B": ("z",)}, {})
        assert glue(g).size == 3

    def test_fully_identified_twins_collapse(self):
        g = FiniteGluing(
            ("A", "B"),
            {"A": ("x", "y"), "B": ("u", "v")},
            {("A", "B"): (("x", "u"), ("y", "v"))},
        )
        assert glue(g).size == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_class_count_matches_graph_components(self, seed):
        g = random_gluing(seed)
        assert glue(g).size == component_count(g, g.labels)

    def test_unknown_labels_are_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            glue(tstar(), ["I1", "nope"])

    def test_each_piece_subset_is_glued_once(self):
        g = tcirc_a()
        assert glue(g, ["I3", "I2"]) is glue(g, {"I2", "I3"})
        assert set(g.glued_spaces) == {("I2", "I3")}

    def test_monotone_onto_touched_classes(self):
        g = tcirc_a()
        small = glue(g, ["I2", "I3"])
        big = glue(g)
        touched = {big.class_of[cls[0]] for cls in small.classes}
        for cls in big.classes:
            if any(pt[0] in ("I2", "I3") for pt in cls):
                assert big.class_of[cls[0]] in touched


class TestEmbedding:
    def test_partial_gluing_of_the_arcs_is_not_embedded(self):
        report = check_embedding(tcirc_a(), {"I2", "I3"}, {"I1", "I2", "I3"})
        assert not report.injective
        (pair,) = report.merged
        assert {c[0] for c in pair} == {("I2", "1"), ("I3", "1")}

    def test_every_partial_gluing_embeds_in_the_double_point_fixture(self):
        g = tcirc_c()
        for size in (1, 2):
            for subset in itertools.combinations(g.labels, size):
                assert check_embedding(g, set(subset), g.labels).injective

    def test_middle_chain_of_the_collapsing_fixture_folds(self):
        report = check_embedding(tstar(), {"I2"}, {"I1", "I2", "I3"})
        assert not report.injective
        merged_points = {pt for pair in report.merged for cls in pair for pt in cls}
        assert ("I2", "-1") in merged_points and ("I2", "1") in merged_points

    def test_inner_must_be_contained(self):
        with pytest.raises(ValueError):
            check_embedding(tstar(), {"I1", "I2"}, {"I2"})

    @pytest.mark.parametrize(
        "inner,outer", [({"I1"}, {"I1", "zzz"}), ({"zzz"}, {"I1"})], ids=["outer", "inner"]
    )
    def test_unknown_labels_are_rejected(self, inner, outer):
        with pytest.raises(ValueError, match="zzz"):
            check_embedding(tstar(), inner, outer)


def gate_subsets(g: FiniteGluing) -> list[tuple[str, ...]]:
    """Every piece subset of a gluing of at most six pieces; past that, the
    subsets of one to three pieces and the whole gluing."""
    n = len(g.labels)
    sizes = range(1, n + 1) if n <= 6 else (1, 2, 3, n)
    return [s for size in sizes for s in itertools.combinations(g.labels, size)]


def assert_as_reference(g: FiniteGluing, reference, embeddings_first: bool) -> Counter:
    """``glue`` on every gate subset, and ``check_embedding`` of each into
    the whole gluing and, for one or two pieces, into each subset one piece
    larger, equal to the reference field for field: ``classes`` in order,
    ``class_of``, ``injective`` and ``merged``.  Returns how many of the
    embeddings compared are injective and how many are not."""
    subsets = gate_subsets(g)
    pairs = [(s, g.labels) for s in subsets if len(s) < len(g.labels)]
    pairs += [(s, (*s, k)) for s in subsets if len(s) <= 2 for k in g.labels if k not in s]

    injective = Counter()

    def embeddings():
        for inner, outer in pairs:
            got, want = check_embedding(g, set(inner), set(outer)), reference.embedding(g, inner, outer)
            assert (got.inner_over, got.outer_over) == (want.inner_over, want.outer_over)
            assert (got.injective, got.merged) == (want.injective, want.merged), (inner, outer)
            injective[want.injective] += 1

    if embeddings_first:
        embeddings()
    for s in subsets:
        got, want = glue(g, s), reference.glue(g, s)
        assert got.over == want.over and got.classes == want.classes, s
        assert got.class_of == want.class_of, s
    if not embeddings_first:
        embeddings()
    return injective


class TestAgainstPointTuples:
    """The point ids and root counts give the glued spaces and embeddings
    that the union-find over point tuples gave, in either order of asking."""

    def test_the_corpus(self, gluing_reference):
        compared = sum((assert_as_reference(random_gluing(seed), gluing_reference, seed % 2 == 0)
                        for seed in range(200)), Counter())
        assert compared[True] > 5000 and compared[False] > 5000

    def test_many_pieces(self, gluing_reference):
        # labels S10 and S11 sort before S2
        gluings = [random_gluing(seed, max_pieces=12) for seed in range(40)]
        assert any(len(g.labels) >= 11 for g in gluings)
        for seed, g in enumerate(gluings):
            assert_as_reference(g, gluing_reference, seed % 2 == 0)

    @pytest.mark.parametrize("chain", [3, 8])
    @pytest.mark.parametrize("name", list(finset.FIXTURES))
    def test_the_fixtures(self, gluing_reference, name, chain):
        assert_as_reference(fixture_gluing(name, chain), gluing_reference, True)
        assert_as_reference(fixture_gluing(name, chain), gluing_reference, False)

    def test_the_twisted_triangle(self, gluing_reference):
        assert_as_reference(twisted_triangle_gluing(), gluing_reference, True)
        assert_as_reference(twisted_triangle_gluing(), gluing_reference, False)


class TestGluingCost:
    """One point-id index per gluing, one union-find per piece subset, and
    no glued space built for an embedding that is injective."""

    def test_one_union_find_per_piece_subset(self, record_calls):
        g = random_gluing(5, max_pieces=12)
        union_finds = record_calls(finset, "_union_find")
        indexes = record_calls(finset, "_point_index")
        asked = set()
        for s in gate_subsets(g)[:200]:
            rest = [k for k in g.labels if k not in s]
            check_embedding(g, s, g.labels)
            check_embedding(g, set(s), {*s, rest[0]} if rest else s)
            glue(g, reversed(s))
            asked |= {s, tuple(i for i in g.labels if i in {*s, *rest[:1]}), g.labels}
        keys = [args[1] for args in union_finds]
        assert len(keys) == len(set(keys)) and set(keys) == asked
        assert len(indexes) == 1

    def test_no_glued_space_for_an_injective_embedding(self, record_calls):
        g = tcirc_c()
        spaces = record_calls(finset, "GluedSpace")
        for s in gate_subsets(g):
            assert check_embedding(g, s, g.labels).injective
        assert spaces == []
        g = tcirc_a()
        assert not check_embedding(g, {"I2", "I3"}, g.labels).injective
        assert [args[0] for args in spaces] == [("I2", "I3")]  # to name the merged classes


class TestDualize:
    def test_single_point_circle_reproduces_the_evaluation_maps(self):
        fam = dualize(tcirc_a())
        eval_at_1 = matrix_of([[0, 0, 1]])
        eval_at_minus1 = matrix_of([[1, 0, 0]])
        assert fam.map("I1", "I2").matrix == eval_at_1
        assert fam.map("I2", "I1").matrix == eval_at_1
        assert fam.map("I1", "I3").matrix == eval_at_1
        assert fam.map("I3", "I1").matrix == eval_at_1
        assert fam.map("I2", "I3").matrix == eval_at_minus1
        assert fam.map("I3", "I2").matrix == eval_at_minus1

    def test_double_point_overlap_has_dimension_two(self):
        fam = dualize(tcirc_c())
        assert fam.overlap("I2", "I3").dim == 2
        assert fam.map("I2", "I3").matrix == matrix_of([[1, 0, 0], [0, 0, 1]])

    def test_swapped_endpoint_identification(self):
        fam = dualize(tstar())
        assert fam.map("I2", "I3").matrix == matrix_of([[1, 0, 0], [0, 0, 1]])
        assert fam.map("I3", "I2").matrix == matrix_of([[0, 0, 1], [1, 0, 0]])

    def test_empty_identification_gives_a_zero_overlap(self):
        g = FiniteGluing(("A", "B"), {"A": ("x",), "B": ("y",)}, {})
        fam = dualize(g)
        assert fam.overlap("A", "B").dim == 0
        fam.require_valid()

    def test_maps_are_the_indicator_matrices(self):
        gluings = [random_gluing(seed) for seed in range(200)]
        gluings += [fixture_gluing(name, chain) for name in FIXTURES for chain in (3, 8)]
        compared = 0
        for g in gluings:
            fam = dualize(g)
            for i, j in itertools.permutations(g.labels, 2):
                want = indicator_matrix(g.spaces[i], [a for a, _ in oriented_pairs(g, i, j)])
                got = fam.map(i, j).matrix
                assert got == want and repr(got) == repr(want), (i, j)
                compared += 1
        assert compared > 2000

    @pytest.mark.parametrize("source", [
        *range(100), "example1", "example2", "example3", "example1@24", "example2@24", "example3@24",
    ])
    def test_dualized_families_validate(self, fresh_families, source):
        """A dual family is built without validation; the public constructor runs it in full."""
        if isinstance(source, int):
            fam = dict(fresh_families)[f"seed{source}"]
        elif "@" in source:
            name, chain = source.split("@")
            fam = fixture_family(name, int(chain))
        else:
            fam = dict(fresh_families)[source]
        assert GluingFamily(fam.labels, fam.pieces, fam.overlaps, fam.maps).problems() == []
        for a in [*fam.pieces.values(), *fam.overlaps.values()]:
            assert validate_algebra(a) is None
        for key, h in fam.maps.items():
            assert validate_hom(h) is None and _onto(h, fam.map_kernels[key])


class TestDualityBridge:
    @pytest.mark.parametrize("name", ["tstar", "tcirc-a", "tcirc-c"])
    def test_fixtures_are_consistent(self, name):
        report = duality_check(fixture_gluing(name))
        assert report.ok
        assert report.pullback_dim == report.class_count

    def test_collapsing_fixture_details(self):
        report = duality_check(tstar())
        assert report.pullback_dim == 5
        by_piece = {i: (s, e) for i, s, e in report.projection_embedding}
        assert by_piece["I2"] == (False, False)
        assert by_piece["I1"] == (True, True)

    def test_single_point_circle_details(self):
        report = duality_check(tcirc_a())
        assert all(s and e for _, s, e in report.projection_embedding)
        failed = [(pair, k) for pair, k, ok, _ in report.extension_embedding if not ok]
        assert failed == [(("I2", "I3"), "I1")]

    def test_one_piece_gluing(self):
        g = FiniteGluing(("A",), {"A": ("x", "y")}, {})
        assert duality_check(g).ok

    def test_after_an_analysis_computes_no_extension_entry(self, monkeypatch):
        g = random_gluing(3)
        analyse(dualize(g))
        entries = []
        compute = multipullback._extension_entry

        def recorded(*args):
            entries.append(args)
            return compute(*args)

        monkeypatch.setattr(multipullback, "_extension_entry", recorded)
        assert duality_check(g).ok
        assert entries == []

    def test_reads_the_gluing_s_one_dual_family(self):
        g = tcirc_a()
        fam = dualize(g)
        assert dualize(g) is fam
        duality_check(g)
        assert frozenset(g.labels) in fam.pullbacks


class TestFixtures:
    def test_chain_points_default(self):
        assert chain_points() == ("-1", "0", "1")
        assert chain_points(5) == ("-1", "t1", "t2", "t3", "1")
        with pytest.raises(ValueError):
            chain_points(1)

    def test_longer_chains_keep_the_same_class_counts_up_to_interior(self):
        # interior points never glue, so class counts grow by 3 per extra point
        assert glue(tstar(4)).size == 8
        assert glue(tcirc_a(4)).size == 9

    def test_family_fixture_names(self):
        fam = fixture_family("example2")
        assert fam.overlap("I2", "I3").dim == 1
        with pytest.raises(KeyError):
            fixture_gluing("nonsense")


class TestRandomGluing:
    def test_deterministic_for_a_seed(self):
        assert random_gluing(7) == random_gluing(7)

    def test_golden_structure_for_seed_zero(self):
        g = random_gluing(0)
        assert g.labels == ("S1", "S2", "S3", "S4", "S5")
        assert g.spaces["S2"] == ("p1",)
        assert len(g.spaces["S4"]) == 9
        assert g.identifications[("S1", "S3")] == (("p2", "p1"), ("p3", "p3"), ("p7", "p4"))
        assert ("S4", "S5") not in g.identifications

    @pytest.mark.parametrize("seed", range(40))
    def test_respects_size_bounds(self, seed):
        g = random_gluing(seed)
        assert 2 <= len(g.labels) <= 6
        assert all(1 <= len(pts) <= 12 for pts in g.spaces.values())
        assert not g.problems()

    def test_many_pieces_validate(self):
        # labels S10, S11, ... sort before S2, so each pair is stored under
        # its canonical key
        gluings = [random_gluing(seed, max_pieces=12) for seed in range(60)]
        assert all(not g.problems() for g in gluings)
        assert max(len(g.labels) for g in gluings) >= 10

    def test_the_default_draws_are_unchanged(self):
        digest = hashlib.sha256()
        for seed in range(200):
            g = random_gluing(seed)
            digest.update(repr((g.labels, sorted(g.spaces.items()),
                                sorted(g.identifications.items()))).encode())
        assert digest.hexdigest() == "80e3a5ea32650f5df8aa3501b7b461feec88d9c8eed40d8bcd80a60014a93a14"

    def test_small_parameters(self):
        g = random_gluing(3, max_pieces=2, max_points=1)
        assert len(g.labels) == 2
        assert all(len(pts) == 1 for pts in g.spaces.values())
