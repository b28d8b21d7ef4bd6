import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import _rebased, matrix_of
from gluecheck import algebra, exactlin, specfile
from gluecheck.algebra import (
    Algebra,
    AlgebraHom,
    FamilyValidationError,
    GluingFamily,
    Violation,
    is_ideal,
    kernel_ideal,
    quotient_algebra,
    subspace_algebra,
    validate_algebra,
    validate_hom,
)
from gluecheck.exactlin import F0, F1, Matrix, Subspace, kernel, span, subspace_sum, vec
from gluecheck.finset import dualize, fixture_family, tcirc_c
from gluecheck.multipullback import RepairRefused, analyse, repair


def upper_triangular_2x2() -> Algebra:
    """Basis E11, E12, E22 of upper triangular 2x2 matrices."""
    e11 = [1, 0, 0]
    e12 = [0, 1, 0]
    e22 = [0, 0, 1]
    zero = [0, 0, 0]
    table = [
        [e11, e12, zero],
        [zero, zero, e12],
        [zero, zero, e22],
    ]
    return Algebra.from_table(table, unit=[1, 0, 1], label="upper triangular")


def left_trivial_band() -> Algebra:
    """Q^2 with x*y = x on basis vectors; has no two-sided unit."""
    table = [
        [[1, 0], [1, 0]],
        [[0, 1], [0, 1]],
    ]
    return Algebra.from_table(table, unit=[1, 0])


class TestValidateAlgebra:
    def test_function_algebra_on_three_points(self):
        assert validate_algebra(Algebra.functions(3)) is None

    def test_left_trivial_band_has_no_unit(self):
        violation = validate_algebra(left_trivial_band())
        assert violation is not None
        assert violation.kind == "unit"

    def test_upper_triangular_matrices(self):
        assert validate_algebra(upper_triangular_2x2()) is None

    def test_zero_algebra(self):
        assert validate_algebra(Algebra.zero()) is None

    def test_direct_sum_is_valid(self):
        a = Algebra.direct_sum([Algebra.functions(2), upper_triangular_2x2()])
        assert validate_algebra(a) is None
        assert a.dim == 5

    @pytest.mark.parametrize("entry", [((1, F1), (0, F1)), ((0, F1), (0, F1)), ((2, F1),), ((0, F0),)],
                             ids=["unordered", "repeated", "out-of-range", "zero"])
    def test_products_are_stored_sparse(self, entry):
        with pytest.raises(ValueError):
            Algebra(2, ((entry, ()), ((), ())), (F1, F1))


def evaluation_hom(points: int, at: int) -> AlgebraHom:
    m = matrix_of([[1 if c == at else 0 for c in range(points)]])
    return AlgebraHom(Algebra.functions(points), Algebra.functions(1), m)


class TestValidateHom:
    def test_point_evaluation(self):
        assert validate_hom(evaluation_hom(3, 2)) is None

    def test_pair_evaluation(self):
        m = matrix_of([[1, 0, 0], [0, 0, 1]])
        h = AlgebraHom(Algebra.functions(3), Algebra.functions(2), m)
        assert validate_hom(h) is None

    def test_unit_to_zero_is_rejected(self, matrices):
        h = AlgebraHom(Algebra.functions(3), Algebra.functions(1), matrices.zeros(1, 3))
        violation = validate_hom(h)
        assert violation is not None and violation.kind == "hom-unit"

    def test_non_multiplicative_is_rejected(self):
        # sum of coordinates preserves the unit only after scaling, and is
        # never multiplicative on a two-point function algebra
        h = AlgebraHom(
            Algebra.functions(2),
            Algebra.functions(1),
            matrix_of([["1/2", "1/2"]]),
        )
        violation = validate_hom(h)
        assert violation is not None and violation.kind == "hom-multiplicative"

    def test_shape_mismatch_raises(self, matrices):
        with pytest.raises(ValueError):
            AlgebraHom(Algebra.functions(3), Algebra.functions(1), matrices.zeros(1, 2))


class TestValidatorCost:
    """The validators visit only the products that can be nonzero, so a
    function algebra of dimension d costs O(d) vector sums, not d^3 or d^2."""

    def test_validate_algebra_of_functions(self, record_calls):
        sums = record_calls(algebra, "_combine")
        assert validate_algebra(Algebra.functions(64)) is None
        assert len(sums) <= 4 * 64

    def test_validate_hom_of_a_restriction(self, record_calls):
        restriction = matrix_of([one_hot(0, 64), one_hot(1, 64)])
        h = AlgebraHom(Algebra.functions(64), Algebra.functions(2), restriction)
        sums = record_calls(algebra, "_combine")
        assert validate_hom(h) is None
        assert len(sums) <= 3 * 64


class TestSupportMasks:
    """Each algebra keeps the support masks of its product rows, and the
    unit check sums over the nonzero products they mark."""

    def test_unit_check_sums_no_dense_vector(self, record_calls):
        sums = record_calls(algebra, "_combine")
        assert validate_algebra(Algebra.functions(64)) is None
        assert len(sums) <= 2 * 64

    def test_rows_are_decoded_once_and_both_sides_summed_sparse(self, record_calls):
        # each row's support is decoded once, then one union of rows per i
        # and one per visited (i, j): 169 decodings and 24 dense sums before;
        # validate_hom compares its two sides as sparse sums too
        bits = record_calls(algebra, "_bits")
        sums = record_calls(algebra, "_combine")
        assert validate_algebra(Algebra.functions(24)) is None
        assert len(bits) <= 3 * 24
        restriction = matrix_of([one_hot(0, 24), one_hot(1, 24)])
        assert validate_hom(AlgebraHom(Algebra.functions(24), Algebra.functions(2), restriction)) is None
        assert sums == []

    def test_masks_mark_the_nonzero_products(self):
        a = upper_triangular_2x2()
        assert a.supports == (0b011, 0b100, 0b100)
        assert Algebra.functions(3).supports == (0b001, 0b010, 0b100)
        assert Algebra.zero().supports == ()

    def test_validating_a_family_computes_each_algebra_s_masks_once(self, monkeypatch):
        prop = Algebra.__dict__["supports"]
        computed = []

        def recorded(a, original=prop.func):
            computed.append(id(a))
            return original(a)

        monkeypatch.setattr(prop, "func", recorded)
        text = specfile.dump_document(specfile.family_json(fixture_family("example2")))
        _, fam, _ = specfile.parse_document(text)
        assert fam.problems() == []
        algebras = {id(a) for a in (*fam.pieces.values(), *fam.overlaps.values())}
        assert sorted(computed) == sorted(algebras)


def onto(h: AlgebraHom) -> bool:
    """Surjectivity as validation reads it: rank-nullity on the map's kernel."""
    return algebra._onto(h, kernel(h.matrix))


class TestSurjectivity:
    def test_identity(self):
        a = Algebra.functions(2)
        assert onto(AlgebraHom(a, a, Matrix.identity(2)))

    def test_point_evaluation(self):
        assert onto(evaluation_hom(3, 2))

    def test_diagonal_embedding_is_not(self):
        h = AlgebraHom(Algebra.functions(1), Algebra.functions(2), matrix_of([[1], [1]]))
        assert validate_hom(h) is None
        assert not onto(h)


SURJECTIVITY_ENTRIES = (0, 0, 0, 1, -1, 2, Fraction(1, 3))


def squashed(fam: GluingFamily) -> GluingFamily:
    """The family with its map (I2, I3) replaced by one whose image is a line."""
    squash = matrix_of([[0, 0, 1], [0, 0, 1]])
    bad = AlgebraHom(fam.pieces["I2"], fam.overlap("I2", "I3"), squash)
    return GluingFamily(fam.labels, fam.pieces, fam.overlaps, {**fam.maps, ("I2", "I3"): bad})


class TestSurjectivityFromKernels:
    """Validation reads whether a map is onto off its kernel, by rank-nullity;
    ``surjective_reference`` decides it by the rank of the map's matrix."""

    @staticmethod
    def assert_agree(fam: GluingFamily, surjective_reference) -> int:
        """Rebuilds fam through the public constructor, so that validation
        runs, and returns the number of maps compared."""
        fam = GluingFamily(fam.labels, fam.pieces, fam.overlaps, fam.maps)
        expected = tuple(sorted(key for key, h in fam.maps.items() if not surjective_reference(h)))
        assert fam.surjectivity_failures == expected
        assert [p for p in fam.problems() if p.kind != "map-not-surjective"] == []
        assert all(algebra._onto(h, fam.map_kernels[key]) == surjective_reference(h)
                   for key, h in fam.maps.items())
        return len(fam.maps)

    def test_the_dual_families(self, corpus, surjective_reference):
        compared = sum(self.assert_agree(fam, surjective_reference) for _, fam in corpus)
        for name, chain in itertools.product(("example1", "example2", "example3"), (3, 8, 24)):
            compared += self.assert_agree(fixture_family(name, chain), surjective_reference)
        assert compared == 2894

    def test_the_rebased_and_hand_made_families(self, rebased_families, three_line_family,
                                                twisted_triangle, surjective_reference):
        families = [fam for _, original, rebased in rebased_families for fam in (original, rebased)]
        families += [three_line_family, twisted_triangle.family, twisted_triangle.rebased]
        for fam in families:
            self.assert_agree(fam, surjective_reference)

    @pytest.mark.parametrize("fam", [fixture_family("example3"), dualize(tcirc_c())],
                             ids=["example3", "tcirc-c"])
    def test_a_squashed_map(self, fam, surjective_reference):
        broken = squashed(fam)
        self.assert_agree(broken, surjective_reference)
        assert broken.surjectivity_failures == (("I2", "I3"),)

    def test_a_family_built_valid_has_no_failures(self):
        assert fixture_family("example2").surjectivity_failures == ()

    def test_random_matrices(self, surjective_reference):
        rng = random.Random(15)
        shapes = [(0, 0), (0, 3), (2, 0)] + [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(2000)]
        for rows, cols in shapes:
            m = Matrix(rows, cols, tuple(tuple(rng.choice(SURJECTIVITY_ENTRIES) for _ in range(cols))
                                         for _ in range(rows)))
            h = AlgebraHom(Algebra.functions(cols), Algebra.functions(rows), m)
            assert onto(h) == surjective_reference(h), m

    def test_each_map_is_eliminated_once(self, record_calls):
        # the dual's pullbacks are read off union-finds and its analysis reads
        # no null space; its rebased copy eliminates its pullbacks
        dual = fixture_family("example2", 8)
        for source, pullbacks_eliminated in ((dual, False), (_rebased(dual, 0), True)):
            _, fam, _ = specfile.parse_document(specfile.dump_document(specfile.family_json(source)))
            assert (fam.coordinate_index is None) == pullbacks_eliminated
            reductions = record_calls(exactlin, "_reduce")
            fam.require_valid()
            assert len(reductions) == len(fam.maps)
            # every elimination reads its null space here, pullbacks' included
            null_spaces = record_calls(exactlin, "_null_space")
            analyse(fam)
            maps = {(tuple(r[::-1] for r in h.matrix.entries), h.matrix.cols) for h in fam.maps.values()}
            eliminated = [(tuple(map(tuple, rows)), n) for rows, n in null_spaces]
            assert bool(eliminated) == pullbacks_eliminated
            assert not [e for e in eliminated if e in maps]


class TestTrustedFunctionAlgebras:
    """``Algebra.functions`` builds without the public constructor's re-check."""

    def test_public_constructor_accepts_them(self, corpus):
        algebras = [Algebra.functions(n) for n in range(25)]
        algebras += [a for _, fam in corpus for a in (*fam.pieces.values(), *fam.overlaps.values())]
        for a in algebras:
            assert Algebra(a.dim, a.products, a.unit, a.label) == a

    def test_a_negative_point_count_is_rejected(self):
        with pytest.raises(ValueError):
            Algebra.functions(-1)


class TestIdeals:
    def test_zero_subspace(self):
        assert is_ideal(Algebra.functions(3), Subspace.zero(3))

    def test_vanishing_ideal(self):
        assert is_ideal(Algebra.functions(3), span([[1, 0, 0], [0, 1, 0]], 3))

    def test_coordinate_line(self):
        assert is_ideal(Algebra.functions(3), span([[1, 0, 0]], 3))

    def test_diagonal_line_is_not(self):
        assert not is_ideal(Algebra.functions(3), span([[1, 1, 0]], 3))

    def test_one_sided_ideal_is_rejected(self):
        # span{E12, E22} is a right ideal of upper triangular matrices but
        # multiplying by E11 on the right... E22*E11 = 0, E11*E22 = 0;
        # span{E11} is neither left nor right closed: E11*E12 = E12.
        assert not is_ideal(upper_triangular_2x2(), span([[1, 0, 0]], 3))

    def test_strictly_upper_part_is_two_sided(self):
        assert is_ideal(upper_triangular_2x2(), span([[0, 1, 0]], 3))

    def test_kernel_ideal_of_evaluation(self):
        ideal = kernel_ideal(evaluation_hom(3, 2))
        assert ideal == span([[1, 0, 0], [0, 1, 0]], 3)


class TestQuotientAlgebra:
    def test_by_zero_ideal(self):
        a = Algebra.functions(3)
        q, surj = quotient_algebra(a, Subspace.zero(3))
        assert q.dim == 3
        assert kernel(surj.matrix).dim == 0

    def test_functions_by_vanishing_ideal(self, dense_table):
        a = Algebra.functions(3)
        q, surj = quotient_algebra(a, span([[1, 0, 0], [0, 1, 0]], 3))
        assert q.dim == 1
        assert q.unit == vec([1])
        assert dense_table(q) == ((vec([1]),),)
        assert validate_hom(surj) is None

    def test_by_full_algebra(self):
        a = Algebra.functions(2)
        q, surj = quotient_algebra(a, Subspace.full(2))
        assert q.dim == 0
        assert surj.matrix.rows == 0

    def test_non_ideal_rejected(self):
        with pytest.raises(ValueError):
            quotient_algebra(Algebra.functions(3), span([[1, 1, 0]], 3))

    def test_noncommutative_quotient(self):
        a = upper_triangular_2x2()
        q, surj = quotient_algebra(a, span([[0, 1, 0]], 3))
        assert q.dim == 2
        assert validate_algebra(q) is None


def restriction_hom(source_points: int, targets: list[int]) -> AlgebraHom:
    """Dual of a map of finite sets: restrict functions along the target list."""
    m = matrix_of(
        [[1 if c == t else 0 for c in range(source_points)] for t in targets],
        cols=source_points,
    )
    return AlgebraHom(Algebra.functions(source_points), Algebra.functions(len(targets)), m)


set_maps = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=0, max_size=5))
)


class TestHomProperties:
    @given(set_maps)
    def test_restriction_homs_validate(self, data):
        n, targets = data
        assert validate_hom(restriction_hom(n, targets)) is None

    @given(st.integers(1, 6), st.data())
    def test_vanishing_ideal_quotient_counts_points(self, n, data):
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        vanish_on = [p for p, k in enumerate(keep) if k]
        a = Algebra.functions(n)
        rows = [[1 if c == p else 0 for c in range(n)] for p in range(n) if p not in vanish_on]
        ideal = span(rows, n)
        assert is_ideal(a, ideal)
        q, _ = quotient_algebra(a, ideal)
        assert q.dim == len(vanish_on)


class TestSubspaceAlgebra:
    def test_diagonal_of_product(self):
        a = Algebra.functions(2)
        diag = span([[1, 0, 1, 0], [0, 1, 0, 1]], 4)
        induced = subspace_algebra(Algebra.direct_sum([a, a]), diag)
        assert induced.dim == 2
        assert validate_algebra(induced) is None

    def test_rejects_subspace_without_unit(self):
        with pytest.raises(ValueError, match="unit"):
            subspace_algebra(Algebra.functions(2), span([[1, 0]], 2))

    def test_rejects_non_closed_subspace(self):
        a = Algebra.functions(3)
        s = span([[1, 1, 1], [1, -1, 0]], 3)
        assert s.contains(a.unit)
        assert not s.contains(a.multiply(vec([1, -1, 0]), vec([1, -1, 0])))
        with pytest.raises(ValueError, match="closed"):
            subspace_algebra(a, s)


def tiny_family() -> GluingFamily:
    pieces = {"A": Algebra.functions(2), "B": Algebra.functions(2)}
    overlap = Algebra.functions(1)
    maps = {
        ("A", "B"): AlgebraHom(pieces["A"], overlap, matrix_of([[1, 0]])),
        ("B", "A"): AlgebraHom(pieces["B"], overlap, matrix_of([[0, 1]])),
    }
    return GluingFamily(("A", "B"), pieces, {("A", "B"): overlap}, maps)


class TestGluingFamilyValidation:
    def test_valid_family(self):
        tiny_family().require_valid()

    def test_missing_map(self):
        fam = tiny_family()
        broken = GluingFamily(fam.labels, fam.pieces, fam.overlaps,
                              {("A", "B"): fam.maps[("A", "B")]})
        problems = broken.problems()
        assert any(p.kind == "missing-map" for p in problems)

    def test_map_with_wrong_target(self):
        fam = tiny_family()
        other = Algebra.functions(1, label="imposter")
        bad = AlgebraHom(fam.pieces["B"], other, matrix_of([[0, 1]]))
        broken = GluingFamily(fam.labels, fam.pieces, fam.overlaps,
                              {**fam.maps, ("B", "A"): bad})
        assert any(p.kind == "map-target" for p in broken.problems())

    def test_surjectivity_only_when_required(self):
        pieces = {"A": Algebra.functions(1), "B": Algebra.functions(1)}
        overlap = Algebra.functions(2)
        diag = matrix_of([[1], [1]])
        fam = GluingFamily(
            ("A", "B"),
            pieces,
            {("A", "B"): overlap},
            {("A", "B"): AlgebraHom(pieces["A"], overlap, diag),
             ("B", "A"): AlgebraHom(pieces["B"], overlap, diag)},
        )
        assert not fam.problems(require_surjective=False)
        assert any(p.kind == "map-not-surjective" for p in fam.problems())
        with pytest.raises(FamilyValidationError):
            fam.require_valid()

    def test_sorted_pairs(self):
        fam = tiny_family()
        assert fam.overlap("B", "A") is fam.overlap("A", "B")


# Dense references: the product, validators and ideal test as they were
# before the structure constants were stored sparse.  They read the dense
# table (the ``dense_table`` fixture) and multiply by one-hot basis vectors.

def one_hot(i: int, dim: int) -> tuple:
    return tuple(F1 if j == i else F0 for j in range(dim))


def dense_multiply(table, x, y) -> tuple:
    acc = [F0] * len(table)
    for a, xa in enumerate(x):
        if not xa:
            continue
        for b, yb in enumerate(y):
            if yb:
                for k, t in enumerate(table[a][b]):
                    if t:
                        acc[k] += xa * yb * t
    return tuple(acc)


def dense_validate_algebra(a: Algebra, table) -> Violation | None:
    d = a.dim
    for i in range(d):
        e = one_hot(i, d)
        if dense_multiply(table, a.unit, e) != e:
            return Violation("unit", (i,), f"unit * e_{i} != e_{i}")
        if dense_multiply(table, e, a.unit) != e:
            return Violation("unit", (i,), f"e_{i} * unit != e_{i}")
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = dense_multiply(table, table[i][j], one_hot(k, d))
        if lhs != dense_multiply(table, one_hot(i, d), table[j][k]):
            return Violation("associativity", (i, j, k), f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})")
    return None


def dense_validate_hom(f: AlgebraHom, source, target) -> Violation | None:
    if f.matrix.apply(f.source.unit) != f.target.unit:
        return Violation("hom-unit", (), "unit does not map to the unit")
    cols = f.matrix.columns()
    for a, b in itertools.product(range(f.source.dim), repeat=2):
        if f.matrix.apply(source[a][b]) != dense_multiply(target, cols[a], cols[b]):
            return Violation("hom-multiplicative", (a, b), f"f(e_{a} e_{b}) != f(e_{a}) f(e_{b})")
    return None


def dense_is_ideal(table, s: Subspace) -> bool:
    for i in range(len(table)):
        e = one_hot(i, len(table))
        for row in s.basis_rows:
            if not (s.contains(dense_multiply(table, e, row)) and s.contains(dense_multiply(table, row, e))):
                return False
    return True


RATIONALS = st.sampled_from([Fraction(-1), F0, F1, Fraction(1, 2)])


@st.composite
def small_algebras(draw) -> Algebra:
    """Random constants of dimension 1-3, many basis products zero; most
    fail an axiom.  Half of them get e_0 as a two-sided unit, so that
    associativity is what they test."""
    d = draw(st.integers(1, 3))
    vectors = st.lists(RATIONALS, min_size=d, max_size=d)
    products = st.one_of(st.just((F0,) * d), vectors)
    table = draw(st.lists(st.lists(products, min_size=d, max_size=d), min_size=d, max_size=d))
    unit = draw(vectors)
    if draw(st.booleans()):
        unit = one_hot(0, d)
        for b in range(d):
            table[0][b] = table[b][0] = one_hot(b, d)
    return Algebra.from_table(table, unit)


def generated(table, x, sides: str) -> Subspace:
    """The smallest subspace that contains x and is closed under
    multiplication by basis vectors on the given sides ("l", "r" or "lr")."""
    d = len(table)
    basis = [one_hot(i, d) for i in range(d)]
    s = span([x], d)
    while True:
        more = [dense_multiply(table, e, r) for e in basis for r in s.basis_rows if "l" in sides]
        more += [dense_multiply(table, r, e) for e in basis for r in s.basis_rows if "r" in sides]
        grown = subspace_sum(s, span(more, d))
        if grown == s:
            return s
        s = grown


class TestAgainstDenseReference:
    """The sparse product, validators and ideal test give what the dense
    one-hot computation they replaced gives: the same first violation, the
    same verdict, the same products."""

    def test_fresh_families(self, fresh_families, dense_table):
        for name, fam in fresh_families:
            for a in (*fam.pieces.values(), *fam.overlaps.values()):
                assert validate_algebra(a) == dense_validate_algebra(a, dense_table(a)), name
                assert Algebra.from_table(dense_table(a), a.unit, a.label) == a
            for key, h in fam.maps.items():
                expected = dense_validate_hom(h, dense_table(h.source), dense_table(h.target))
                assert validate_hom(h) == expected, (name, key)
            for i in fam.labels:
                # one map out of each piece: its kernel, an ideal, and the
                # kernel plus the unit, which often is not
                a, ker = fam.pieces[i], fam.map_kernels[next(k for k in fam.maps if k[0] == i)]
                table = dense_table(a)
                for s in (ker, subspace_sum(ker, span([a.unit], a.dim))):
                    assert is_ideal(a, s) == dense_is_ideal(table, s), (name, i)
                for x, y in itertools.product((a.unit, *ker.basis_rows[:2]), repeat=2):
                    assert a.multiply(x, y) == dense_multiply(table, x, y), (name, i)

    @given(small_algebras(), small_algebras(), st.data())
    def test_small_tables(self, dense_table, a, b, data):
        table = dense_table(a)
        assert validate_algebra(a) == dense_validate_algebra(a, table)
        assert Algebra.from_table(table, a.unit) == a
        vectors = st.lists(RATIONALS, min_size=a.dim, max_size=a.dim)
        x, y = data.draw(vectors), data.draw(vectors)
        assert a.multiply(x, y) == dense_multiply(table, x, y)
        # one-sided ideals, so that each side of the test is what decides
        for s in (span(data.draw(st.lists(vectors, max_size=2)), a.dim),
                  *(generated(table, x, sides) for sides in ("l", "r", "lr"))):
            assert is_ideal(a, s) == dense_is_ideal(table, s)
        rows = data.draw(st.lists(vectors, min_size=b.dim, max_size=b.dim))
        m = matrix_of(rows, cols=a.dim)
        # the target's unit is the image of the source's, so that the
        # multiplicativity check is what runs
        for h in (AlgebraHom(a, Algebra(b.dim, b.products, m.apply(a.unit)), m),
                  AlgebraHom(a, a, Matrix.identity(a.dim))):
            assert validate_hom(h) == dense_validate_hom(h, table, dense_table(h.target))


# A mutation moves one entry by one of these steps, an int or a Fraction.
MUTATION_STEPS = (1, -1, Fraction(1, 2))


def mutated_algebra(a: Algebra, rng: random.Random) -> Algebra:
    """a with one structure constant or one unit entry moved by a step.
    Where the unit has entries u_x = 0, the constant moved is one of
    e_x e_y with u_x = u_y = 0: the unit check cannot see it, so
    associativity decides."""
    step = rng.choice(MUTATION_STEPS)
    if rng.random() < 0.3:
        unit = list(a.unit)
        unit[rng.randrange(a.dim)] += step
        return Algebra(a.dim, a.products, tuple(unit), a.label)
    off_unit = [m for m, u in enumerate(a.unit) if not u]
    factors = off_unit or range(a.dim)
    x, y, k = rng.choice(factors), rng.choice(factors), rng.randrange(a.dim)
    products = [list(row) for row in a.products]
    constants = dict(products[x][y])
    constants[k] = constants.get(k, 0) + step
    products[x][y] = tuple(sorted((k, t) for k, t in constants.items() if t))
    return Algebra(a.dim, tuple(tuple(row) for row in products), a.unit, a.label)


def mutations(fam: GluingFamily, rng: random.Random, count: int):
    """``count`` seeded one-entry changes of fam, each as the algebras and
    maps it changes: a structure constant or unit entry of one piece or
    overlap, with every map into or out of it rebuilt on the changed
    algebra, or one entry of one map's matrix."""
    algebras = [a for a in (*fam.pieces.values(), *fam.overlaps.values()) if a.dim]
    maps = [fam.maps[key] for key in sorted(fam.maps) if fam.maps[key].matrix.rows]
    for _ in range(count):
        if maps and rng.random() < 0.25:
            h = rng.choice(maps)
            entries = [list(row) for row in h.matrix.entries]
            entries[rng.randrange(h.matrix.rows)][rng.randrange(h.matrix.cols)] += rng.choice(MUTATION_STEPS)
            m = Matrix(h.matrix.rows, h.matrix.cols, tuple(tuple(row) for row in entries))
            yield [], [AlgebraHom(h.source, h.target, m)]
            continue
        a = rng.choice(algebras)
        b = mutated_algebra(a, rng)
        yield [b], [AlgebraHom(b if h.source == a else h.source, b if h.target == a else h.target,
                               h.matrix)
                    for h in fam.maps.values() if a in (h.source, h.target)]


def first_violation(v: Violation | None) -> str | None:
    """The kind of a first violation, with the side of a unit failure."""
    if v is None:
        return None
    if v.kind != "unit":
        return v.kind
    return "left-unit" if v.message.startswith("unit *") else "right-unit"


class TestAgainstReferenceValidators:
    """``validate_algebra`` and ``validate_hom`` give what the validators
    they replaced give (``validator_reference`` in conftest): ``None`` or
    the same first violation, on every piece, overlap and map."""

    @staticmethod
    def assert_agree(algebras, homs, validator_reference) -> list:
        found = []
        for a in algebras:
            got = validate_algebra(a)
            assert got == validator_reference.algebra(a), a.label
            found.append(first_violation(got))
        for h in homs:
            got = validate_hom(h)
            assert got == validator_reference.hom(h), (h.source.label, h.target.label)
            found.append(first_violation(got))
        return found

    @pytest.fixture(scope="class")
    def families(self, corpus, rebased_families):
        """The duals of seeds 0-199, example1-3 at chains 3, 8 and 24, the
        rebased families and their originals, and what ``repair`` writes
        for each of them."""
        fams = [fam for _, fam in corpus]
        fams += [fixture_family(name, chain) for name in ("example1", "example2", "example3")
                 for chain in (3, 8, 24)]
        fams += [f for _, fam, rebased in rebased_families for f in (fam, rebased)]
        repaired = []
        for fam in fams:
            try:
                repaired.append(repair(fam))
            except RepairRefused:
                pass
        assert repaired
        return fams + repaired

    def test_the_families_and_what_repair_writes(self, families, validator_reference):
        for fam in families:
            found = self.assert_agree((*fam.pieces.values(), *fam.overlaps.values()),
                                      fam.maps.values(), validator_reference)
            assert set(found) == {None}

    def test_one_entry_mutations(self, families, validator_reference):
        rng = random.Random(21)
        found = []
        for fam in families:
            for algebras, homs in mutations(fam, rng, 2):
                found += self.assert_agree(algebras, homs, validator_reference)
        assert {"left-unit", "right-unit", "associativity", "hom-unit",
                "hom-multiplicative"} <= set(found)
