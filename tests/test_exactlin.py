import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import matrix_of
from gluecheck import exactlin, lattice
from gluecheck.exactlin import (
    Matrix,
    Subspace,
    image,
    intersect,
    invert,
    kernel,
    quotient,
    span,
    subspace_sum,
    vec,
)
from gluecheck.finset import dualize, fixture_family, random_gluing
from gluecheck.lattice import check_distributive_family, generate_lattice
from gluecheck.multipullback import RepairRefused, repair

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, min_rows=0, min_cols=1):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    entries = draw(
        st.lists(st.lists(fracs, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return matrix_of(entries, cols)


@st.composite
def subspaces(draw, ambient=None, max_ambient=4):
    n = ambient if ambient is not None else draw(st.integers(1, max_ambient))
    m = draw(matrices(max_rows=n, max_cols=n, min_cols=n))
    return span(m.entries, n)


def rref(m: Matrix) -> Subspace:
    """The canonical basis of the row space of m."""
    return span(m.entries, m.cols)


class TestRref:
    def test_identity(self):
        assert rref(Matrix.identity(2)) == Subspace.full(2)

    def test_zero_matrix(self, matrices):
        s = rref(matrices.zeros(2, 2))
        assert s == Subspace.zero(2)
        assert s.ambient_dim == 2

    def test_dependent_rows(self):
        s = rref(matrix_of([[2, 4], [1, 2]]))
        assert s.basis_rows == (vec([1, 2]),)

    @given(matrices())
    def test_idempotent(self, m):
        s = rref(m)
        assert span(s.basis_rows, s.ambient_dim) == s


class TestColumns:
    def test_columns_are_the_columns_read_one_index_at_a_time(self):
        rng = random.Random(0)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(100)]
        for rows, cols in shapes:
            m = Matrix(rows, cols, tuple(tuple(rng.choice((0, 0, 1, -2, Fraction(3, 4)))
                                               for _ in range(cols)) for _ in range(rows)))
            assert m.columns() == tuple(tuple(m.entries[r][c] for r in range(rows)) for c in range(cols))


class TestSum:
    def test_zero_is_neutral(self):
        u = span([[1, 2, 3]], 3)
        assert subspace_sum(u, Subspace.zero(3)) == u

    def test_complementary_lines(self):
        assert subspace_sum(span([[1, 0]], 2), span([[0, 1]], 2)) == Subspace.full(2)

    def test_two_planes_generators(self):
        s = subspace_sum(span([[1, 1, 0]], 3), span([[1, 1, 1]], 3))
        assert s.basis_rows == (vec([1, 1, 0]), vec([0, 0, 1]))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(span([[1]], 1), span([[1, 0]], 2))


class TestIntersect:
    def test_idempotent(self):
        u = span([[1, 2], [0, 1]], 2)
        assert intersect(u, u) == u

    def test_transverse_lines(self):
        assert intersect(span([[1, 0]], 2), span([[0, 1]], 2)) == Subspace.zero(2)

    def test_plane_meets_line(self):
        assert intersect(Subspace.full(2), span([[1, 1]], 2)) == span([[1, 1]], 2)

    @given(subspaces(ambient=3), subspaces(ambient=3))
    def test_members_lie_in_both(self, u, v):
        w = intersect(u, v)
        for row in w.basis_rows:
            assert u.contains(row) and v.contains(row)

    @given(subspaces(ambient=4), subspaces(ambient=4))
    def test_dimension_formula(self, u, v):
        assert subspace_sum(u, v).dim == u.dim + v.dim - intersect(u, v).dim


class TestMaps:
    def test_image_under_identity(self):
        u = span([[1, 2], [0, 1]], 2)
        assert image(Matrix.identity(2), u) == u

    def test_kernel_of_point_evaluation(self):
        # evaluation at the last point of a 3-point chain
        k = kernel(matrix_of([[0, 0, 1]]))
        assert k == span([[1, 0, 0], [0, 1, 0]], 3)

    @given(matrices())
    def test_rank_nullity(self, f):
        assert kernel(f).dim + image(f, Subspace.full(f.cols)).dim == f.cols

    @given(st.data())
    def test_image_dimension_split(self, data):
        f = data.draw(matrices())
        u = data.draw(subspaces(ambient=f.cols))
        assert u.dim == image(f, u).dim + intersect(u, kernel(f)).dim


class TestQuotient:
    def test_by_zero_subspace_is_bijective(self):
        chart = quotient(3, Subspace.zero(3))
        assert chart.dim == 3
        assert invert(chart.projection) is not None

    def test_of_q3_by_plane(self):
        plane = span([[1, 0, 0], [0, 1, 0]], 3)
        chart = quotient(3, plane)
        assert chart.dim == 1
        assert chart.projection.entries == (vec([0, 0, 1]),)

    def test_by_full_space(self):
        chart = quotient(2, Subspace.full(2))
        assert chart.dim == 0
        assert chart.projection.rows == 0

    @given(subspaces())
    def test_kernel_of_projection_is_exactly_the_subspace(self, v):
        chart = quotient(v.ambient_dim, v)
        assert kernel(chart.projection) == v

    @given(subspaces())
    def test_projection_section_is_identity(self, v):
        chart = quotient(v.ambient_dim, v)
        assert chart.projection @ chart.section == Matrix.identity(chart.dim)


class TestModularLaw:
    @given(subspaces(ambient=4), subspaces(ambient=4), st.data())
    def test_modular_law_for_nested_spaces(self, v, w, data):
        # u below w: spanned by a subset of w's basis rows
        keep = data.draw(st.lists(st.booleans(), min_size=w.dim, max_size=w.dim))
        u = span([r for r, k in zip(w.basis_rows, keep) if k], w.ambient_dim)
        assert subspace_sum(u, intersect(v, w)) == intersect(subspace_sum(u, v), w)


class TestInvert:
    def test_round_trip(self):
        m = matrix_of([[1, 2], [3, 5]])
        assert m @ invert(m) == Matrix.identity(2)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            invert(matrix_of([[1, 2], [2, 4]]))

    def test_empty_matrix(self):
        assert invert(matrix_of([], cols=0)) == Matrix.identity(0)


class TestMembership:
    def test_contains_and_coordinates(self):
        u = span([[1, 0, 1], [0, 1, 0]], 3)
        assert u.contains([2, 3, 2])
        assert u.coordinates_of([2, 3, 2]) == vec([2, 3])
        assert not u.contains([1, 0, 0])
        assert u.coordinates_of([1, 0, 0]) is None

    @given(subspaces(), st.lists(fracs, min_size=1, max_size=4))
    def test_linear_combinations_are_members(self, u, coeffs):
        coeffs = coeffs[: u.dim] + [Fraction(0)] * max(0, u.dim - len(coeffs))
        v = [Fraction(0)] * u.ambient_dim
        for c, row in zip(coeffs, u.basis_rows):
            for idx, x in enumerate(row):
                v[idx] += c * x
        assert u.contains(v)


def test_rank_of_rectangular():
    assert rref(matrix_of([[1, 2, 3], [2, 4, 6]])).dim == 1


def _entries(result) -> list:
    if isinstance(result, Subspace):
        return [x for row in result.basis_rows for x in row]
    if isinstance(result, Matrix):
        return [x for row in result.entries for x in row]
    return []


INT_ROWS = ([[3, 1]], [[2, 1], [1, 1]], [[0, 2, 1], [3, 0, 5]])


def rank(m: Matrix) -> int:
    """The rank of m: the dimension of its row space."""
    return rref(m).dim


@pytest.mark.parametrize("op,rows", [(op, rows) for op in (rref, kernel, rank) for rows in INT_ROWS]
                         + [(invert, [[2, 1], [1, 1]]), (invert, [[1, 2], [3, 4]])])
def test_int_entries_reduce_exactly(op, rows):
    # a Matrix built directly may hold ints; int / int would make floats
    ints = Matrix(len(rows), len(rows[0]), tuple(tuple(r) for r in rows))
    result = op(ints)
    assert result == op(matrix_of(rows))
    assert all(type(x) is int or type(x) is Fraction for x in _entries(result))


@st.composite
def split_rows(draw):
    """(rows, cols, split): int or Fraction rows, not all pivots units, and
    a split anywhere from no column to all of them."""
    entries = draw(st.sampled_from([st.integers(-4, 4), fracs]))
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=6))
    return rows, cols, draw(st.integers(0, cols))


class TestEchelon:
    """Forward elimination over the first ``split`` columns, against the
    pivots of ``_reduce``'s RREF."""

    @given(split_rows())
    def test_rank_and_first_pivot_past_the_split(self, case):
        rows, cols, split = case
        reduced, pivots = exactlin._reduce(rows, cols)
        rank, left = exactlin._echelon(rows, split)
        assert rank == sum(p < split for p in pivots)
        assert len(left) == len(rows) - rank
        assert not any(x for row in left for x in row[:split])
        leads = [next(c for c, x in enumerate(row) if x) for row in left if any(row)]
        assert min(leads, default=None) == next((p for p in pivots if p >= split), None)
        # the rows left over span the row space's vectors that are zero before the split
        assert span(left, cols) == span([r for r, p in zip(reduced, pivots) if p >= split], cols)
        assert all(type(x) is int or type(x) is Fraction for row in left for x in row)

    def test_unit_pivots_stay_int(self):
        rank, left = exactlin._echelon([[-1, 1, 2], [1, 0, 1], [0, 1, 5]], 2)
        assert (rank, left) == (2, [[0, 0, 2]])
        assert all(type(x) is int for row in left for x in row)


class TestReducedSubspaces:
    """Subspaces built from ``_reduce`` and ``Subspace.full`` skip the RREF
    re-check, which the public constructor keeps for everyone else."""

    @given(matrices(min_rows=1), st.data())
    def test_public_constructor_accepts_every_result(self, m, data):
        u = data.draw(subspaces(ambient=m.cols))
        v = data.draw(subspaces(ambient=m.cols))
        results = (span(m.entries, m.cols), rref(m), kernel(m), intersect(u, v), subspace_sum(u, v))
        for s in results:
            checked = Subspace(s.ambient_dim, s.basis_rows)
            assert checked == s
            assert checked.pivots == s.pivots

    def test_public_constructor_accepts_every_full_space(self):
        for n in range(25):
            full = Subspace.full(n)
            checked = Subspace(n, full.basis_rows)
            assert checked == full and checked.pivots == full.pivots == tuple(range(n))

    @pytest.mark.parametrize("rows,message", [
        ([[0, 0]], "zero row"),
        ([[2, 0]], "reduced row echelon"),
        ([[1, 1], [0, 1]], "not cleared"),
        ([[1, 0, 0]], "length"),
    ], ids=["zero-row", "pivot-not-one", "pivot-column-not-cleared", "wrong-length"])
    def test_public_constructor_rejects_what_is_not_rref(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Subspace(2, tuple(vec(r) for r in rows))


KERNEL_ENTRIES = (0, 0, 0, 1, -1, 2, Fraction(1, 3), -3)


class TestKernelInOneElimination:
    """``kernel`` reads the RREF basis of the null space off one elimination
    of f with its columns reversed."""

    def test_matches_the_two_pass_kernel(self, kernel_reference):
        rng = random.Random(14)
        cases = [Matrix(0, 0, ()), Matrix(0, 3, ()), Matrix(2, 0, ((), ())),
                 matrix_of([[0]]), matrix_of([[0] * 4] * 3)]
        for _ in range(3000):
            rows, cols = rng.randint(0, 6), rng.randint(1, 6)
            cases.append(Matrix(rows, cols, tuple(tuple(rng.choice(KERNEL_ENTRIES) for _ in range(cols))
                                                  for _ in range(rows))))
        for m in cases:
            k = kernel(m)
            assert k == kernel_reference(m), m
            assert k.pivots == Subspace(k.ambient_dim, k.basis_rows).pivots
            assert k.dim + rref(m).dim == m.cols
            assert not any(x for row in k.basis_rows for x in m.apply(row))

    def test_one_elimination_per_call(self, record_calls):
        calls = record_calls(exactlin, "_reduce")
        k = kernel(matrix_of([[1, 2, 0, 1], [0, 0, 1, Fraction(1, 3)]]))
        assert len(calls) == 1
        assert k.dim == 2


MEET_ENTRIES = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5))


class TestIntersectThroughConstraintRows:
    """``intersect`` solves for the combinations of u's basis on which v's
    constraint rows vanish, and reads the meet off one elimination; it
    gives exactly the basis of the Zassenhaus block it replaced."""

    @staticmethod
    def assert_matches(u, v, meet, intersect_reference):
        expected = intersect_reference(u, v)
        assert meet.basis_rows == expected.basis_rows, (u.basis_rows, v.basis_rows)
        assert meet.pivots == expected.pivots
        assert (meet is u) == (expected.dim == u.dim)

    @pytest.fixture
    def checked_meets(self, monkeypatch, intersect_reference):
        """Every meet the library takes, checked against the reference as it
        is taken, so that a wrong one fails before it feeds a closure."""
        calls = []

        def checked(u, v):
            calls.append((u, v))
            meet = intersect(u, v)
            self.assert_matches(u, v, meet, intersect_reference)
            return meet

        monkeypatch.setattr(lattice, "intersect", checked)
        return calls

    def test_matches_on_every_meet_of_the_families(self, checked_meets, rebased_families, monkeypatch):
        # the count lists coordinate kernels on masks; withheld, every meet
        # of every piece runs through intersect, as it does for a rebased one
        monkeypatch.setattr(lattice, "_pivot_masks", lambda gens: None)
        families = [dualize(random_gluing(seed)) for seed in range(200)]
        families += [fixture_family(name, chain) for name in ("example1", "example2", "example3")
                     for chain in (3, 8, 24)]
        families += [f for _, fam, rebased in rebased_families for f in (fam, rebased)]
        for fam in families:
            check_distributive_family(fam)
            try:
                repair(fam)
            except RepairRefused:
                pass
        assert len(checked_meets) > 5000

    def test_matches_on_every_meet_of_a_closure(self, checked_meets, three_line_family):
        gens = [three_line_family.map_kernels[("P1", j)] for j in ("P2", "P3", "P4")]
        closure = generate_lattice(gens)
        assert closure.complete and len(closure.elements) == 5
        assert len(checked_meets) == 10  # one per pair of the five elements

    def test_matches_on_random_rational_pairs(self, intersect_reference):
        rng = random.Random(16)

        def subspace(n):
            return span([[rng.choice(MEET_ENTRIES) for _ in range(n)]
                         for _ in range(rng.randint(0, n + 1))], n)

        pairs = []
        for n in range(8):
            zero, full = Subspace.zero(n), Subspace.full(n)
            pairs += [(zero, zero), (zero, full), (full, zero), (full, full)]
        for _ in range(3000):
            n = rng.randint(0, 7)
            u, v = subspace(n), subspace(n)
            both = subspace_sum(u, v)
            # nested pairs, whose meet is the smaller one: u inside u + v, the
            # meet of u and v inside v, and v inside u + v
            pairs += [(u, v), (u, both), (both, v), (intersect_reference(u, v), v)]
        for u, v in pairs:
            self.assert_matches(u, v, intersect(u, v), intersect_reference)

    def test_one_elimination_and_none_for_a_subspace(self, record_calls):
        u = span([[1, 0, 0], [0, 1, 0]], 3)
        v = span([[0, 1, 1], [1, 0, 0]], 3)
        line = span([[1, 0, 0]], 3)
        calls = record_calls(exactlin, "_reduce")
        meet = intersect(u, v)
        assert len(calls) == 1
        assert meet == line
        assert intersect(meet, v) is meet
        assert len(calls) == 1
