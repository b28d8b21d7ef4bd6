"""``exactlin`` against sympy's exact matrices.

The inputs mix ``int`` and ``Fraction`` entries, and each row is scaled by
a factor other than 1 or -1, so most pivots are not units and the one
division in ``_reduce`` runs.  sympy is only a test dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gluecheck.exactlin import Matrix, intersect, invert, kernel, span

sympy = pytest.importorskip("sympy")

scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
factors = st.sampled_from([2, -3, 5, Fraction(2, 3), Fraction(-7, 2)])


@st.composite
def matrices(draw, square=False, cols=None):
    rows = draw(st.integers(1, 4))
    if cols is None:
        cols = rows if square else draw(st.integers(1, 4))
    entries = []
    for _ in range(rows):
        factor = draw(factors)
        entries.append(tuple(x * factor for x in draw(st.lists(scalars, min_size=cols, max_size=cols))))
    return Matrix(rows, cols, tuple(entries))


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.entries for x in row])


def from_sympy_rows(s) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(int(x.p), int(x.q)) for x in s.row(i)) for i in range(s.rows)]


def assert_exact(rows):
    assert all(type(x) is int or type(x) is Fraction for row in rows for x in row)


@given(matrices())
@settings(deadline=None)
def test_rref_matches_sympy(m):
    reduced, pivots = to_sympy(m).rref()
    ours = span(m.entries, m.cols)
    assert list(ours.basis_rows) == from_sympy_rows(reduced)[:len(pivots)]
    assert ours.pivots == pivots
    assert_exact(ours.basis_rows)


@given(matrices())
@settings(deadline=None)
def test_kernel_matches_sympy_nullspace(m):
    null = to_sympy(m).nullspace()
    ours = kernel(m)
    if not null:
        assert ours.dim == 0
        return
    reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
    assert list(ours.basis_rows) == from_sympy_rows(reduced)[:len(pivots)]
    assert_exact(ours.basis_rows)


@given(matrices())
@settings(deadline=None)
def test_rank_matches_sympy(m):
    assert span(m.entries, m.cols).dim == to_sympy(m).rank()


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(matrices(cols=n), matrices(cols=n))))
@settings(deadline=None)
def test_intersect_matches_sympy(pair):
    a, b = pair
    meet = intersect(span(a.entries, a.cols), span(b.entries, b.cols))
    u, v = to_sympy(a), to_sympy(b)
    assert meet.dim == u.rank() + v.rank() - sympy.Matrix.vstack(u, v).rank()
    for row in meet.basis_rows:
        x = to_sympy(Matrix(1, a.cols, (row,)))
        assert sympy.Matrix.vstack(u, x).rank() == u.rank()
        assert sympy.Matrix.vstack(v, x).rank() == v.rank()
    assert_exact(meet.basis_rows)


@given(matrices(square=True))
@settings(deadline=None)
def test_invert_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert(m)
        return
    ours = invert(m)
    assert list(ours.entries) == from_sympy_rows(s.inv())
    assert_exact(ours.entries)
