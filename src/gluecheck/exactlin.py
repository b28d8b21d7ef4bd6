"""Exact linear algebra over the rationals.

Vectors are tuples of exact scalars: an ``int`` for every integral entry,
and a ``Fraction`` only where an elimination scales a row by its pivot's
inverse, ``_reduce``'s being the one division in the package; a matrix
acts on column vectors by left multiplication.  A subspace of Q^n is
stored as the reduced row echelon basis of its row space, with no zero
rows.  RREF is the canonical form: ``Fraction(1) == 1`` and both hash
alike, so two subspaces are equal exactly when their fields compare
equal, and no epsilon appears anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

F0 = 0
F1 = 1

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def scalar(value) -> Scalar:
    """An exact scalar for a 'p/q' string, a bool or another rational: the
    ``int`` when its denominator is 1, else the ``Fraction``."""
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def vec(values: Iterable) -> Vector:
    """A vector of the values: ``int`` and ``Fraction`` entries as they are,
    anything else through ``scalar``."""
    return tuple(v if type(v) is int or type(v) is Fraction else scalar(v) for v in values)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix; ``entries[i][j]`` is row i, column j."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(r)}")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple((F0,) * i + (F1,) + (F0,) * (n - 1 - i) for i in range(n)))

    def columns(self) -> tuple[Vector, ...]:
        """Every column, in one pass over the rows."""
        return tuple(zip(*self.entries)) if self.rows else ((),) * self.cols

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product (v as a column vector)."""
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} does not match {self.cols} columns")
        out = []
        for r in self.entries:
            acc = F0
            for c, x in zip(r, v):
                if c and x:
                    acc += c * x
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """self @ other, as composition of linear maps."""
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        out = []
        for r in self.entries:
            acc = [F0] * other.cols
            for k, c in enumerate(r):
                if c:
                    for j, x in enumerate(other.entries[k]):
                        if x:
                            acc[j] += c * x
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _reduce(rows: Iterable[Sequence[Scalar]], cols: int) -> tuple[list[Vector], list[int]]:
    """Gauss-Jordan elimination; returns (nonzero RREF rows, pivot columns).

    The rows must hold exact scalars.  Scaling a row by its pivot's inverse
    is the one division: an ``int`` pivot gives ``Fraction(1, head)``, so
    ``int / int`` never makes a float.  A pivot of 1 or -1 needs none, so
    0/1 matrices, whose pivots almost always are, reduce in ``int``.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        head = m[r][c]
        if head == -1:
            m[r] = [-x for x in m[r]]
        elif head != 1:
            inv = Fraction(1, head) if type(head) is int else 1 / head
            m[r] = [x * inv if x else x for x in m[r]]
        lead = m[r]
        lead_nz = [(j, lead[j]) for j in range(c, cols) if lead[j]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                mi = m[i]
                for j, lv in lead_nz:
                    mi[j] -= f * lv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def _echelon(rows: Iterable[Sequence[Scalar]], split: int) -> tuple[int, list[list[Scalar]]]:
    """Forward elimination over the first ``split`` columns; returns the rank
    there and the rows left over.

    The rows left over are zero in the first ``split`` columns and span the
    vectors of the row space that are, so the least column at which one of
    them is nonzero is the first pivot at or past ``split`` of the RREF.
    There is no back-substitution, and the other columns are not reduced.
    Each pivot row is scaled by its pivot's inverse, as in ``_reduce``, so
    entries stay bounded; ``Fraction(1, head)`` inverts a ``Fraction``
    pivot as well as an ``int`` one.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    r = 0
    for c in range(split):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        lead = m[r]
        head = lead[c]
        lead_nz = [(j, lead[j]) for j in range(c, len(lead)) if lead[j]]
        if head != 1:
            inv = -1 if head == -1 else Fraction(1, head)
            lead_nz = [(j, x * inv) for j, x in lead_nz]
        for i in range(r + 1, nrows):
            mi = m[i]
            f = mi[c]
            if f:
                for j, lv in lead_nz:
                    mi[j] -= f * lv
        r += 1
    return r, m[r:]


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim in canonical (RREF) form.

    Equality of the dataclass fields is equality of subspaces, and the
    tuples are hashable, so subspaces can live in sets and dict keys.
    """

    ambient_dim: int
    basis_rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        """Reject a basis that is not in RREF; ``_reduce``'s output skips this."""
        pivots = []
        prev = -1
        for i, row in enumerate(self.basis_rows):
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length does not match the ambient dimension")
            p = next((j for j, x in enumerate(row) if x), None)
            if p is None:
                raise ValueError("zero row in a subspace basis")
            if p <= prev or row[p] != 1:
                raise ValueError("basis rows are not in reduced row echelon form")
            for other in self.basis_rows[:i]:
                if other[p]:
                    raise ValueError("pivot column is not cleared above")
            pivots.append(p)
            prev = p
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.ambient_dim, self.basis_rows))
            object.__setattr__(self, "_hash", h)
        return h

    def _constraints(self) -> tuple[Vector, ...]:
        """The rows cutting the subspace out: for each non-pivot column q,
        e_q minus column q's entries at the pivots.  Computed once, like
        the hash."""
        rows = self.__dict__.get("_constraint_rows")
        if rows is None:
            n = self.ambient_dim
            pivots = self._pivots
            rows = []
            for q in range(n):
                if q in pivots:
                    continue
                row = [F0] * n
                row[q] = F1
                for b, p in zip(self.basis_rows, pivots):
                    if b[q]:
                        row[p] = -b[q]
                rows.append(tuple(row))
            rows = tuple(rows)
            object.__setattr__(self, "_constraint_rows", rows)
        return rows

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _reduced_subspace(ambient_dim, Matrix.identity(ambient_dim).entries, range(ambient_dim))

    def _residual(self, v: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
        """Reduce v against the basis; returns (coefficients, remainder)."""
        rem = list(v)
        coeffs = []
        for row, p in zip(self.basis_rows, self._pivots):
            c = rem[p]
            coeffs.append(c)
            if c:
                for j, x in enumerate(row):
                    if x:
                        rem[j] -= c * x
        return coeffs, rem

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        _, rem = self._residual(v)
        return not any(rem)

    def coordinates_of(self, v: Sequence[Scalar]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if v lies outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        coeffs, rem = self._residual(v)
        if any(rem):
            return None
        return tuple(coeffs)

    def __str__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _reduced_subspace(ambient_dim: int, rows: Sequence[Vector], pivots: Iterable[int]) -> Subspace:
    """The Subspace with these rows, RREF by construction, and pivots as its
    basis, without the public constructor's re-check; the test suite checks
    that it would pass."""
    s = object.__new__(Subspace)
    s.__dict__.update(ambient_dim=ambient_dim, basis_rows=tuple(rows), _pivots=tuple(pivots))
    return s


def _span(rows: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """``span`` for rows already exact and of length ``ambient_dim``."""
    return _reduced_subspace(ambient_dim, *_reduce(rows, ambient_dim))


def span(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """Canonical basis of the span of the given vectors."""
    rows = [vec(v) for v in vectors]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("generator length does not match the ambient dimension")
    return _span(rows, ambient_dim)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Smallest subspace containing both u and v."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _span(u.basis_rows + v.basis_rows, u.ambient_dim)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest subspace contained in both u and v, from v's constraint rows.

    A combination x = sum a_t u_t of u's basis lies in v exactly when each
    constraint row of v vanishes on it, so the coefficient vectors a are the
    null space of the matrix applying those rows to u's basis, read off one
    elimination as ``kernel`` reads it.  When every row vanishes on u, u is
    the meet.  Otherwise the RREF null vector a of pivot f has a 1 at f, 0
    left of f and 0 at the other pivots; u_t has its pivot at
    ``u.pivots[t]`` and zeros at u's other pivots, so x has a_t at
    ``u.pivots[t]`` and zeros left of ``u.pivots[f]``.  The x are thus
    already the RREF basis of the meet, with pivots ``u.pivots[f]``.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    k = u.dim
    basis = u.basis_rows
    applied = []
    for constraint in v._constraints():
        nz = [(j, x) for j, x in enumerate(constraint) if x]
        applied.append([sum([x * row[j] for j, x in nz if row[j]]) for row in reversed(basis)])
    if not any(map(any, applied)):
        return u
    rows, free = _null_space(applied, k)
    meet = []
    for a, f in zip(rows, free):
        x = list(basis[f])
        for t in range(f + 1, k):
            c = a[t]
            if c:
                for j, y in enumerate(basis[t]):
                    if y:
                        x[j] += c * y
        meet.append(tuple(x))
    return _reduced_subspace(u.ambient_dim, meet, [u.pivots[f] for f in free])


def image(f: Matrix, u: Subspace) -> Subspace:
    """Image of the subspace u under the map f."""
    if f.cols != u.ambient_dim:
        raise ValueError("map domain does not match the subspace ambient dimension")
    return _span([f.apply(row) for row in u.basis_rows], f.rows)


def _null_space(reversed_rows: Sequence[Sequence[Scalar]], n: int) -> tuple[list[Vector], list[int]]:
    """The RREF basis of the null space of an n-column matrix, given its
    rows with their columns reversed, and the basis's pivots.

    The null vector of a free reversed column c has its 1 at column n-1-c
    and its other entries at pivot columns to the right of it, so taken in
    ascending n-1-c these vectors are already the RREF basis, with the free
    columns as its pivots.
    """
    reduced, pivots = _reduce(reversed_rows, n)
    pivot_set = set(pivots)
    rows = []
    free = []
    for c in range(n - 1, -1, -1):
        if c in pivot_set:
            continue
        v = [F0] * n
        v[n - 1 - c] = F1
        for row, p in zip(reduced, pivots):
            if row[c]:
                v[n - 1 - p] = -row[c]
        rows.append(tuple(v))
        free.append(n - 1 - c)
    return rows, free


def kernel(f: Matrix) -> Subspace:
    """Null space of f, in one elimination of f with its columns reversed."""
    return _reduced_subspace(f.cols, *_null_space([r[::-1] for r in f.entries], f.cols))


@dataclass(frozen=True)
class QuotientChart:
    """Coordinates for Q^n modulo a subspace.

    ``projection`` maps Q^n onto Q^(n-k) with kernel exactly the subspace;
    ``section`` is a right inverse picking the non-pivot coordinates of the
    subspace's RREF as the chart, so the chart is deterministic.
    """

    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient(ambient_dim: int, v: Subspace) -> QuotientChart:
    if v.ambient_dim != ambient_dim:
        raise ValueError("subspace ambient dimension does not match")
    proj_rows = v._constraints()
    chart_cols = [c for c in range(ambient_dim) if c not in set(v.pivots)]
    k = len(chart_cols)
    section_rows = []
    for r in range(ambient_dim):
        row = [F0] * k
        if r in chart_cols:
            row[chart_cols.index(r)] = F1
        section_rows.append(tuple(row))
    return QuotientChart(Matrix(k, ambient_dim, proj_rows), Matrix(ambient_dim, k, tuple(section_rows)))


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = [list(row) + [F1 if i == j else F0 for j in range(n)] for i, row in enumerate(m.entries)]
    reduced, pivots = _reduce(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(tuple(row[n:]) for row in reduced))
