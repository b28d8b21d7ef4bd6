"""Finite-dimensional unital associative algebras over Q.

An algebra is presented by structure constants, stored sparse:
``products[a][b]`` lists the nonzero coordinates ``(k, t)`` of e_a e_b in
increasing k, and the validators read basis products from them.
Homomorphisms are matrices that are checked, never assumed, to be
multiplicative and unital.
Zero-dimensional algebras are legal everywhere; they show up as quotients
by the whole algebra and as overlap algebras of empty identifications.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from gluecheck.exactlin import F0, F1, Matrix, Scalar, Subspace, Vector, kernel, quotient, vec
from gluecheck.unionfind import PointIndex, _numbered

SparseVector = tuple[tuple[int, Scalar], ...]


def _sparse(v: Sequence[Scalar]) -> SparseVector:
    return tuple((k, t) for k, t in enumerate(v) if t)


def _is_sparse(v: SparseVector, dim: int) -> bool:
    """Whether v lists nonzero coordinates below dim in increasing order."""
    ks = [k for k, t in v if t]
    return len(ks) == len(v) and ks == sorted(set(ks)) and all(0 <= k < dim for k in ks)


def _combine(terms: Iterable[tuple[Scalar, SparseVector]], dim: int) -> Vector:
    """The dense vector sum of c * v over the (c, v) in terms."""
    acc = [F0] * dim
    for c, v in terms:
        for k, t in v:
            acc[k] += c * t
    return tuple(acc)


def _sparse_sum(terms: Iterable[tuple[Scalar, SparseVector]]) -> dict[int, Scalar]:
    """The nonzero coordinates k: t of the sum of c * v over the (c, v) in terms."""
    acc: dict[int, Scalar] = {}
    for c, v in terms:
        for k, t in v:
            acc[k] = acc.get(k, F0) + c * t
    return {k: t for k, t in acc.items() if t}


@dataclass(frozen=True)
class Algebra:
    """Unital associative algebra; ``products`` is the one stored form of its
    structure constants."""

    dim: int
    products: tuple[tuple[SparseVector, ...], ...]
    unit: Vector
    label: str = ""

    def __post_init__(self) -> None:
        d = self.dim
        if len(self.products) != d or len(self.unit) != d or not all(
            len(row) == d and all(_is_sparse(v, d) for v in row) for row in self.products
        ):
            raise ValueError("structure constants do not match the dimension")

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """The support mask of each product row: bit b of entry a is set
        when e_a e_b != 0.  Computed once, for every validator that reads it."""
        return tuple(_mask(itertools.compress(range(self.dim), row)) for row in self.products)

    def multiply(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear product of coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        ys = _sparse(y)
        return _combine(
            ((xa * yb, self.products[a][b]) for a, xa in _sparse(x) for b, yb in ys), self.dim
        )

    @staticmethod
    def from_table(table: Sequence[Sequence[Sequence]], unit: Sequence, label: str = "") -> "Algebra":
        """Presentation from dense constants, ``table[a][b]`` being e_a e_b."""
        d = len(table)
        if not all(len(row) == d and all(len(v) == d for v in row) for row in table):
            raise ValueError("structure constants do not match the dimension")
        products = tuple(tuple(_sparse(vec(v)) for v in row) for row in table)
        return Algebra(d, products, vec(unit), label)

    @staticmethod
    def functions(points: int | Sequence[str], label: str = "") -> "Algebra":
        """Function algebra Q^X with pointwise product and all-ones unit."""
        n = points if isinstance(points, int) else len(points)
        if n < 0:
            raise ValueError("the number of points must not be negative")
        products = tuple(tuple(((a, F1),) if a == b else () for b in range(n)) for a in range(n))
        return _sparse_algebra(n, products, (F1,) * n, label)

    @staticmethod
    def zero(label: str = "") -> "Algebra":
        return Algebra(0, (), (), label)

    @staticmethod
    def direct_sum(parts: Sequence["Algebra"], label: str = "") -> "Algebra":
        """Product algebra on the concatenated coordinates."""
        n = sum(p.dim for p in parts)
        products = []
        off = 0
        for p in parts:
            before, after = ((),) * off, ((),) * (n - off - p.dim)
            for row in p.products:
                products.append(before + tuple(tuple((off + k, t) for k, t in v) for v in row) + after)
            off += p.dim
        unit = tuple(u for p in parts for u in p.unit)
        return Algebra(n, tuple(products), unit, label)


def _sparse_algebra(dim: int, products: tuple[tuple[SparseVector, ...], ...], unit: Vector,
                    label: str) -> Algebra:
    """The Algebra with these products, built without the public
    constructor's re-check: the document parser and ``Algebra.functions``
    make every vector sparse and every row of length dim by construction,
    and the test suite checks that the constructor accepts what they build."""
    a = object.__new__(Algebra)
    a.__dict__.update(dim=dim, products=products, unit=unit, label=label)
    return a


@dataclass(frozen=True)
class Violation:
    """First axiom failure found by a validator."""

    kind: str
    where: tuple
    message: str


def _mask(keys: Iterable[int]) -> int:
    """The int with bit k set for each k in keys."""
    m = 0
    for k in keys:
        m |= 1 << k
    return m


def _bits(m: int) -> list[int]:
    """The set bits of m, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def validate_algebra(a: Algebra) -> Violation | None:
    """Check two-sided unitality and associativity on basis triples.

    Products are read from the constants T: (e_i e_j) e_k is the sum over l
    of T_ij^l T_lk, and e_i (e_j e_k) the sum of T_jk^l T_il.  Only triples
    where one side can be nonzero are visited, in the order (i, j, k), so
    the first violation is the one a visit of every triple finds.
    """
    d, prods, rows, unit = a.dim, a.products, a.supports, a.unit
    support = [_bits(r) for r in rows]  # support[l]: the k with e_l e_k != 0, decoded once
    # the unit check sums only the nonzero products: held_into[i] lists the
    # m with u_m != 0 and e_m e_i != 0
    held_into: list[list[int]] = [[] for _ in range(d)]
    for m, u in enumerate(unit):
        if u:
            for i in support[m]:
                held_into[i].append(m)
    for i in range(d):
        e = {i: F1}
        if _sparse_sum((unit[m], prods[m][i]) for m in held_into[i]) != e:
            return Violation("unit", (i,), f"unit * e_{i} != e_{i}")
        if _sparse_sum((unit[m], prods[i][m]) for m in support[i] if unit[m]) != e:
            return Violation("unit", (i,), f"e_{i} * unit != e_{i}")
    # rows[l]: the k with e_l e_k != 0, as a mask; through[j][l]: the k with
    # e_l in e_j e_k; reach[l]: the j with e_l in some e_j e_k
    through: list[dict[int, int]] = [{} for _ in range(d)]
    reach = [0] * d
    for j, row in enumerate(prods):
        for k in support[j]:
            for l, _ in row[k]:
                through[j][l] = through[j].get(l, 0) | 1 << k
                reach[l] |= 1 << j
    for i in range(d):
        row_i, live = prods[i], rows[i]
        js = live
        for l in support[i]:
            js |= reach[l]
        for j in _bits(js):
            left = row_i[j]
            # (e_i e_j) e_k needs some l in e_i e_j with e_l e_k != 0, and
            # e_i (e_j e_k) some l in e_j e_k with e_i e_l != 0
            ks = 0
            for l, _ in left:
                ks |= rows[l]
            for l, m in through[j].items():
                if live >> l & 1:
                    ks |= m
            for k in _bits(ks):
                # the nonzero coordinates of (e_i e_j) e_k - e_i (e_j e_k)
                acc: dict[int, Scalar] = {}
                for l, c in left:
                    for m, t in prods[l][k]:
                        acc[m] = acc.get(m, F0) + c * t
                for l, c in prods[j][k]:
                    for m, t in row_i[l]:
                        acc[m] = acc.get(m, F0) - c * t
                if any(acc.values()):
                    return Violation(
                        "associativity", (i, j, k), f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})"
                    )
    return None


@dataclass(frozen=True)
class AlgebraHom:
    """Linear map between algebras, stored as a target.dim x source.dim matrix."""

    source: Algebra
    target: Algebra
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError(
                f"hom matrix is {self.matrix.rows}x{self.matrix.cols}, "
                f"expected {self.target.dim}x{self.source.dim}"
            )

    def apply(self, v: Sequence[Scalar]) -> Vector:
        return self.matrix.apply(v)


def validate_hom(f: AlgebraHom) -> Violation | None:
    """Check that the unit maps to the unit, and multiplicativity on the
    basis pairs (a, b) where e_a e_b != 0 or both f(e_a) and f(e_b) are
    nonzero: on every other pair both sides vanish."""
    if f.matrix.apply(f.source.unit) != f.target.unit:
        return Violation("hom-unit", (), "unit does not map to the unit")
    prods = f.target.products
    cols = [_sparse(c) for c in f.matrix.columns()]
    live = _mask(a for a, c in enumerate(cols) if c)
    for a, (row, bs) in enumerate(zip(f.source.products, f.source.supports)):
        if live >> a & 1:
            bs |= live
        for b in _bits(bs):
            # the nonzero coordinates of f(e_a e_b) - f(e_a) f(e_b), summed
            # inline: a shared helper fed by generators costs half again as much
            acc: dict[int, Scalar] = {}
            for k, t in row[b]:
                for m, x in cols[k]:
                    acc[m] = acc.get(m, F0) + t * x
            for p, x in cols[a]:
                for q, y in cols[b]:
                    for m, t in prods[p][q]:
                        acc[m] = acc.get(m, F0) - x * y * t
            if any(acc.values()):
                return Violation(
                    "hom-multiplicative", (a, b), f"f(e_{a} e_{b}) != f(e_{a}) f(e_{b})"
                )
    return None


def _onto(f: AlgebraHom, ker: Subspace) -> bool:
    """Whether f is onto, given its kernel: its image has dimension source.dim - ker.dim."""
    return ker.dim == f.source.dim - f.target.dim


def is_ideal(a: Algebra, s: Subspace) -> bool:
    """Closure of s under left and right multiplication by every basis vector."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace does not live in the algebra's coordinates")
    prods = a.products
    rows = [_sparse(r) for r in s.basis_rows]
    for i in range(a.dim):
        for row in rows:
            if not s.contains(_combine(((x, prods[i][b]) for b, x in row), a.dim)):
                return False
            if not s.contains(_combine(((x, prods[b][i]) for b, x in row), a.dim)):
                return False
    return True


def kernel_ideal(f: AlgebraHom) -> Subspace:
    """Kernel of a hom, asserted to be an ideal as a self-check."""
    k = kernel(f.matrix)
    if not is_ideal(f.source, k):
        raise RuntimeError("kernel of a homomorphism failed the ideal check; input is corrupt")
    return k


def quotient_algebra(a: Algebra, ideal: Subspace, label: str = "") -> tuple[Algebra, AlgebraHom]:
    """Quotient presentation and its canonical surjection.

    The chart picks the non-pivot coordinates of the ideal's RREF, so equal
    ideals always yield bit-identical quotient presentations.  Raises
    ValueError unless the subspace is a two-sided ideal; given one, the
    surjection is a homomorphism with kernel the ideal, which the test
    suite checks rather than each call.
    """
    if not is_ideal(a, ideal):
        raise ValueError("subspace is not a two-sided ideal")
    chart = quotient(a.dim, ideal)
    q = _quotient_presentation(a, chart.projection, chart.section,
                               label or (a.label + "/ideal" if a.label else ""))
    return q, AlgebraHom(a, q, chart.projection)


def _quotient_presentation(a: Algebra, proj: Matrix, lifts: Matrix, label: str) -> Algebra:
    """The algebra that a hom ``proj`` out of a maps onto, on the basis whose
    x-th vector lifts to column x of ``lifts``: e_x e_y = proj(lift_x lift_y)
    and the unit is proj(1)."""
    cols = lifts.columns()
    table = [[proj.apply(a.multiply(x, y)) for y in cols] for x in cols]
    return Algebra.from_table(table, proj.apply(a.unit), label)


def subspace_algebra(ambient: Algebra, s: Subspace, label: str = "") -> Algebra:
    """Induced presentation on a subspace closed under the ambient product.

    Raises ValueError when the subspace misses the unit or is not closed;
    the test suite builds a pullback's induced algebra with it.
    """
    if s.ambient_dim != ambient.dim:
        raise ValueError("subspace does not live in the ambient coordinates")
    unit_coords = s.coordinates_of(ambient.unit)
    if unit_coords is None:
        raise ValueError("subspace does not contain the unit")
    rows = s.basis_rows
    table = [[s.coordinates_of(ambient.multiply(x, y)) for y in rows] for x in rows]
    if any(None in row for row in table):
        raise ValueError("subspace is not closed under the product")
    return Algebra.from_table(table, unit_coords, label)


def pair_key(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class FamilyProblem:
    kind: str
    where: tuple
    message: str


class FamilyValidationError(ValueError):
    def __init__(self, problems: Sequence[FamilyProblem]):
        self.problems = tuple(problems)
        super().__init__("; ".join(p.message for p in problems))


@dataclass(frozen=True, eq=True)
class GluingFamily:
    """Pieces B_i, shared overlaps B_ij = B_ji, and maps B_i -> B_ij.

    ``maps[(i, j)]`` is the hom out of piece i into the overlap of {i, j};
    both directions target the same overlap object by construction.
    Families are immutable by convention, so what is derived from one (its
    validation, the kernels of its maps and their adapted bases, the
    nonzeros of its maps' rows, its coordinate index and the roots of each
    label subset, its pullbacks and extension entries) is computed once
    and kept on it.
    """

    labels: tuple[str, ...]
    pieces: Mapping[str, Algebra]
    overlaps: Mapping[tuple[str, str], Algebra]
    maps: Mapping[tuple[str, str], AlgebraHom]

    def overlap(self, i: str, j: str) -> Algebra:
        return self.overlaps[pair_key(i, j)]

    def map(self, i: str, j: str) -> AlgebraHom:
        return self.maps[(i, j)]

    @cached_property
    def map_kernels(self) -> Mapping[tuple[str, str], Subspace]:
        return {key: kernel(h.matrix) for key, h in self.maps.items()}

    @cached_property
    def map_rows(self) -> Mapping[tuple[str, str], tuple[SparseVector, ...]]:
        """Each map's rows as their nonzeros, once per family (``_map_rows``):
        row r of m_ij and of m_ji make the pullback's constraint row r of
        the pair {i, j}."""
        return _map_rows(self)

    @cached_property
    def coordinate_index(self) -> PointIndex | None:
        """The pieces' coordinates numbered in label order, with the pairs
        (column of row r of m_ij, column of row r of m_ji), when every row
        of every map is a single 1 (``_coordinate_index``); else None."""
        return _coordinate_index(self)

    @cached_property
    def subset_roots(self) -> dict:
        """Memo of ``_union_find`` over ``coordinate_index``, keyed by the
        chosen labels in label order."""
        return {}

    @cached_property
    def pullbacks(self) -> dict:
        """Memo of ``multipullback.build_pullback``, keyed by label subset."""
        return {}

    @cached_property
    def kernel_blocks(self) -> dict:
        """The blocks of an adapted basis of each piece's kernels, keyed by
        piece, kernels named by label, filled by
        ``lattice.check_distributive_family``."""
        return {}

    @cached_property
    def extension_entries(self) -> dict:
        """Memo of ``multipullback._extension_entry``, keyed by (label subset, k)."""
        return {}

    def problems(self, require_surjective: bool = True) -> list[FamilyProblem]:
        """Axiom and shape problems, and unless told otherwise the maps that are not onto."""
        return [p for p in self._problems if require_surjective or p.kind != "map-not-surjective"]

    @cached_property
    def _problems(self) -> tuple[FamilyProblem, ...]:
        out: list[FamilyProblem] = []
        if len(set(self.labels)) != len(self.labels):
            out.append(FamilyProblem("labels", (), "duplicate piece labels"))
            return tuple(out)
        for i in self.labels:
            if i not in self.pieces:
                out.append(FamilyProblem("missing-piece", (i,), f"no algebra for piece {i}"))
                return tuple(out)
            bad = validate_algebra(self.pieces[i])
            if bad is not None:
                out.append(FamilyProblem("piece-axioms", (i,), f"piece {i}: {bad.message}"))
        for i, j in itertools.combinations(sorted(self.labels), 2):
            key = pair_key(i, j)
            if key not in self.overlaps:
                out.append(FamilyProblem("missing-overlap", key, f"no overlap algebra for {key}"))
                continue
            bad = validate_algebra(self.overlaps[key])
            if bad is not None:
                out.append(FamilyProblem("overlap-axioms", key, f"overlap {key}: {bad.message}"))
        if out:
            return tuple(out)
        for i in self.labels:
            for j in self.labels:
                if i == j:
                    continue
                if (i, j) not in self.maps:
                    out.append(FamilyProblem("missing-map", (i, j), f"no map for ({i}, {j})"))
                    continue
                h = self.maps[(i, j)]
                if h.source != self.pieces[i]:
                    out.append(FamilyProblem("map-source", (i, j), f"map ({i}, {j}) has the wrong source"))
                    continue
                if h.target != self.overlap(i, j):
                    out.append(FamilyProblem("map-target", (i, j), f"map ({i}, {j}) does not target the shared overlap"))
                    continue
                bad = validate_hom(h)
                if bad is not None:
                    out.append(FamilyProblem("map-axioms", (i, j), f"map ({i}, {j}): {bad.message}"))
                    continue
                if not _onto(h, self.map_kernels[(i, j)]):
                    out.append(FamilyProblem("map-not-surjective", (i, j), f"map ({i}, {j}) is not surjective"))
        return tuple(out)

    @cached_property
    def surjectivity_failures(self) -> tuple[tuple[str, str], ...]:
        """The sorted (i, j) whose map validation found not onto."""
        return tuple(sorted(p.where for p in self._problems if p.kind == "map-not-surjective"))

    def require_valid(self, require_surjective: bool = True) -> None:
        problems = self.problems(require_surjective)
        if problems:
            raise FamilyValidationError(problems)


def _map_rows(fam: GluingFamily) -> dict[tuple[str, str], tuple[SparseVector, ...]]:
    return {key: tuple(map(_sparse, h.matrix.entries)) for key, h in fam.maps.items()}


def _coordinate_index(fam: GluingFamily) -> PointIndex | None:
    """Every row of m_ij and of m_ji that is a single 1 makes the pullback's
    constraint x_i[a] = x_j[b], so when all rows are, the compatible tuples
    over a label subset are the functions constant on the classes of a
    union-find over the coordinates."""
    rows = fam.map_rows
    if any(len(row) != 1 or row[0][1] != 1 for m in rows.values() for row in m):
        return None
    pairs = {(i, j): [(a, b) for ((a, _),), ((b, _),) in zip(rows[i, j], rows[j, i])]
             for i, j in itertools.combinations(fam.labels, 2)}
    return _numbered(fam.labels, {i: range(fam.pieces[i].dim) for i in fam.labels}, pairs)


def _trusted_family(labels, pieces, overlaps, maps) -> GluingFamily:
    """A family valid by construction, built with its validation recorded as
    empty instead of run; the test suite runs it."""
    fam = GluingFamily(labels, pieces, overlaps, maps)
    fam.__dict__["_problems"] = ()
    return fam
