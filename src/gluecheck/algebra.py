"""Finite-dimensional unital associative algebras over Q.

An algebra is presented by structure constants: ``table[a][b]`` holds the
coordinates of the product of basis vectors a and b.  Homomorphisms are
matrices that are checked, never assumed, to be multiplicative and unital.
Zero-dimensional algebras are legal everywhere; they show up as quotients
by the whole algebra and as overlap algebras of empty identifications.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from gluecheck.exactlin import F0, F1, Matrix, Subspace, Vector, kernel, quotient, rank, vec


@dataclass(frozen=True)
class Algebra:
    """Unital associative algebra presented by structure constants."""

    dim: int
    table: tuple[tuple[Vector, ...], ...]
    unit: Vector
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.table) != self.dim or len(self.unit) != self.dim:
            raise ValueError("structure constant table does not match the dimension")
        for row in self.table:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise ValueError("structure constant table does not match the dimension")
        # sparse view of the table; products in this package are mostly sparse
        object.__setattr__(
            self,
            "_nonzeros",
            tuple(
                tuple(tuple((k, t) for k, t in enumerate(v) if t) for v in row)
                for row in self.table
            ),
        )
        object.__setattr__(
            self,
            "_basis",
            tuple(
                tuple(F1 if j == i else F0 for j in range(self.dim))
                for i in range(self.dim)
            ),
        )

    def basis_vector(self, i: int) -> Vector:
        return self._basis[i]

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear product of coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        acc = [F0] * self.dim
        nz = self._nonzeros
        for a, xa in enumerate(x):
            if not xa:
                continue
            row = nz[a]
            for b, yb in enumerate(y):
                if not yb:
                    continue
                c = xa * yb
                for k, t in row[b]:
                    acc[k] += c * t
        return tuple(acc)

    @staticmethod
    def from_table(table: Sequence[Sequence[Sequence]], unit: Sequence, label: str = "") -> "Algebra":
        tbl = tuple(tuple(vec(v) for v in row) for row in table)
        return Algebra(len(tbl), tbl, vec(unit), label)

    @staticmethod
    def functions(points: int | Sequence[str], label: str = "") -> "Algebra":
        """Function algebra Q^X with pointwise product and all-ones unit."""
        n = points if isinstance(points, int) else len(points)
        table = tuple(
            tuple(
                tuple(F1 if a == b == k else F0 for k in range(n))
                for b in range(n)
            )
            for a in range(n)
        )
        return Algebra(n, table, tuple(F1 for _ in range(n)), label)

    @staticmethod
    def zero(label: str = "") -> "Algebra":
        return Algebra(0, (), (), label)

    @staticmethod
    def direct_sum(parts: Sequence["Algebra"], label: str = "") -> "Algebra":
        """Product algebra on the concatenated coordinates."""
        n = sum(p.dim for p in parts)
        offsets = []
        off = 0
        for p in parts:
            offsets.append(off)
            off += p.dim
        table = [[tuple(F0 for _ in range(n)) for _ in range(n)] for _ in range(n)]
        unit = [F0] * n
        for p, off in zip(parts, offsets):
            for a in range(p.dim):
                for b in range(p.dim):
                    entry = [F0] * n
                    for k, t in enumerate(p.table[a][b]):
                        entry[off + k] = t
                    table[off + a][off + b] = tuple(entry)
            for k, u in enumerate(p.unit):
                unit[off + k] = u
        return Algebra(n, tuple(tuple(row) for row in table), tuple(unit), label)


@dataclass(frozen=True)
class Violation:
    """First axiom failure found by a validator."""

    kind: str
    where: tuple
    message: str


def validate_algebra(a: Algebra) -> Violation | None:
    """Check associativity on basis triples and two-sided unitality."""
    for i in range(a.dim):
        e = a.basis_vector(i)
        if a.multiply(a.unit, e) != e:
            return Violation("unit", (i,), f"unit * e_{i} != e_{i}")
        if a.multiply(e, a.unit) != e:
            return Violation("unit", (i,), f"e_{i} * unit != e_{i}")
    for i in range(a.dim):
        for j in range(a.dim):
            left = a.table[i][j]
            for k in range(a.dim):
                lhs = a.multiply(left, a.basis_vector(k))
                rhs = a.multiply(a.basis_vector(i), a.table[j][k])
                if lhs != rhs:
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

    def apply(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.apply(v)


def validate_hom(f: AlgebraHom) -> Violation | None:
    """Check multiplicativity on basis pairs and that the unit maps to the unit."""
    if f.matrix.apply(f.source.unit) != f.target.unit:
        return Violation("hom-unit", (), "unit does not map to the unit")
    cols = [f.matrix.column(a) for a in range(f.source.dim)]
    for a in range(f.source.dim):
        for b in range(f.source.dim):
            lhs = f.matrix.apply(f.source.table[a][b])
            rhs = f.target.multiply(cols[a], cols[b])
            if lhs != rhs:
                return Violation(
                    "hom-multiplicative", (a, b), f"f(e_{a} e_{b}) != f(e_{a}) f(e_{b})"
                )
    return None


def is_surjective(f: AlgebraHom) -> bool:
    return rank(f.matrix) == f.target.dim


@dataclass(frozen=True)
class Ideal:
    """A subspace together with the claim that it is a two-sided ideal."""

    subspace: Subspace


def is_ideal(a: Algebra, s: Subspace) -> bool:
    """Closure of s under left and right multiplication by every basis vector."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace does not live in the algebra's coordinates")
    for i in range(a.dim):
        e = a.basis_vector(i)
        for row in s.basis_rows:
            if not s.contains(a.multiply(e, row)):
                return False
            if not s.contains(a.multiply(row, e)):
                return False
    return True


def kernel_ideal(f: AlgebraHom) -> Ideal:
    """Kernel of a hom, asserted to be an ideal as a self-check."""
    k = kernel(f.matrix)
    if not is_ideal(f.source, k):
        raise RuntimeError("kernel of a homomorphism failed the ideal check; input is corrupt")
    return Ideal(k)


def quotient_algebra(a: Algebra, ideal: Ideal, label: str = "") -> tuple[Algebra, AlgebraHom]:
    """Quotient presentation and its canonical surjection.

    The chart picks the non-pivot coordinates of the ideal's RREF, so equal
    ideals always yield bit-identical quotient presentations.  Raises
    ValueError unless the subspace is a two-sided ideal; given one, the
    surjection is a homomorphism with kernel the ideal, which the test
    suite checks rather than each call.
    """
    s = ideal.subspace
    if not is_ideal(a, s):
        raise ValueError("subspace is not a two-sided ideal")
    chart = quotient(a.dim, s)
    proj, sect = chart.projection, chart.section
    d = chart.dim
    lifts = [sect.column(x) for x in range(d)]
    table = tuple(
        tuple(proj.apply(a.multiply(lifts[x], lifts[y])) for y in range(d))
        for x in range(d)
    )
    q = Algebra(d, table, proj.apply(a.unit), label or (a.label + "/ideal" if a.label else ""))
    return q, AlgebraHom(a, q, proj)


def subspace_algebra(ambient: Algebra, s: Subspace, label: str = "") -> Algebra:
    """Induced presentation on a subspace closed under the ambient product.

    Raises ValueError when the subspace misses the unit or is not closed;
    callers use this as the closure check for pullback subalgebras.
    """
    if s.ambient_dim != ambient.dim:
        raise ValueError("subspace does not live in the ambient coordinates")
    unit_coords = s.coordinates_of(ambient.unit)
    if unit_coords is None:
        raise ValueError("subspace does not contain the unit")
    d = s.dim
    rows = s.basis_rows
    table = []
    for x in range(d):
        row = []
        for y in range(d):
            prod = ambient.multiply(rows[x], rows[y])
            coords = s.coordinates_of(prod)
            if coords is None:
                raise ValueError("subspace is not closed under the product")
            row.append(coords)
        table.append(tuple(row))
    return Algebra(d, tuple(table), unit_coords, label)


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
    validation, the kernels of its maps, its pullback subspaces) is
    computed once and kept on it.
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
    def map_surjective(self) -> Mapping[tuple[str, str], bool]:
        return {key: is_surjective(h) for key, h in self.maps.items()}

    @cached_property
    def pullback_subspaces(self) -> dict:
        """Memo of ``multipullback.pullback_subspace``, keyed by label subset."""
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
                if not self.map_surjective[(i, j)]:
                    out.append(FamilyProblem("map-not-surjective", (i, j), f"map ({i}, {j}) is not surjective"))
        return tuple(out)

    def require_valid(self, require_surjective: bool = True) -> None:
        problems = self.problems(require_surjective)
        if problems:
            raise FamilyValidationError(problems)
