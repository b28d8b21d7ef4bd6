"""Distributivity of the lattice that subspaces generate under sum and
intersection.

``decide_distributivity`` decides it by a dimension count over an adapted
basis, and only when the count fails does it run the closure
(``generate_lattice``) and the triple test on it (``is_distributive``),
which give the verdict and its witness.  Closure of four or more
generators can be infinite inside a modular lattice, so the closure stops
at a cap with an honest ``complete`` flag.  A count that succeeds
decides distributivity even when the listing passes the cap; otherwise
distributivity of an incomplete closure is reported as indeterminate,
never silently as true or false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence, TypeVar

from gluecheck.algebra import GluingFamily
from gluecheck.exactlin import Subspace, _span, intersect, subspace_sum

DEFAULT_CAP = 10_000
T = TypeVar("T")


@dataclass(frozen=True)
class LatticeClosure:
    elements: tuple[Subspace, ...]
    complete: bool
    sum_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]


def _generators(gens: Iterable[Subspace], cap: int) -> tuple[Subspace, ...]:
    generators = tuple(gens)
    if not generators:
        raise ValueError("at least one generator is required")
    ambient = generators[0].ambient_dim
    if any(g.ambient_dim != ambient for g in generators):
        raise ValueError("generators must share the ambient dimension")
    if cap < 1:
        raise ValueError("cap must be positive")
    return generators


def _close(gens: Sequence[T], join: Callable[[T, T], T], meet: Callable[[T, T], T], cap: int
           ) -> tuple[list[T], bool, dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Fixed-point closure under ``join`` and ``meet``: the generators first,
    deduplicated, then each pair (i, j < i) in list order, join before meet.

    Returns the elements, whether the closure finished before the cap (it
    has not when a distinct generator is past it), and the join and meet of
    every pair reached, keyed (larger index, smaller).
    """
    elements: list[T] = []
    index: dict[T, int] = {}

    def add(s: T) -> int | None:
        found = index.get(s)
        if found is not None:
            return found
        if len(elements) >= cap:
            return None
        index[s] = len(elements)
        elements.append(s)
        return index[s]

    for s in gens:
        if add(s) is None:
            return elements, False, {}, {}

    joins: dict[tuple[int, int], int] = {}
    meets: dict[tuple[int, int], int] = {}
    i = 0
    while i < len(elements):
        a = elements[i]
        for j in range(i):  # a + a = a & a = a, recorded below
            b = elements[j]
            si = add(join(a, b))
            mi = add(meet(a, b))
            if si is None or mi is None:
                return elements, False, joins, meets
            joins[(i, j)] = si
            meets[(i, j)] = mi
        joins[(i, i)] = meets[(i, i)] = i
        i += 1
    return elements, True, joins, meets


def generate_lattice(gens: Iterable[Subspace], cap: int = DEFAULT_CAP) -> LatticeClosure:
    """Fixed-point closure of the generators under sum and intersection.

    Elements are deduplicated by canonical form.  On completion the sum and
    meet tables cover every pair of elements; if the cap is hit first the
    closure stops with ``complete=False`` and partial tables.
    """
    elements, complete, sums, meets = _close(_generators(gens, cap), subspace_sum, intersect, cap)
    n = len(elements)
    sum_table = tuple(
        tuple(sums.get((max(x, y), min(x, y)), -1) for y in range(n)) for x in range(n)
    )
    meet_table = tuple(
        tuple(meets.get((max(x, y), min(x, y)), -1) for y in range(n)) for x in range(n)
    )
    return LatticeClosure(tuple(elements), complete, sum_table, meet_table)


@dataclass(frozen=True)
class DistributivityVerdict:
    status: Literal["distributive", "not-distributive", "indeterminate"]
    witness: tuple[Subspace, Subspace, Subspace] | None = None

    def __bool__(self) -> bool:
        return self.status == "distributive"


def is_distributive(closure: LatticeClosure) -> DistributivityVerdict:
    """Test a & (b + c) == (a & b) + (a & c) over all element triples.

    The dual identity follows automatically in any lattice, so one side
    suffices.  Returns the first failing triple as a witness; incomplete
    closures are indeterminate.
    """
    if not closure.complete:
        return DistributivityVerdict("indeterminate")
    n = len(closure.elements)
    joins = closure.sum_table
    meets = closure.meet_table
    for a in range(n):
        meet_a = meets[a]
        for b in range(n):
            jb = joins[b]
            mab = meet_a[b]
            join_mab = joins[mab]
            for c in range(b, n):
                if meet_a[jb[c]] != join_mab[meet_a[c]]:
                    els = closure.elements
                    return DistributivityVerdict("not-distributive", (els[a], els[b], els[c]))
    return DistributivityVerdict("distributive")


def _adapted_masks(gens: Sequence[Subspace], cap: int) -> list[int] | None:
    """Each generator as a bit mask over the vectors of an adapted basis, or
    None when no basis adapts to them all or their meets pass the cap.

    Let X run over the distinct meets of Q^d and the generators, and let
    X_< be the sum of the meets strictly inside X, which is the sum of the
    X & S_i over the S_i not containing X.  Complements C_X of X_< in X
    span every X they lie in, Q^d included, so the c(X) = dim X - dim X_<
    add up to at least d, and to exactly d when the C_X form a basis; that
    basis spans each S_i by the C_X with X inside S_i.  A distributive
    lattice of subspaces has such an adapted basis (Polishchuk and
    Positselski, *Quadratic Algebras*, Ch. 1 §7), and each of its vectors
    is counted by the c(X) of the least meet it lies in.  So the
    generators' lattice is distributive exactly when the c(X) add up to d,
    and then sum and meet are union and intersection of the masks that
    give each S_i the blocks C_X with X inside S_i.  Block C_X takes c(X)
    bits, one for each of its vectors, so the popcount of a mask, or of
    the & of several, is the dimension of that generator or of their meet.
    No C_X is built.
    """
    ambient = gens[0].ambient_dim
    full = Subspace.full(ambient)
    meets = [full]
    index = {full: 0}
    inside: list[set[int]] = [set()]  # generators known to contain each meet
    masks = [0] * len(gens)
    counted = 0
    x = 0
    while x < len(meets):
        here, known = meets[x], inside[x]
        below = []  # rows spanning the meets strictly inside this one
        for i, s in enumerate(gens):
            if i in known:
                continue
            y = s if x == 0 else intersect(here, s)
            if y.dim == here.dim:
                known.add(i)
                continue
            below.extend(y.basis_rows)
            found = index.get(y)
            if found is None:
                if len(meets) >= cap:
                    return None
                index[y] = found = len(meets)
                meets.append(y)
                inside.append(set())
            inside[found] |= known
            inside[found].add(i)
        c = here.dim - _span(below, ambient).dim
        if counted + c > ambient:
            return None
        block = ((1 << c) - 1) << counted  # the bits of C_X
        for i in known:  # now every generator that contains this meet
            masks[i] |= block
        counted += c
        x += 1
    if counted != ambient:
        return None
    return masks


def decide_distributivity(gens: Iterable[Subspace], cap: int = DEFAULT_CAP
                          ) -> tuple[int, bool, DistributivityVerdict, list[int] | None]:
    """Whether the generators' lattice is distributive, with the number of
    elements ``generate_lattice`` lists for it under the same cap, whether
    that listing is complete, and the generators' masks over an adapted
    basis, or None when there is none.

    When an adapted basis exists the lattice is distributive, whether or
    not closing the generators' masks in ``generate_lattice``'s order, which
    gives the count, passes the cap.  Otherwise the closure and
    ``is_distributive`` give the verdict and its witness triple.
    """
    generators = _generators(gens, cap)
    masks = _adapted_masks(generators, cap)
    if masks is None:
        closure = generate_lattice(generators, cap)
        return len(closure.elements), closure.complete, is_distributive(closure), None
    elements, complete, _, _ = _close(masks, int.__or__, int.__and__, cap)
    return len(elements), complete, DistributivityVerdict("distributive"), masks


@dataclass(frozen=True)
class PieceLatticeReport:
    label: str
    elements: int  # of the kernels' closure, up to the cap
    complete: bool  # whether the closure was listed within the cap
    verdict: DistributivityVerdict


@dataclass(frozen=True)
class DistributiveFamilyReport:
    per_piece: tuple[PieceLatticeReport, ...]
    surjectivity_failures: tuple[tuple[str, str], ...]
    ok: bool


def check_distributive_family(fam: GluingFamily, cap: int = DEFAULT_CAP) -> DistributiveFamilyReport:
    """Decide whether a family is distributive: all maps surjective and, for
    each piece, the kernels of its outgoing maps generate a distributive
    lattice of ideals.

    ``require_valid`` has checked every map to be a homomorphism, whose
    kernel is a two-sided ideal, and listed the maps that are not onto, so
    only distributivity is decided here.  Each piece i whose kernels have
    an adapted basis within the cap keeps the mask of each ker m_ij over
    it, keyed by j, in ``fam.kernel_blocks[i]``."""
    fam.require_valid(require_surjective=False)
    reports = []
    for i in sorted(fam.labels):
        others = [j for j in sorted(fam.labels) if j != i]
        gens = [fam.map_kernels[(i, j)] for j in others] or [Subspace.zero(fam.pieces[i].dim)]
        elements, complete, verdict, masks = decide_distributivity(gens, cap)
        if masks is not None:
            fam.kernel_blocks[i] = dict(zip(others, masks))
        reports.append(PieceLatticeReport(i, elements, complete, verdict))
    ok = not fam.surjectivity_failures and all(r.verdict for r in reports)
    return DistributiveFamilyReport(tuple(reports), fam.surjectivity_failures, ok)
