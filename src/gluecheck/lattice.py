"""Sublattice closure of subspaces under sum and intersection, and the
distributivity test on that closure.

Closure of four or more generators can be infinite inside a modular
lattice, so the closure stops at a cap with an honest ``complete`` flag;
distributivity of an incomplete closure is reported as indeterminate,
never silently as true or false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from gluecheck.algebra import GluingFamily
from gluecheck.exactlin import Subspace, intersect, subspace_sum

DEFAULT_CAP = 10_000


@dataclass(frozen=True)
class LatticeClosure:
    elements: tuple[Subspace, ...]
    complete: bool
    sum_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]


def generate_lattice(gens: Iterable[Subspace], cap: int = DEFAULT_CAP) -> LatticeClosure:
    """Fixed-point closure of the generators under sum and intersection.

    Elements are deduplicated by canonical form.  On completion the sum and
    meet tables cover every pair of elements; if the cap is hit first the
    closure stops with ``complete=False`` and partial tables.
    """
    generators = tuple(gens)
    if not generators:
        raise ValueError("at least one generator is required")
    ambient = generators[0].ambient_dim
    if any(g.ambient_dim != ambient for g in generators):
        raise ValueError("generators must share the ambient dimension")
    if cap < 1:
        raise ValueError("cap must be positive")

    elements: list[Subspace] = []
    index: dict[Subspace, int] = {}

    def add(s: Subspace) -> int | None:
        found = index.get(s)
        if found is not None:
            return found
        if len(elements) >= cap:
            return None
        index[s] = len(elements)
        elements.append(s)
        return index[s]

    for s in generators:
        add(s)

    sums: dict[tuple[int, int], int] = {}
    meets: dict[tuple[int, int], int] = {}
    complete = True
    i = 0
    while i < len(elements):
        a = elements[i]
        for j in range(i):  # a + a = a & a = a, recorded below
            b = elements[j]
            si = add(subspace_sum(a, b))
            mi = add(intersect(a, b))
            if si is None or mi is None:
                complete = False
                break
            sums[(i, j)] = si
            meets[(i, j)] = mi
        if not complete:
            break
        sums[(i, i)] = meets[(i, i)] = i
        i += 1

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


@dataclass(frozen=True)
class PieceLatticeReport:
    label: str
    closure: LatticeClosure
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
    kernel is a two-sided ideal, so only distributivity is decided here."""
    fam.require_valid(require_surjective=False)
    surj_failures = tuple(
        (i, j)
        for i in sorted(fam.labels)
        for j in sorted(fam.labels)
        if i != j and not fam.map_surjective[(i, j)]
    )
    reports = []
    for i in sorted(fam.labels):
        gens = [fam.map_kernels[(i, j)] for j in sorted(fam.labels) if j != i]
        if not gens:
            gens = [Subspace.zero(fam.pieces[i].dim)]
        closure = generate_lattice(gens, cap)
        reports.append(PieceLatticeReport(i, closure, is_distributive(closure)))
    ok = not surj_failures and all(r.verdict for r in reports)
    return DistributiveFamilyReport(tuple(reports), surj_failures, ok)
