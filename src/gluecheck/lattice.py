"""Distributivity of the lattice that subspaces generate under sum and
intersection.

``decide_distributivity`` decides it by a dimension count over an adapted
basis, and a verdict the count proves carries the basis's blocks.  The
count lists meets by ``intersect`` and ranks by elimination, or, when
every generator is a coordinate subspace, on the int masks of their
pivots, where a meet is ``&`` and a rank a bit count.  Only when the
count fails does it run the closure (``generate_lattice``) and
the triple test on it (``is_distributive``), which give the verdict and
its witness.  The cap bounds both: the meets the count lists, then the
elements the closure lists.  Closure of four or more generators can be
infinite inside a modular lattice, so a closure stops at the cap with an
honest ``complete`` flag, and distributivity that only an incomplete
closure could decide is reported as indeterminate, never silently as true
or false.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

from gluecheck.algebra import GluingFamily
from gluecheck.exactlin import Subspace, _echelon, intersect, subspace_sum

DEFAULT_CAP = 10_000


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


def generate_lattice(gens: Iterable[Subspace], cap: int = DEFAULT_CAP) -> LatticeClosure:
    """Fixed-point closure of the generators under sum and intersection:
    the generators first, deduplicated by canonical form, then each pair
    (i, j < i) in list order, sum before meet.

    On completion the sum and meet tables cover every pair of elements.  If
    the cap is hit first, as it is when a distinct generator is past it,
    the closure stops with ``complete=False`` and partial tables, -1 marking
    a pair not reached.
    """
    generators = _generators(gens, cap)
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

    sums: dict[tuple[int, int], int] = {}  # keyed (larger index, smaller)
    meets: dict[tuple[int, int], int] = {}
    complete = all(add(s) is not None for s in generators)
    i = 0
    while complete and i < len(elements):
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
        else:
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


# each block C_X of an adapted basis as (c(X), the generators containing X)
Blocks = tuple[tuple[int, frozenset], ...]


@dataclass(frozen=True)
class DistributivityVerdict:
    status: Literal["distributive", "not-distributive", "indeterminate"]
    witness: tuple[Subspace, Subspace, Subspace] | None = None  # when the closure refutes
    blocks: Blocks | None = None  # when the count proves

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


def _pivot_masks(gens: Sequence[Subspace]) -> list[int] | None:
    """Each generator as the int mask of its pivot columns when every one
    is a coordinate subspace, spanned by standard basis vectors; else None.

    A coordinate subspace's RREF rows are those vectors, each with a single
    nonzero entry; the mask sets bit p for each pivot p."""
    ambient = gens[0].ambient_dim
    for s in gens:
        for row in s.basis_rows:
            if row.count(0) != ambient - 1:
                return None
    return [sum(1 << p for p in s.pivots) for s in gens]


def _adapted_basis(gens: Sequence[Subspace], cap: int) -> Blocks | Literal["refuted", "past cap"]:
    """The blocks of an adapted basis of the generators, or why there are
    none: "refuted" when no basis adapts to them all, "past cap" when their
    meets pass the cap.

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
    which they do unless a running sum of them passes d, and then the meet
    of any set of generators is spanned by the C_X with X inside all of
    them: its dimension is the sum of their c(X).  Each C_X with c(X) > 0
    is listed as c(X) and the frozenset of the indices of the generators
    containing X.  No C_X is built.

    On coordinate generators the count runs on ``_pivot_masks``: meets and
    sums of coordinate subspaces are those of the ``&`` and ``|`` of their
    masks, and equal masks are equal subspaces, so it lists the same meets
    in the same order against the same cap.
    """
    ambient = gens[0].ambient_dim
    masks = _pivot_masks(gens)
    if masks is None:
        full, meet, dim = Subspace.full(ambient), intersect, operator.attrgetter("dim")

        def rank(below: list[Subspace]) -> int:
            return _echelon([row for y in below for row in y.basis_rows], ambient)[0]
    else:
        gens, full, meet, dim = masks, (1 << ambient) - 1, operator.and_, int.bit_count

        def rank(below: list[int]) -> int:
            return functools.reduce(operator.or_, below, 0).bit_count()
    meets = [full]
    index = {full: 0}
    inside: list[set[int]] = [set()]  # generators known to contain each meet
    blocks = []
    counted = 0
    x = 0
    while x < len(meets):
        here, known = meets[x], inside[x]
        here_dim = dim(here)
        below = []  # the meets strictly inside this one, which span X_<
        for i, s in enumerate(gens):
            if i in known:
                continue
            y = s if x == 0 else meet(here, s)
            if dim(y) == here_dim:
                known.add(i)
                continue
            below.append(y)
            found = index.get(y)
            if found is None:
                if len(meets) >= cap:
                    return "past cap"
                index[y] = found = len(meets)
                meets.append(y)
                inside.append(set())
            inside[found] |= known
            inside[found].add(i)
        c = here_dim - rank(below)
        counted += c
        if counted > ambient:
            return "refuted"
        if c:  # known is now every generator that contains this meet
            blocks.append((c, frozenset(known)))
        x += 1
    return tuple(blocks)


def decide_distributivity(gens: Iterable[Subspace], cap: int = DEFAULT_CAP) -> DistributivityVerdict:
    """Whether the generators' lattice is distributive.

    An adapted basis proves it, and the verdict carries its blocks as
    ``_adapted_basis`` gives them.  Without one, within the cap, the
    closure and ``is_distributive`` give the verdict and its witness
    triple.  When the meets pass the cap, a closure would hold ``cap`` of
    them other than Q^d, and the sum of the generators, which is a meet of
    generators only by being one of them: a meet lies inside each
    generator it meets, and the sum contains them all.  So unless the sum
    is a generator, the closure cannot finish within the cap, and the
    verdict is indeterminate without running it.
    """
    generators = _generators(gens, cap)
    blocks = _adapted_basis(generators, cap)
    if blocks == "past cap" and functools.reduce(subspace_sum, generators) not in generators:
        return DistributivityVerdict("indeterminate")
    if isinstance(blocks, str):
        return is_distributive(generate_lattice(generators, cap))
    return DistributivityVerdict("distributive", blocks=blocks)


@dataclass(frozen=True)
class DistributiveFamilyReport:
    per_piece: dict[str, DistributivityVerdict]  # by label, in sorted order
    surjectivity_failures: tuple[tuple[str, str], ...]
    ok: bool


def check_distributive_family(fam: GluingFamily, cap: int = DEFAULT_CAP) -> DistributiveFamilyReport:
    """Decide whether a family is distributive: all maps surjective and, for
    each piece, the kernels of its outgoing maps generate a distributive
    lattice of ideals.

    ``require_valid`` has checked every map to be a homomorphism, whose
    kernel is a two-sided ideal, and listed the maps that are not onto, so
    only distributivity is decided here.  A piece i that the count decides
    names the kernels ker m_ij in its verdict's blocks by their labels j,
    and ``fam.kernel_blocks[i]`` keeps those blocks."""
    fam.require_valid(require_surjective=False)
    per_piece = {}
    for i in sorted(fam.labels):
        others = [j for j in sorted(fam.labels) if j != i]
        gens = [fam.map_kernels[(i, j)] for j in others] or [Subspace.zero(fam.pieces[i].dim)]
        verdict = decide_distributivity(gens, cap)
        if verdict.blocks is not None:
            blocks = tuple((c, frozenset(others[n] for n in inside)) for c, inside in verdict.blocks)
            verdict = replace(verdict, blocks=blocks)
            fam.kernel_blocks[i] = blocks
        per_piece[i] = verdict
    ok = not fam.surjectivity_failures and all(per_piece.values())
    return DistributiveFamilyReport(per_piece, fam.surjectivity_failures, ok)
