"""Multi-pullbacks of gluing families: the compatible-tuple subalgebra, the
cocycle condition, partial-pullback extension checks, and the canonical
re-presentation that restores the cocycle condition.

Conventions used throughout:

* the ambient of a pullback over K is the direct sum of the pieces in K,
  blocks ordered by the family's label order;
* every verdict object carries concrete witnesses (subspaces, vectors or
  matrices), because the point of the tool is diagnosis, not a boolean;
* all checks are pure functions of an immutable family, and reports are
  assembled in lexicographic label order so output is deterministic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from gluecheck.algebra import Algebra, AlgebraHom, GluingFamily, _quotient_presentation, _trusted_family, pair_key
from gluecheck.exactlin import (
    F0,
    F1,
    Matrix,
    Subspace,
    Vector,
    _echelon,
    _null_space,
    _reduced_subspace,
    _span,
    invert,
    kernel,
    quotient,
    subspace_sum,
)
from gluecheck.lattice import (
    DEFAULT_CAP,
    DistributiveFamilyReport,
    check_distributive_family,
    decide_distributivity,
)
from gluecheck.unionfind import _union_find

DEFAULT_MAX_INDICES = 8


class TooManyPieces(ValueError):
    """Raised when an exhaustive subset check would enumerate too much."""


class RepairRefused(ValueError):
    """The re-presentation precondition fails; carries the diagnosis."""

    def __init__(self, message: str, *, projection: str | None = None, witness=None):
        super().__init__(message)
        self.projection = projection
        self.witness = witness


def _block_layout(fam: GluingFamily, over: Iterable[str]) -> dict[str, tuple[int, int]]:
    """Each chosen piece's coordinates (start, stop) in their direct sum,
    blocks in family label order."""
    chosen = set(over)
    unknown = chosen - set(fam.labels)
    if unknown:
        raise ValueError(f"labels not in the family: {sorted(unknown)}")
    blocks = {}
    total = 0
    for i in fam.labels:
        if i in chosen:
            blocks[i] = (total, total + fam.pieces[i].dim)
            total += fam.pieces[i].dim
    if not blocks:
        raise ValueError("the index subset must be nonempty")
    return blocks


@dataclass(frozen=True)
class MultiPullback:
    """The compatible-tuple subalgebra over a label subset.

    ``subspace`` lives in the direct-sum ambient, and piece B_i holds the
    coordinates ``blocks[i] = (start, stop)`` of it.  It keeps no family,
    so the family's memo of its pullbacks makes no reference cycle.
    """

    over: tuple[str, ...]
    subspace: Subspace
    blocks: Mapping[str, tuple[int, int]]

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @cached_property
    def columns(self) -> dict[str, tuple[Vector, ...]]:
        """``columns[j][c][t]`` is coordinate c of piece j's block of the basis
        row x_t: the rows of the projection onto piece j."""
        coords = tuple(zip(*self.subspace.basis_rows)) or ((),) * self.subspace.ambient_dim
        return {j: coords[start:stop] for j, (start, stop) in self.blocks.items()}

    def projection(self, label: str) -> Matrix:
        """The matrix mapping presentation coordinates onto the piece ``label``."""
        rows = self.columns[label]
        return Matrix(len(rows), self.dim, rows)


def build_pullback(fam: GluingFamily, over: Iterable[str] | None = None) -> MultiPullback:
    """The pullback over a label subset (all labels by default), built once
    per label subset of the family and kept in ``fam.pullbacks``.  A kept
    pullback was built from a validated family, so only a new one has the
    family validated first."""
    key = frozenset(fam.labels if over is None else over)
    if key not in fam.pullbacks:
        fam.require_valid()
    return _pullback(fam, key)


def _pullback(fam: GluingFamily, key: frozenset) -> MultiPullback:
    """``build_pullback`` for a family already validated: from the classes
    of the subset's union-find when the family has a coordinate index
    (``_class_subspace``), else by one elimination (``_constraint_subspace``)."""
    if key in fam.pullbacks:
        return fam.pullbacks[key]
    blocks = _block_layout(fam, key)
    make = _constraint_subspace if fam.coordinate_index is None else _class_subspace
    fam.pullbacks[key] = MultiPullback(tuple(blocks), make(fam, blocks), blocks)
    return fam.pullbacks[key]


def _constraint_subspace(fam: GluingFamily, blocks: Mapping[str, tuple[int, int]]) -> Subspace:
    """P(K), the pieces of K laid out at ``blocks``, as a null space.

    A tuple is compatible when both maps into each overlap agree on it, so
    the subspace is the kernel of the stacked difference constraints.  The
    family keeps its maps' rows as their nonzeros (``map_rows``); row r of
    m_ij and of m_ji are laid out at the subset's blocks, columns
    reversed, for the one elimination that ``kernel`` would run.
    """
    order = tuple(blocks)
    total = blocks[order[-1]][1]
    last = total - 1
    rows: list[list] = []
    for i, j in itertools.combinations(order, 2):
        end_i, end_j = last - blocks[i][0], last - blocks[j][0]
        for left, right in zip(fam.map_rows[(i, j)], fam.map_rows[(j, i)]):
            row = [F0] * total
            for c, x in left:
                row[end_i - c] = x
            for c, x in right:
                row[end_j - c] = -x
            rows.append(row)
    return _reduced_subspace(total, *_null_space(rows, total))


def _roots(fam: GluingFamily, order: tuple[str, ...]) -> dict[int, int]:
    """``_union_find`` over the coordinates of a label subset, in family
    label order, run once per subset of the family."""
    if order not in fam.subset_roots:
        fam.subset_roots[order] = _union_find(fam.coordinate_index, order)
    return fam.subset_roots[order]


def _class_subspace(fam: GluingFamily, blocks: Mapping[str, tuple[int, int]]) -> Subspace:
    """P(K) for a family with a coordinate index: the constraints
    x_i[a] = x_j[b] make the compatible tuples the functions constant on
    each class of the union-find over K's coordinates.  The roots come in
    the order of the direct sum, so the class indicators, disjoint and
    taken in the order of their first coordinates, are already the RREF
    basis, with those first coordinates as pivots."""
    total = max(stop for _, stop in blocks.values())
    rows: dict[int, list] = {}  # the indicator of each class, keyed by its root
    pivots = []
    for p, root in enumerate(_roots(fam, tuple(blocks)).values()):
        if root not in rows:
            rows[root] = [F0] * total
            pivots.append(p)
        rows[root][p] = F1
    return _reduced_subspace(total, [tuple(row) for row in rows.values()], pivots)


def pullback_subspace(fam: GluingFamily, over: Iterable[str] | None = None) -> Subspace:
    """Compatible tuples over the given labels, inside the direct sum:
    ``build_pullback(fam, over).subspace``."""
    return build_pullback(fam, over).subspace


def projection_surjective(p: MultiPullback, label: str) -> tuple[bool, Subspace]:
    """Whether the coordinate projection onto a piece is onto, with its image:
    the span of the piece's blocks of the basis rows that are nonzero."""
    if label not in p.over:
        raise ValueError(f"{label} is not part of this pullback")
    start, stop = p.blocks[label]
    blocks = (row[start:stop] for row in p.subspace.basis_rows)
    img = _span([b for b in blocks if any(b)], stop - start)
    return img.dim == stop - start, img


@dataclass(frozen=True)
class ExtensionEntry:
    """Verdict for one partial-pullback extension question.

    ``ok`` says every compatible tuple over ``subset`` extends to one over
    ``subset + (extend_by,)``; otherwise ``witness`` is the first basis
    tuple of the pullback over ``subset`` (keyed by label) that admits no
    extension.
    """

    subset: tuple[str, ...]
    extend_by: str
    ok: bool
    witness: Mapping[str, Vector] | None


@dataclass(frozen=True)
class ExtensionReport:
    entries: tuple[ExtensionEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> tuple[ExtensionEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def _extends_by_count(fam: GluingFamily, small: MultiPullback, k: str) -> bool:
    """Whether rank-nullity shows every tuple of P(K) = ``small`` to extend
    by k; False when it shows one does not, or the dimensions are not at
    hand.  Restriction P(K + {k}) -> P(K) has kernel 0 + M, with M the meet
    of the ker m_kj over j in K, so it is onto exactly when
    dim P(K + {k}) = dim P(K) + dim M.  dim M is the width of the blocks
    of piece k's adapted basis that lie in every kernel of K."""
    blocks = fam.kernel_blocks.get(k)
    if blocks is None:
        return False
    big = fam.pullbacks.get(frozenset((*small.over, k)))
    if big is None:
        return False
    return big.dim == small.dim + sum(c for c, inside in blocks if inside.issuperset(small.over))


def _extension_entry(fam: GluingFamily, subset: tuple[str, ...], k: str) -> ExtensionEntry:
    """The entry (K, k), K the sorted labels ``subset``: read off the roots
    when the family has a coordinate index (``_entry_on_roots``), else
    from P(K) (``_eliminated_entry``)."""
    if fam.coordinate_index is not None:
        return _entry_on_roots(fam, subset, k)
    return _eliminated_entry(fam, _pullback(fam, frozenset(subset)), k)


def _entry_on_roots(fam: GluingFamily, subset: tuple[str, ...], k: str) -> ExtensionEntry:
    """The entry (K, k) from the roots of K and of K + {k} alone.

    The basis row x_t of P(K) is the indicator of the class C_t of K's
    union-find, and every class of K lies in one class of K + {k}.  A
    tuple over K extends exactly when it takes one value on the classes
    of K that a class of K + {k} joins, so x_t extends exactly when C_t
    meets no other class of K there.  The witness is the first x_t that
    does not, the first basis row with no extension, as the elimination
    names it."""
    chosen = set(subset)
    order = tuple(i for i in fam.labels if i in chosen)
    small = _roots(fam, order)
    big = _roots(fam, tuple(i for i in fam.labels if i in chosen or i == k))
    outer: dict[int, int] = {}  # the outer root of each class, in the order of its first coordinate
    for x, root in small.items():
        outer.setdefault(root, big[x])
    meets = Counter(outer.values())
    first = next((root for root, o in outer.items() if meets[o] > 1), None)
    witness = None if first is None else {
        j: tuple(F1 if small[x] == first else F0 for x in fam.coordinate_index.piece_ids[j]) for j in order
    }
    return ExtensionEntry(subset, k, witness is None, witness)


def _eliminated_entry(fam: GluingFamily, small: MultiPullback, k: str) -> ExtensionEntry:
    """A compatible tuple x = sum_t a_t x_t over K, with x_t the basis rows
    of P(K) = ``small``, extends by k exactly when some y in B_k solves
    m_kj y - sum_t a_t m_jk x_t|_j = 0 for every j in K.

    When piece k has an adapted basis of its kernels and P(K + {k}) is
    already built, a dimension count decides a passing entry
    (``_extends_by_count``).  Otherwise, and for every failing entry,
    eliminating the y block of the rows [y | a] of those equations
    decides it: the rows left over span the constraints on a, and the
    entry passes iff they are all zero.  The least a-column t at which
    one is nonzero is the first a-pivot of the RREF of [y | a], and names
    the witness x_t, the first basis row that does not extend: that RREF
    row reads a_t + sum_{s>t} c_s a_s = 0, so x_t has no extension, and
    every x_s with s < t has one, since each a-pivot row involves only
    a-columns right of its pivot."""
    over, sub = small.over, small.subspace
    if _extends_by_count(fam, small, k):
        return ExtensionEntry(tuple(sorted(over)), k, True, None)
    d_k, n = fam.pieces[k].dim, sub.dim
    columns = small.columns
    rows = []
    for j in over:
        block = columns[j]
        for lhs, m_r in zip(fam.map(k, j).matrix.entries, fam.map_rows[(j, k)]):
            rhs = [F0] * n
            for c, m in m_r:
                for t, x in enumerate(block[c]):
                    if x:
                        rhs[t] -= m * x
            rows.append([*lhs, *rhs])
    _, left = _echelon(rows, d_k)
    leads = [next(c for c, x in enumerate(row) if x) for row in left if any(row)]
    first = min(leads) - d_k if leads else None
    witness = None if first is None else {
        j: sub.basis_rows[first][start:stop] for j, (start, stop) in small.blocks.items()
    }
    return ExtensionEntry(tuple(sorted(over)), k, witness is None, witness)


def _extension_sweep(fam: GluingFamily, sizes: Iterable[int]) -> ExtensionReport:
    """Extension entries for every subset K of each size and every k not in
    K, in label order, each computed once per family, which the callers
    have validated.  They are computed from the largest K down, so that
    P(K + {k}) is built before (K, k) when the sweep builds it at all."""
    labels = sorted(fam.labels)
    subsets = [subset for size in sizes for subset in itertools.combinations(labels, size)]
    for subset in sorted(subsets, key=lambda subset: -len(subset)):
        for k in labels:
            if k not in subset and (subset, k) not in fam.extension_entries:
                fam.extension_entries[subset, k] = _extension_entry(fam, subset, k)
    return ExtensionReport(tuple(fam.extension_entries[subset, k]
                                 for subset in subsets for k in labels if k not in subset))


def check_condition3(fam: GluingFamily) -> ExtensionReport:
    """Pairwise extension: for each pair {i, j} and third index k, do all
    compatible pairs extend to compatible triples?"""
    fam.require_valid()
    return _extension_sweep(fam, (2,))


def check_condition2(fam: GluingFamily, max_indices: int = DEFAULT_MAX_INDICES) -> ExtensionReport:
    """Exhaustive extension over every nonempty proper subset K and k not in K.

    The enumeration is exponential in the number of pieces, so families
    larger than ``max_indices`` are refused rather than silently crunched.
    A family with a coordinate index has each entry read off the roots
    of K and K + {k}, with no elimination.  For any other family, entries
    are computed from the largest K down, so once
    ``check_distributive_family`` and ``build_pullback`` have run, as in
    ``analyse``, each passing entry whose k has an adapted basis of its
    kernels is decided by rank-nullity on P(K + {k}) -> P(K), and only the
    others run an elimination (``_eliminated_entry``).
    """
    fam.require_valid()
    n = len(fam.labels)
    if n > max_indices:
        raise TooManyPieces(
            f"family has {n} pieces; the exhaustive subset check is capped at {max_indices}"
        )
    return _extension_sweep(fam, range(1, n))


def _pushed_kernel(fam: GluingFamily, i: str, j: str, k: str) -> Subspace:
    """m_ij(ker m_ik), the ideal of B_ij that the triple (i, j, k) quotients
    by: the span of m_ij applied to each basis row of the kernel, through
    the nonzeros of m_ij's rows (``map_rows``)."""
    rows = fam.map_rows[(i, j)]
    pushed = []
    for v in fam.map_kernels[(i, k)].basis_rows:
        out = []
        for row in rows:
            acc = F0
            for c, m in row:
                x = v[c]
                if x:
                    acc += m * x
            out.append(acc)
        pushed.append(tuple(out))
    return _span(pushed, len(rows))


def _trio_loop(fam: GluingFamily, trio: tuple[str, str, str],
               pushed: Mapping[tuple[str, str, str], Subspace]) -> Matrix:
    """phi(i<-j) phi(j<-k) phi(k<-i) on Q_i, for the sorted trio (i, j, k).

    Q_a is the chart of B_a / (ker m_ab + ker m_ac), and c_ab, induced by
    m_ab, carries Q_a onto the chart of B_ab / m_ab(ker m_ac).  Clause 1
    makes c_ab and c_ba land in the same chart, so phi(a<-b) = c_ab^-1 c_ba.
    For a surjective family each c_ab is an isomorphism, so ``invert``
    cannot fail: c_ab is onto because m_ab is, and one to one because
    m_ab x in m_ab(ker m_ac) puts x in ker m_ab + ker m_ac.  So the three
    charts have one dimension: when Q_i has none, the loop is the 0 x 0
    identity, and no other chart is built.
    """
    i, j, k = trio
    turns = ((i, j, k), (j, k, i), (k, i, j))

    def chart(a: str, b: str, c: str):
        return quotient(fam.pieces[a].dim, subspace_sum(fam.map_kernels[(a, b)], fam.map_kernels[(a, c)]))

    charts = {i: chart(*turns[0])}
    if charts[i].dim == 0:
        return Matrix.identity(0)
    charts.update((a, chart(a, b, c)) for a, b, c in turns[1:])
    phis = []
    for a, b, c in turns:
        overlap = quotient(fam.overlap(a, b).dim, pushed[(a, b, c)]).projection
        c_ab_inv = invert(overlap @ fam.map(a, b).matrix @ charts[a].section)
        phis.append(c_ab_inv @ (overlap @ fam.map(b, a).matrix @ charts[b].section))
    return phis[0] @ phis[1] @ phis[2]


@dataclass(frozen=True)
class KernelImageEntry:
    """Equality verdict for the two pushed kernels of an ordered triple."""

    triple: tuple[str, str, str]
    lhs: Subspace
    rhs: Subspace
    equal: bool


@dataclass(frozen=True)
class TransitionEntry:
    """Clause-2 verdict phi(i<-k) == phi(i<-j) . phi(j<-k) for the ordered
    triple (i, j, k).

    ``loop`` is phi(a<-b) phi(b<-c) phi(c<-a) for the trio's sorted labels
    (a, b, c), shared by its six entries, and None when the trio is not
    evaluable; the entries are "ok" exactly when it is the identity.
    """

    triple: tuple[str, str, str]
    status: str  # "ok" | "fail" | "not evaluable"
    loop: Matrix | None = None


@dataclass(frozen=True)
class CocycleReport:
    condition1: tuple[KernelImageEntry, ...]
    condition2: tuple[TransitionEntry, ...]
    overall: bool


def check_cocycle(fam: GluingFamily) -> CocycleReport:
    """Decide the cocycle condition.

    Clause one asks that both orders of pushing a kernel through an overlap
    give the same ideal.  Clause two compares the induced quotient
    isomorphisms, and is only evaluable on trios where clause one holds,
    because otherwise they do not even share a codomain.  There
    phi(a<-b) = c_ab^-1 c_ba is the inverse of phi(b<-a), so the six
    compositions of a trio hold together, exactly when the loop
    phi(i<-j) phi(j<-k) phi(k<-i) is the identity on Q_i.
    """
    fam.require_valid()
    labels = sorted(fam.labels)
    # the rhs of (i, j, k) is the lhs of (j, i, k), and clause 2 quotients B_ij by the lhs
    pushed = {t: _pushed_kernel(fam, *t) for t in itertools.permutations(labels, 3)}
    cond1 = []
    for i, j, k in itertools.permutations(labels, 3):
        lhs, rhs = pushed[(i, j, k)], pushed[(j, i, k)]
        cond1.append(KernelImageEntry((i, j, k), lhs, rhs, lhs == rhs))
    equal = {e.triple: e.equal for e in cond1}

    verdicts: dict[tuple[str, ...], tuple[str, Matrix | None]] = {}
    for trio in itertools.combinations(labels, 3):
        if all(equal[t] for t in itertools.permutations(trio)):
            loop = _trio_loop(fam, trio, pushed)
            verdicts[trio] = ("ok" if loop == Matrix.identity(loop.rows) else "fail", loop)
        else:
            verdicts[trio] = ("not evaluable", None)
    cond2 = [TransitionEntry(t, *verdicts[tuple(sorted(t))]) for t in itertools.permutations(labels, 3)]

    overall = all(equal.values()) and all(e.status == "ok" for e in cond2)
    return CocycleReport(tuple(cond1), tuple(cond2), overall)


@dataclass(frozen=True)
class Analysis:
    """Every verdict on one family, each stage run once, and the theorem's
    test: for a surjective family whose kernels generate distributive
    lattices of ideals, the cocycle condition, subset extension and
    pairwise extension agree.

    A family with a map that is not onto stops after ``distributive``: the
    later stages need surjectivity and are None.  ``all_extensions`` holds
    the ``TooManyPieces`` refusal of a family past the subset bound.
    ``skipped`` says why the theorem's test did not run, and is None when
    it ran.  Inconsistent verdicts are flagged as a tool bug, never as a
    finding.
    """

    distributive: DistributiveFamilyReport
    skipped: str | None
    pullback: MultiPullback | None = None
    projection_images: Mapping[str, tuple[bool, Subspace]] | None = None
    cocycle: CocycleReport | None = None
    pairwise_extensions: ExtensionReport | None = None
    all_extensions: ExtensionReport | TooManyPieces | None = None

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        """Cocycle, subset extension and pairwise extension, whenever the
        stages ran: the family is surjective and the subset sweep was not
        refused.  A family that is not distributive has them too."""
        return (self.cocycle.overall, self.all_extensions.ok, self.pairwise_extensions.ok)

    @property
    def consistent(self) -> bool:
        """The theorem's test ran and its three verdicts agree."""
        return self.skipped is None and len(set(self.verdicts)) == 1

    @property
    def ok(self) -> bool:
        """Every verdict reached holds (then the theorem's test, if it ran, is consistent too)."""
        if self.cocycle is None:
            return False
        reached = [self.distributive.ok, self.cocycle.overall, self.pairwise_extensions.ok,
                   *(surjective for surjective, _ in self.projection_images.values())]
        if not isinstance(self.all_extensions, TooManyPieces):
            reached.append(self.all_extensions.ok)
        return all(reached)


def analyse(fam: GluingFamily, max_indices: int = DEFAULT_MAX_INDICES,
            lattice_cap: int = DEFAULT_CAP) -> Analysis:
    """Run every check on a family: distributivity, the pullback and its
    projections, the cocycle condition, both extension sweeps, and the
    theorem's gate and consistency test.

    Raises FamilyValidationError when the family breaks an axiom.
    """
    dist = check_distributive_family(fam, cap=lattice_cap)  # validates the family first
    if fam.surjectivity_failures:
        return Analysis(dist, "family is not surjective")
    pullback = build_pullback(fam)
    images = {i: projection_surjective(pullback, i) for i in sorted(fam.labels)}
    cocycle = check_cocycle(fam)
    try:
        all_ext: ExtensionReport | TooManyPieces = check_condition2(fam, max_indices)
    except TooManyPieces as e:
        all_ext = e.with_traceback(None)  # its frames hold the family
    pair_ext = check_condition3(fam)
    if any(v.status == "not-distributive" for v in dist.per_piece.values()):
        skipped = "family is not distributive"
    elif not dist.ok:  # surjective, so some piece is indeterminate
        skipped = "distributivity undecided (lattice cap)"
    elif isinstance(all_ext, TooManyPieces):
        skipped = "subset check refused"
    else:
        skipped = None
    return Analysis(dist, skipped, pullback, images, cocycle, pair_ext, all_ext)


def repair(fam: GluingFamily, lattice_cap: int = DEFAULT_CAP) -> GluingFamily:
    """Re-present the pullback through its canonical projection quotients:
    the family of the pieces P/K_i and the overlaps P/(K_i+K_j), with P
    ``build_pullback(fam)`` and K_i the kernel of its projection onto B_i.

    Requires every map of the family and every projection of the pullback
    onto a piece to be surjective, and the projection kernels to generate
    a distributive lattice inside the pullback algebra; refuses with a
    diagnosis otherwise.  Each overlap P/(K_i+K_j) is presented from the
    piece B_i = P/K_i, so the pullback's own algebra is never built.  That
    the projection kernels, and so their pairwise sums, are ideals, that
    the repaired family is valid and satisfies the cocycle condition and
    that the original pullback maps bijectively onto the new one are
    theorems for this construction; the test suite checks them, not each
    call.
    """
    fam.require_valid(require_surjective=False)
    if fam.surjectivity_failures:
        i, j = fam.surjectivity_failures[0]
        raise RepairRefused(f"map ({i}, {j}) is not surjective")
    p = build_pullback(fam)
    proj = {i: p.projection(i) for i in p.over}
    kernels: dict[str, Subspace] = {}
    for i in sorted(p.over):
        kernels[i] = kernel(proj[i])
        if p.dim - kernels[i].dim != fam.pieces[i].dim:
            raise RepairRefused(
                f"projection onto piece {i} is not surjective "
                f"(image has dimension {p.dim - kernels[i].dim} of {fam.pieces[i].dim})",
                projection=i,
            )
    verdict = decide_distributivity([kernels[i] for i in sorted(p.over)], cap=lattice_cap)
    if verdict.status == "indeterminate":
        raise RepairRefused(
            f"projection-kernel lattice exceeded the closure cap ({lattice_cap}); "
            "distributivity undecided"
        )
    if verdict.status == "not-distributive":
        raise RepairRefused(
            "projection kernels do not generate a distributive lattice",
            witness=verdict.witness,
        )

    lifts: dict[str, Matrix] = {}
    for i in p.over:
        chart = quotient(p.dim, kernels[i])
        lifts[i] = chart.section @ invert(proj[i] @ chart.section)

    overlaps: dict[tuple[str, str], Algebra] = {}
    maps: dict[tuple[str, str], AlgebraHom] = {}
    for i, j in itertools.combinations(sorted(p.over), 2):
        chart = quotient(p.dim, subspace_sum(kernels[i], kernels[j]))
        to_i = chart.projection @ lifts[i]
        # pi_i is a hom and x - lifts[i] pi_i x lies in K_i, so the product of
        # classes x, y in P/(K_i+K_j) is to_i(pi_i x * pi_i y), read in B_i
        piece = fam.pieces[i]
        overlap = _quotient_presentation(piece, to_i, proj[i] @ chart.section,
                                         f"pullback/({i}+{j})")
        overlaps[pair_key(i, j)] = overlap
        maps[(i, j)] = AlgebraHom(piece, overlap, to_i)
        maps[(j, i)] = AlgebraHom(fam.pieces[j], overlap, chart.projection @ lifts[j])

    return _trusted_family(fam.labels, dict(fam.pieces), overlaps, maps)
