import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest

from gluecheck import specfile
from gluecheck.algebra import (
    Algebra,
    AlgebraHom,
    GluingFamily,
    Violation,
    _bits,
    _combine,
    _mask,
    _sparse,
    pair_key,
    quotient_algebra,
    subspace_algebra,
    validate_hom,
)
from gluecheck.exactlin import F0, F1, Matrix, Subspace, _reduce, _span, image, invert, kernel, span, subspace_sum, vec
from gluecheck.finset import (
    EmbeddingReport,
    FiniteGluing,
    GluedSpace,
    dualize,
    fixture_family,
    random_gluing,
    tcirc_a,
    tcirc_c,
    tstar,
)
from gluecheck.multipullback import ExtensionEntry, MultiPullback, build_pullback, pullback_subspace

CORPUS_SEEDS = tuple(range(200))
PROPERTY_INPUTS = ("example1", "example2", "example3") + tuple(f"seed{n}" for n in range(100))


@pytest.fixture(scope="session")
def corpus():
    """Random gluings with their dualized families, shared across suites."""
    return [(g, dualize(g)) for g in (random_gluing(seed) for seed in CORPUS_SEEDS)]


@pytest.fixture(scope="session")
def example1():
    return dualize(tstar())


@pytest.fixture(scope="session")
def example2():
    return dualize(tcirc_a())


@pytest.fixture(scope="session")
def example3():
    return dualize(tcirc_c())


@pytest.fixture(scope="session")
def fresh_families():
    """(name, family) for the example families and the duals of
    ``random_gluing`` seeds 0-99, for the property tests.  They are built
    apart from ``corpus``, so the caches they fill are not the ones the
    timed acceptance criteria read."""
    return [
        (name, dualize(random_gluing(int(name[len("seed"):]))) if name.startswith("seed")
         else fixture_family(name))
        for name in PROPERTY_INPUTS
    ]


def _blocks(fam, order):
    """The coordinate slice of each piece in the direct sum over ``order``."""
    slices, start = {}, 0
    for i in order:
        slices[i] = slice(start, start + fam.pieces[i].dim)
        start += fam.pieces[i].dim
    return slices


def _projection_reference(fam, subset, k):
    """Extension by projection: P(K + {k}) projected onto the blocks of K,
    and the first basis row of P(K) outside that projection, split into
    components (None when every row lies inside)."""
    small_order = [i for i in fam.labels if i in subset]
    big_order = [i for i in fam.labels if i in subset or i == k]
    small = pullback_subspace(fam, small_order)
    big = pullback_subspace(fam, big_order)
    big_blocks, small_blocks = _blocks(fam, big_order), _blocks(fam, small_order)
    projected = span(
        ([x for i in small_order for x in row[big_blocks[i]]] for row in big.basis_rows),
        small.ambient_dim,
    )
    outside = next((row for row in small.basis_rows if not projected.contains(row)), None)
    witness = None if outside is None else {i: outside[small_blocks[i]] for i in small_order}
    return projected, witness


@pytest.fixture(scope="session")
def projection_reference():
    """``(projected, witness)`` for an extension entry ``(fam, subset, k)``,
    computed by projecting the larger pullback: the reference that the
    extension sweep, which solves for the missing component, is tested
    against."""
    return _projection_reference


def _projection_image_reference(fam, p, label):
    """``(matrix, (surjective, image))`` for the projection of the pullback
    ``p`` of ``fam`` onto piece ``label``: the d x dim P matrix that
    ``build_pullback`` stored for each piece, read row by row from the
    piece's block of the basis, and the span of its columns, each read one
    index at a time."""
    block, d = _blocks(fam, p.over)[label], fam.pieces[label].dim
    rows = p.subspace.basis_rows
    m = Matrix(d, len(rows), tuple(tuple(row[block][r] for row in rows) for r in range(d)))
    img = _span((tuple(m.entries[r][c] for r in range(d)) for c in range(m.cols)), d)
    return m, (img.dim == d, img)


def _extension_entry_reference(fam: GluingFamily, small: MultiPullback, k: str) -> ExtensionEntry:
    """Extension entry (K, k), K the labels of P(K) = ``small``, by one
    Gauss-Jordan elimination over the columns [y | a] of the equations
    m_kj y - sum_t a_t m_jk x_t|_j = 0, j in K, rows built from
    ``small.columns`` as the sweep builds them: it passes iff no pivot lies
    right of the y block, and the first pivot there, at a_t, names the
    witness x_t."""
    over, sub = small.over, small.subspace
    d_k, n = fam.pieces[k].dim, sub.dim
    rows = []
    for j in over:
        block = small.columns[j]
        for lhs, m_r in zip(fam.map(k, j).matrix.entries, fam.map_rows[(j, k)]):
            rhs = [F0] * n
            for c, m in m_r:
                for t, x in enumerate(block[c]):
                    if x:
                        rhs[t] -= m * x
            rows.append([*lhs, *rhs])
    _, pivots = _reduce(rows, d_k + n)
    first = next((p - d_k for p in pivots if p >= d_k), None)
    witness = None if first is None else {
        j: sub.basis_rows[first][start:stop] for j, (start, stop) in small.blocks.items()
    }
    return ExtensionEntry(tuple(sorted(over)), k, witness is None, witness)


@pytest.fixture(scope="session")
def extension_entry_reference():
    """``extension_entry_reference(fam, small, k)``: the entry read off the
    full RREF of [y | a], which the elimination of the y block alone is
    tested against."""
    return _extension_entry_reference


@pytest.fixture(scope="session")
def projection_image_reference():
    """The stored projection matrix and the image read from its columns,
    which ``MultiPullback.projection`` and ``projection_surjective``'s read
    of the piece's block replaced, to test them against."""
    return _projection_image_reference


def _pullback_algebra(fam, p) -> Algebra:
    """The subspace of the pullback ``p`` of ``fam`` in the direct sum of its
    pieces, presented on its basis; ``subspace_algebra`` checks the unit and
    the closure."""
    ambient = Algebra.direct_sum([fam.pieces[i] for i in p.over])
    return subspace_algebra(ambient, p.subspace)


def pullback_kernels(fam) -> dict[str, Subspace]:
    """K_i, the kernel of the projection of ``build_pullback(fam)`` onto each
    piece i: the ideals whose quotients ``repair`` presents."""
    p = build_pullback(fam)
    return {i: kernel(p.projection(i)) for i in sorted(p.over)}


@pytest.fixture(scope="session")
def pullback_algebra():
    """The induced algebra of a ``MultiPullback``, which the library never
    builds: the reference for the closure of the pullback and for the
    overlaps of ``repair``."""
    return _pullback_algebra


def _dense_parse_algebra(value, path, label) -> Algebra:
    """The parse the sparse one replaced: every constants vector through
    ``_parse_vector`` into a dense table, then ``Algebra.from_table``."""
    specfile._expect(value, dict, path, "an object")
    dim = specfile._integer(specfile._get(value, "dim", path), 0, f"{path}.dim")
    unit = specfile._parse_vector(specfile._get(value, "unit", path), dim, f"{path}.unit")
    here = f"{path}.structure_constants"
    sc = specfile._get(value, "structure_constants", path)
    specfile._expect(sc, list, here, "a list")
    if len(sc) != dim:
        raise specfile.DocumentError(f"expected {dim} rows", here)
    table = []
    for a, row in enumerate(sc):
        if not isinstance(row, list):
            raise specfile.DocumentError("expected a list", f"{here}[{a}]")
        if len(row) != dim:
            raise specfile.DocumentError(f"expected {dim} entries", f"{here}[{a}]")
        table.append(tuple(specfile._parse_vector(v, dim, here, a, b) for b, v in enumerate(row)))
    name = specfile._expect(value.get("label", label), str, f"{path}.label", "a string")
    return Algebra.from_table(table, unit, name)


def _dense_table(a: Algebra) -> tuple[tuple[tuple, ...], ...]:
    """The dense structure constants that ``products`` replaced:
    ``table[a][b]`` is the coordinate vector of e_a e_b."""
    def dense(v):
        out = [0] * a.dim
        for k, t in v:
            out[k] = t
        return tuple(out)

    return tuple(tuple(dense(v) for v in row) for row in a.products)


def _dense_algebra_json(a: Algebra) -> dict:
    """The writer the sparse one replaced: every vector of the dense table."""
    return {
        "dim": a.dim,
        "label": a.label,
        "unit": specfile.vector_json(a.unit),
        "structure_constants": [[specfile.vector_json(v) for v in row] for row in _dense_table(a)],
    }


@pytest.fixture(scope="session")
def dense_table():
    """``dense_table(a)``, the dense constants that the sparse product and
    validators are tested against."""
    return _dense_table


def _dense_parse_document(text: str):
    with mock.patch.object(specfile, "_parse_algebra", _dense_parse_algebra):
        return specfile.parse_document(text)


def _dense_family_json(fam: GluingFamily, options=None) -> dict:
    with mock.patch.object(specfile, "algebra_json", _dense_algebra_json):
        return specfile.family_json(fam, options)


@pytest.fixture(scope="session")
def dense_specfile():
    """``parse_algebra``, ``parse_document``, ``algebra_json`` and
    ``family_json`` as they were with dense structure constants: the
    reference that the sparse reader and writer are tested against, and the
    writer of the dense spelling, which the reader still accepts."""
    return SimpleNamespace(parse_algebra=_dense_parse_algebra, parse_document=_dense_parse_document,
                           algebra_json=_dense_algebra_json, family_json=_dense_family_json)


def _kernel_reference(f: Matrix) -> Subspace:
    """The null space of f in two eliminations: reduce f, write one null
    vector per free column, and reduce those vectors again into RREF."""
    reduced, pivots = _reduce(f.entries, f.cols)
    pivot_set = set(pivots)
    rows = []
    for c in range(f.cols):
        if c in pivot_set:
            continue
        v = [0] * f.cols
        v[c] = 1
        for i, p in enumerate(pivots):
            if reduced[i][c]:
                v[p] = -reduced[i][c]
        rows.append(v)
    return _span(rows, f.cols)


@pytest.fixture(scope="session")
def kernel_reference():
    """The two-pass kernel that ``exactlin.kernel``'s single elimination
    replaced, to test it against."""
    return _kernel_reference


def _intersect_reference(u: Subspace, v: Subspace) -> Subspace:
    """The meet by the Zassenhaus block: row-reduce [[U U], [V 0]]; the
    right halves of the rows whose left half vanished span u & v, and are
    already in RREF."""
    n = u.ambient_dim
    block = [list(row) + list(row) for row in u.basis_rows]
    block += [list(row) + [0] * n for row in v.basis_rows]
    reduced, pivots = _reduce(block, 2 * n)
    keep = [r for r, p in enumerate(pivots) if p >= n]
    return Subspace(n, tuple(reduced[r][n:] for r in keep))


@pytest.fixture(scope="session")
def intersect_reference():
    """The Zassenhaus block that ``exactlin.intersect``'s elimination over
    v's constraint rows replaced, to test it against."""
    return _intersect_reference


def oriented_pairs(g: FiniteGluing, i: str, j: str) -> tuple[tuple[str, str], ...]:
    """The identified (point of i, point of j) pairs of pieces i and j."""
    key = pair_key(i, j)
    stored = g.identifications.get(key, ())
    return stored if key == (i, j) else tuple((b, a) for a, b in stored)


def indicator_matrix(points, chosen) -> Matrix:
    """The restriction of functions on ``points`` to the ``chosen`` points,
    each row a pass over all the points: how ``FiniteGluing.dual_family``
    built its maps before it took their rows from one identity matrix."""
    rows = []
    for c in chosen:
        rows.append(tuple(F1 if p == c else F0 for p in points))
    return Matrix(len(chosen), len(points), tuple(rows))


def _glue_reference(g: FiniteGluing, over=None) -> GluedSpace:
    """``finset.glue`` before the point ids: a union-find over the chosen
    pieces' (piece, point) tuples, found through a dict, with no memo."""
    g.require_valid()
    chosen = set(g.labels if over is None else over)
    key = tuple(i for i in g.labels if i in chosen)
    points = [(i, p) for i in key for p in g.spaces[i]]
    idx = {pt: n for n, pt in enumerate(points)}
    parent = list(range(len(points)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(key, 2):
        for a, b in oriented_pairs(g, i, j):
            parent[find(idx[(i, a)])] = find(idx[(j, b)])
    groups: dict = {}
    for n in range(len(points)):
        groups.setdefault(find(n), []).append(points[n])
    classes = tuple(map(tuple, groups.values()))
    class_of = {pt: c for c, cls in enumerate(classes) for pt in cls}
    return GluedSpace(key, classes, class_of)


def _embedding_reference(g: FiniteGluing, inner, outer) -> EmbeddingReport:
    """``finset.check_embedding`` before the root counts: both glued spaces,
    then the pairs of inner classes that land in one outer class."""
    small, big = _glue_reference(g, inner), _glue_reference(g, outer)
    hits: dict = {}
    for c, cls in enumerate(small.classes):
        hits.setdefault(big.class_of[cls[0]], []).append(c)
    merged = []
    for group in hits.values():
        for a, b in itertools.combinations(group, 2):
            merged.append((small.classes[a], small.classes[b]))
    merged.sort()
    return EmbeddingReport(small.over, big.over, not merged, tuple(merged))


@pytest.fixture(scope="session")
def gluing_reference():
    """``glue(g, over)`` and ``embedding(g, inner, outer)``: the glued space
    and the embedding as they were computed from point tuples, to test the
    point ids and root counts against."""
    return SimpleNamespace(glue=_glue_reference, embedding=_embedding_reference)


def _pullback_subspace_reference(fam: GluingFamily, over) -> Subspace:
    """``multipullback.pullback_subspace`` before the family kept its pair
    rows: each row built densely from the two maps' rows, then ``kernel`` of
    the stacked matrix."""
    order = [i for i in fam.labels if i in set(over)]
    slices = _blocks(fam, order)
    total = sum(fam.pieces[i].dim for i in order)
    rows: list[list] = []
    for i, j in itertools.combinations(order, 2):
        fwd = fam.map(i, j).matrix
        bwd = fam.map(j, i).matrix
        for r in range(fam.overlap(i, j).dim):
            row = [F0] * total
            for c, x in enumerate(fwd.entries[r]):
                if x:
                    row[slices[i].start + c] = x
            for c, x in enumerate(bwd.entries[r]):
                if x:
                    row[slices[j].start + c] -= x
            rows.append(row)
    return kernel(Matrix(len(rows), total, tuple(tuple(r) for r in rows)))


@pytest.fixture(scope="session")
def pullback_subspace_reference():
    """The pullback subspace over a label subset, from a dense stacked
    matrix, to test the family's pair rows against."""
    return _pullback_subspace_reference


def _surjective_reference(f: AlgebraHom) -> bool:
    """Whether f is onto, by the rank of its matrix: the pivots of one
    elimination of its rows."""
    _, pivots = _reduce(f.matrix.entries, f.matrix.cols)
    return len(pivots) == f.target.dim


@pytest.fixture(scope="session")
def surjective_reference():
    """The rank test of surjectivity, the reference for validation's read
    of each map's kernel."""
    return _surjective_reference


def _validate_algebra_reference(a: Algebra) -> Violation | None:
    """``validate_algebra`` before the support masks were kept on the
    algebra: the unit check sums u_m e_m e_i and u_m e_i e_m over every m
    with u_m != 0 into dense vectors, and each call scans all d^2 products
    for their masks."""
    d, prods = a.dim, a.products
    unit = _sparse(a.unit)
    for i in range(d):
        e = ((i, F1),)
        if _sparse(_combine(((u, prods[m][i]) for m, u in unit), d)) != e:
            return Violation("unit", (i,), f"unit * e_{i} != e_{i}")
        if _sparse(_combine(((u, prods[i][m]) for m, u in unit), d)) != e:
            return Violation("unit", (i,), f"e_{i} * unit != e_{i}")
    rows = [_mask(k for k, v in enumerate(row) if v) for row in prods]
    through: list[dict[int, int]] = [{} for _ in range(d)]
    reach = [0] * d
    for j, row in enumerate(prods):
        for k, v in enumerate(row):
            for l, _ in v:
                through[j][l] = through[j].get(l, 0) | 1 << k
                reach[l] |= 1 << j
    for i in range(d):
        row_i, live = prods[i], rows[i]
        js = live
        for l in _bits(live):
            js |= reach[l]
        for j in _bits(js):
            left = row_i[j]
            ks = 0
            for l, _ in left:
                ks |= rows[l]
            for l, m in through[j].items():
                if live >> l & 1:
                    ks |= m
            for k in _bits(ks):
                lhs = _combine(((c, prods[l][k]) for l, c in left), d)
                rhs = _combine(((c, row_i[l]) for l, c in prods[j][k]), d)
                if lhs != rhs:
                    return Violation(
                        "associativity", (i, j, k), f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})"
                    )
    return None


def _validate_hom_reference(f: AlgebraHom) -> Violation | None:
    """``validate_hom`` before it read the source's support masks: it scans
    every product of the source for them."""
    if f.matrix.apply(f.source.unit) != f.target.unit:
        return Violation("hom-unit", (), "unit does not map to the unit")
    d, prods = f.target.dim, f.target.products
    cols = [_sparse(c) for c in f.matrix.columns()]
    live = _mask(a for a, c in enumerate(cols) if c)
    for a, row in enumerate(f.source.products):
        bs = _mask(b for b, v in enumerate(row) if v)
        if live >> a & 1:
            bs |= live
        for b in _bits(bs):
            lhs = _combine(((t, cols[k]) for k, t in row[b]), d)
            rhs = _combine(((x * y, prods[p][q]) for p, x in cols[a] for q, y in cols[b]), d)
            if lhs != rhs:
                return Violation(
                    "hom-multiplicative", (a, b), f"f(e_{a} e_{b}) != f(e_{a}) f(e_{b})"
                )
    return None


@pytest.fixture(scope="session")
def validator_reference():
    """``algebra(a)`` and ``hom(f)``: the validators that the unit check
    over nonzero products and the shared support masks replaced, to test
    them against."""
    return SimpleNamespace(algebra=_validate_algebra_reference, hom=_validate_hom_reference)


def matrix_of(rows, cols: int | None = None) -> Matrix:
    """The matrix with these rows, each through ``vec``; ``cols`` is needed
    only when there are no rows."""
    entries = tuple(vec(r) for r in rows)
    return Matrix(len(entries), len(entries[0]) if cols is None else cols, entries)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, ((0,) * cols,) * rows)


def stacked(parts, cols: int) -> Matrix:
    """The matrices of ``parts``, each with ``cols`` columns, one above the next."""
    entries = tuple(row for p in parts for row in p.entries)
    return Matrix(len(entries), cols, entries)


@pytest.fixture(scope="session")
def matrices():
    """``zeros(rows, cols)`` and ``stacked(parts, cols)``, which only the
    tests build."""
    return SimpleNamespace(zeros=zeros, stacked=stacked)


BASIS_PIVOTS = (2, -1, Fraction(1, 3), Fraction(-3, 2))
BASIS_SHEARS = (1, -1, 2, Fraction(1, 3))


def _change_of_basis(dim: int, rng: random.Random) -> Matrix:
    """An invertible S: a diagonal of pivots that are not all units, then
    ``dim`` row operations row_a += c row_b.  S stays sparse, so the
    rebased structure constants stay cheap to validate."""
    s = [[rng.choice(BASIS_PIVOTS) if a == b else 0 for b in range(dim)] for a in range(dim)]
    for _ in range(dim if dim > 1 else 0):
        a, b = rng.sample(range(dim), 2)
        c = rng.choice(BASIS_SHEARS)
        s[a] = [x + c * y for x, y in zip(s[a], s[b])]
    return Matrix(dim, dim, tuple(tuple(row) for row in s))


def _rebased_algebra(a: Algebra, s: Matrix, s_inv: Matrix) -> Algebra:
    """``a`` presented on the columns of ``s`` as its basis."""
    cols = s.columns()
    table = [[s_inv.apply(a.multiply(x, y)) for y in cols] for x in cols]
    return Algebra.from_table(table, s_inv.apply(a.unit), a.label)


def _rebased(fam: GluingFamily, seed: int) -> GluingFamily:
    """The family with a seeded rational change of basis S applied to every
    piece and overlap, each map m conjugated to T^-1 m S, T the overlap's."""
    rng = random.Random(seed)
    bases = {}
    for key, a in [(i, fam.pieces[i]) for i in fam.labels] + sorted(fam.overlaps.items()):
        s = _change_of_basis(a.dim, rng)
        s_inv = invert(s)
        bases[key] = (s, s_inv, _rebased_algebra(a, s, s_inv))
    pieces = {i: bases[i][2] for i in fam.labels}
    overlaps = {key: bases[key][2] for key in fam.overlaps}
    maps = {}
    for (i, j), h in fam.maps.items():
        s, _, piece = bases[i]
        _, t_inv, overlap = bases[pair_key(i, j)]
        maps[(i, j)] = AlgebraHom(piece, overlap, t_inv @ h.matrix @ s)
    return GluingFamily(fam.labels, pieces, overlaps, maps)


@pytest.fixture(scope="session")
def rebased_families():
    """(name, family, rebased family) for example2, example3 and the duals
    of ``random_gluing`` seeds 0-29, the i-th rebased with seed i.  Their
    maps are not 0/1, so the eliminations divide and ``Fraction``s arise;
    every verdict is invariant under the change of basis."""
    named = [(name, fixture_family(name)) for name in ("example2", "example3")]
    named += [(f"seed{n}", dualize(random_gluing(n))) for n in range(30)]
    return [(name, fam, _rebased(fam, i)) for i, (name, fam) in enumerate(named)]


def twisted_triangle_gluing() -> FiniteGluing:
    """Three pieces A, B, C of two points a, b each: A~B and B~C match a<->a
    and b<->b, but A~C matches a<->b and b<->a.  Every map of the dual is
    injective, so clause 1 holds, while going round the triangle swaps the
    points, so clause 2 fails on every ordered triple."""
    points = ("a", "b")
    return FiniteGluing(("A", "B", "C"), {"A": points, "B": points, "C": points}, {
        ("A", "B"): (("a", "a"), ("b", "b")),
        ("B", "C"): (("a", "a"), ("b", "b")),
        ("A", "C"): (("a", "b"), ("b", "a")),
    })


@pytest.fixture(scope="session")
def twisted_triangle():
    """``twisted_triangle_gluing``, its dual ``family`` and that family
    ``rebased`` with seed 0."""
    g = twisted_triangle_gluing()
    return SimpleNamespace(gluing=g, family=dualize(g), rebased=_rebased(dualize(g), 0))


def _report_entry(entries, **fields):
    """The one entry of a report whose named fields have the given values."""
    found = [e for e in entries if all(getattr(e, name) == value for name, value in fields.items())]
    assert len(found) == 1, (fields, len(found))
    return found[0]


@pytest.fixture(scope="session")
def report_entry():
    """``report_entry(entries, **fields)``: look an entry up by its fields,
    e.g. ``triple=`` in a cocycle report or ``subset=`` and ``extend_by=`` in
    an extension report."""
    return _report_entry


def _transposed(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, m.columns())


def _checked_quotient(algebra: Algebra, ideal):
    """``quotient_algebra``'s quotient and the matrix of its canonical
    surjection, checked to be a homomorphism with the ideal as kernel."""
    q, surjection = quotient_algebra(algebra, ideal)
    assert validate_hom(surjection) is None
    assert kernel(surjection.matrix) == ideal
    return q, surjection.matrix


def _transition_reference(fam: GluingFamily) -> SimpleNamespace:
    """Clause 2 decided per ordered triple by six compositions, as before
    it became one loop per trio.

    ``charts[(i, j, k)]`` holds the checked quotients of B_i by
    ker m_ij + ker m_ik (``piece_quotient``, surjection ``bracket``) and of
    B_ij by ``pushed_kernel`` = m_ij(ker m_ik) (``overlap_quotient``,
    surjection ``overlap_projection``), and ``iso``, the map between them
    induced by m_ij, read through the right inverse B^T (B B^T)^-1 of the
    bracket B, with ``iso_inv``.  ``status[(i, j, k)]`` is "not evaluable"
    unless clause 1 holds on the whole trio, and otherwise "ok" exactly when
    phi(i<-k over j) == phi(i<-j over k) phi(j<-k over i), with
    phi(a<-b over c) = iso(a, b, c)^-1 iso(b, a, c).
    """
    labels = sorted(fam.labels)
    quotients: dict = {}

    def checked(key, algebra, ideal):
        # (i, j, k) and (i, k, j) share the piece quotient
        if key not in quotients:
            quotients[key] = _checked_quotient(algebra, ideal)
        return quotients[key]

    charts = {}
    for i, j, k in itertools.permutations(labels, 3):
        m_ij, ker_ik = fam.map(i, j).matrix, fam.map_kernels[(i, k)]
        ksum = subspace_sum(fam.map_kernels[(i, j)], ker_ik)
        pushed = image(m_ij, ker_ik)
        piece_q, bracket = checked((i, ksum), fam.pieces[i], ksum)
        overlap_q, overlap_projection = checked((pair_key(i, j), pushed), fam.overlap(i, j), pushed)
        section = _transposed(bracket) @ invert(bracket @ _transposed(bracket))
        iso = overlap_projection @ m_ij @ section
        charts[(i, j, k)] = SimpleNamespace(
            triple=(i, j, k), piece_quotient=piece_q, bracket=bracket, pushed_kernel=pushed,
            overlap_quotient=overlap_q, overlap_projection=overlap_projection,
            iso=iso, iso_inv=invert(iso),
        )

    def transition(a, b, c):
        return charts[(a, b, c)].iso_inv @ charts[(b, a, c)].iso

    status = {}
    for i, j, k in itertools.permutations(labels, 3):
        if any(charts[(a, b, c)].pushed_kernel != charts[(b, a, c)].pushed_kernel
               for a, b, c in itertools.permutations((i, j, k))):
            status[(i, j, k)] = "not evaluable"
        else:
            same = transition(i, k, j) == transition(i, j, k) @ transition(j, k, i)
            status[(i, j, k)] = "ok" if same else "fail"
    return SimpleNamespace(charts=charts, status=status)


@pytest.fixture(scope="session")
def transition_reference():
    """``transition_reference(fam)``: clause 2 by the six compositions per
    trio that the loop replaced, on charts taken from ``quotient_algebra``'s
    checked surjections; computed once per family."""
    done: dict[int, tuple] = {}

    def reference(fam: GluingFamily) -> SimpleNamespace:
        if id(fam) not in done:
            done[id(fam)] = (fam, _transition_reference(fam))  # keeps fam, so its id stays unique
        return done[id(fam)][1]

    return reference


@pytest.fixture
def record_calls(monkeypatch):
    """``record(module, name)``: a list of the arguments of every call of
    module.name, from every gluecheck module that imported it."""
    def record(module, name) -> list:
        original = getattr(module, name)
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("gluecheck")]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, recorded)
        return calls

    return record


def nilpotent_plane_algebra() -> Algebra:
    """Q + V with V a square-zero plane; every line of V is an ideal."""
    u, v1, v2 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    zero = [0, 0, 0]
    table = [
        [u, v1, v2],
        [v1, zero, zero],
        [v2, zero, zero],
    ]
    return Algebra.from_table(table, unit=u, label="Q+V")


def build_three_line_family() -> GluingFamily:
    """Four pieces whose central kernels are three distinct lines of V,
    a generated lattice that is not distributive."""
    hub = nilpotent_plane_algebra()
    lines = {
        "P2": span([[0, 1, 0]], 3),
        "P3": span([[0, 0, 1]], 3),
        "P4": span([[0, 1, 1]], 3),
    }
    labels = ("P1", "P2", "P3", "P4")
    pieces: dict[str, Algebra] = {"P1": hub}
    overlaps: dict[tuple[str, str], Algebra] = {}
    maps: dict[tuple[str, str], AlgebraHom] = {}
    for spoke, line in lines.items():
        q, surj = quotient_algebra(hub, line, label=f"Q+V/{spoke}")
        pieces[spoke] = q
        overlaps[("P1", spoke)] = q
        maps[("P1", spoke)] = surj
        maps[(spoke, "P1")] = AlgebraHom(q, q, Matrix.identity(q.dim))
    trivial = Algebra.zero("0")
    for i, j in itertools.combinations(("P2", "P3", "P4"), 2):
        overlaps[(i, j)] = trivial
        maps[(i, j)] = AlgebraHom(pieces[i], trivial, zeros(0, pieces[i].dim))
        maps[(j, i)] = AlgebraHom(pieces[j], trivial, zeros(0, pieces[j].dim))
    fam = GluingFamily(labels, pieces, overlaps, maps)
    fam.require_valid()
    return fam


@pytest.fixture
def three_line_family() -> GluingFamily:
    return build_three_line_family()


def build_augmented_three_line_family() -> GluingFamily:
    """``build_three_line_family`` with each spoke-to-spoke overlap Q,
    reached from both spokes by the augmentation: each spoke's chart basis
    is (unit, nilpotent), so the map is [[1, 0]].  The smallest family
    known whose hub is not distributive while its cocycle condition and
    pairwise extension hold and subset extension fails."""
    fam = build_three_line_family()
    overlaps, maps = dict(fam.overlaps), dict(fam.maps)
    point = Algebra.functions(1, "Q")
    for i, j in itertools.combinations(("P2", "P3", "P4"), 2):
        overlaps[(i, j)] = point
        maps[(i, j)] = AlgebraHom(fam.pieces[i], point, matrix_of([[1, 0]]))
        maps[(j, i)] = AlgebraHom(fam.pieces[j], point, matrix_of([[1, 0]]))
    augmented = GluingFamily(fam.labels, fam.pieces, overlaps, maps)
    augmented.require_valid()
    return augmented


@pytest.fixture
def augmented_three_line_family() -> GluingFamily:
    return build_augmented_three_line_family()


def star_gluing(spokes: int = 14) -> FiniteGluing:
    """A hub H of ``spokes`` points with a one-point piece glued at each.
    In the dual, H's kernels are the coordinate hyperplanes of Q^spokes,
    whose 2^spokes meets pass the default lattice cap at 14 spokes."""
    hub = tuple(f"h{n}" for n in range(spokes))
    labels = ("H",) + tuple(f"S{n:02d}" for n in range(spokes))
    spaces = {"H": hub, **{label: ("p",) for label in labels[1:]}}
    identifications = {("H", label): ((point, "p"),) for point, label in zip(hub, labels[1:])}
    return FiniteGluing(labels, spaces, identifications)


def spokes_gluing() -> FiniteGluing:
    """Each spoke matches its points to S1 = {a, b, c} and the spokes share
    nothing, so in the dual S1's kernels are the three coordinate axes:
    five meets, whose count proves distributivity, and eight lattice
    elements."""
    return FiniteGluing(
        ("S1", "S2", "S3", "S4"),
        {"S1": ("a", "b", "c"), "S2": ("b", "c"), "S3": ("a", "c"), "S4": ("a", "b")},
        {("S1", "S2"): (("b", "b"), ("c", "c")), ("S1", "S3"): (("a", "a"), ("c", "c")),
         ("S1", "S4"): (("a", "a"), ("b", "b"))},
    )
