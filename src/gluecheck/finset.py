"""Gluing of finite point sets and its function-algebra dual.

The continuous picture (spaces glued along identified closed subspaces) is
discretized: pieces are finite labelled point sets, identifications are
partial bijections between pairs of pieces, and the glued space is the
colimit computed by union-find.  Dually, each piece becomes the function
algebra on its points and each identification becomes a pair of
restriction maps into the function algebra on the identified pairs; that
family is surjective and distributive by construction, which is what makes
this module a corpus generator for the pullback checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from gluecheck.algebra import Algebra, AlgebraHom, GluingFamily, _trusted_family, pair_key
from gluecheck.exactlin import Matrix
from gluecheck.multipullback import build_pullback, check_condition3, projection_surjective
from gluecheck.unionfind import PointIndex, _numbered, _union_find

Point = tuple[str, str]  # (piece label, point label)


@dataclass(frozen=True, eq=True)
class FiniteGluing:
    """Finite pieces plus pairwise partial identification bijections.

    ``identifications[(i, j)]`` (with i < j) lists (point of i, point of j)
    pairs; a missing pair means nothing is identified there.  Gluings are
    immutable by convention, so what is derived from one (its validation,
    its point ids, the roots and the glued space of each piece subset, the
    embedding of each pair of subsets, its dual family) is computed once
    and kept on the gluing.
    """

    labels: tuple[str, ...]
    spaces: Mapping[str, tuple[str, ...]]
    identifications: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]

    def problems(self) -> list[str]:
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        out = []
        if len(set(self.labels)) != len(self.labels):
            out.append("duplicate piece labels")
        for i in self.labels:
            if i not in self.spaces:
                out.append(f"no point set for piece {i}")
            elif len(set(self.spaces[i])) != len(self.spaces[i]):
                out.append(f"duplicate point labels in piece {i}")
        if out:
            return tuple(out)
        for (i, j), pairs in self.identifications.items():
            if (i, j) != pair_key(i, j):
                out.append(f"identification key ({i}, {j}) is not in canonical order")
                continue
            if i not in self.spaces or j not in self.spaces:
                out.append(f"identification ({i}, {j}) references unknown pieces")
                continue
            left = [a for a, _ in pairs]
            right = [b for _, b in pairs]
            if not set(left) <= set(self.spaces[i]):
                out.append(f"identification ({i}, {j}) uses points not in piece {i}")
            if not set(right) <= set(self.spaces[j]):
                out.append(f"identification ({i}, {j}) uses points not in piece {j}")
            if len(set(left)) != len(left) or len(set(right)) != len(right):
                out.append(f"identification ({i}, {j}) is not a partial bijection")
        return tuple(out)

    def require_valid(self) -> None:
        if self._problems:
            raise ValueError("; ".join(self._problems))

    @cached_property
    def point_index(self) -> PointIndex:
        """Integer ids of the points, built once per gluing (``_point_index``)."""
        return _point_index(self)

    @cached_property
    def subset_roots(self) -> dict:
        """Memo of ``_union_find``, keyed by the chosen labels in label order."""
        return {}

    @cached_property
    def glued_spaces(self) -> dict:
        """Memo of ``glue``, keyed by the chosen labels in label order."""
        return {}

    @cached_property
    def embeddings(self) -> dict:
        """Memo of ``check_embedding``, keyed by the inner and outer labels in label order."""
        return {}

    @cached_property
    def dual_family(self) -> GluingFamily:
        """Function-algebra family of the gluing: restriction maps to identified points.

        The overlap of {i, j} is the function algebra on the identification
        pairs; both restriction maps are surjective because the identification
        is a partial bijection.  The family is valid by construction, so it is
        built without validation, which the test suite runs instead.
        """
        self.require_valid()
        pieces = {i: Algebra.functions(self.spaces[i], label=f"functions({i})") for i in self.labels}
        # the indicator row of each point, from one identity matrix per piece
        row_of = {i: dict(zip(self.spaces[i], Matrix.identity(len(self.spaces[i])).entries))
                  for i in self.labels}
        overlaps: dict[tuple[str, str], Algebra] = {}
        maps: dict[tuple[str, str], AlgebraHom] = {}
        for i, j in itertools.combinations(self.labels, 2):
            a, b = pair_key(i, j)
            pairs = self.identifications.get((a, b), ())
            overlap = Algebra.functions(len(pairs), label=f"functions({a}~{b})")
            overlaps[a, b] = overlap
            left = Matrix(len(pairs), pieces[a].dim, tuple(row_of[a][x] for x, _ in pairs))
            right = Matrix(len(pairs), pieces[b].dim, tuple(row_of[b][y] for _, y in pairs))
            maps[(a, b)] = AlgebraHom(pieces[a], overlap, left)
            maps[(b, a)] = AlgebraHom(pieces[b], overlap, right)
        return _trusted_family(tuple(self.labels), pieces, overlaps, maps)


def _point_index(g: FiniteGluing) -> PointIndex:
    return _numbered(g.labels, g.spaces, g.identifications)


def _subset(g: FiniteGluing, over: Iterable[str] | None) -> tuple[str, ...]:
    """The chosen labels in label order, refused when unknown or none."""
    g.require_valid()
    chosen = set(g.labels if over is None else over)
    key = tuple(filter(chosen.__contains__, g.labels))
    if len(key) != len(chosen):
        raise ValueError(f"labels not in the gluing: {sorted(chosen - set(key))}")
    if not key:
        raise ValueError("the piece subset must be nonempty")
    return key


def _roots(g: FiniteGluing, key: tuple[str, ...]) -> dict[int, int]:
    """``_union_find`` over a piece subset, run once per subset of the gluing."""
    if key not in g.subset_roots:
        g.subset_roots[key] = _union_find(g.point_index, key)
    return g.subset_roots[key]


@dataclass(frozen=True)
class GluedSpace:
    """Colimit of the selected pieces: points modulo all identifications."""

    over: tuple[str, ...]
    classes: tuple[tuple[Point, ...], ...]
    class_of: Mapping[Point, int]

    @property
    def size(self) -> int:
        return len(self.classes)


def glue(g: FiniteGluing, over: Iterable[str] | None = None) -> GluedSpace:
    """The classes of the chosen pieces' points under their identifications,
    read off the subset's roots, computed once per piece subset of the
    gluing."""
    key = _subset(g, over)
    if key in g.glued_spaces:
        return g.glued_spaces[key]
    points = g.point_index.points
    groups: dict[int, list[Point]] = {}
    for x, root in _roots(g, key).items():
        groups.setdefault(root, []).append(points[x])
    classes = tuple(map(tuple, groups.values()))  # ordered by their first point
    class_of = {pt: c for c, cls in enumerate(classes) for pt in cls}
    g.glued_spaces[key] = GluedSpace(key, classes, class_of)
    return g.glued_spaces[key]


@dataclass(frozen=True)
class EmbeddingReport:
    """Injectivity of the canonical map glue(inner) -> glue(outer)."""

    inner_over: tuple[str, ...]
    outer_over: tuple[str, ...]
    injective: bool
    merged: tuple[tuple[tuple[Point, ...], tuple[Point, ...]], ...]


def check_embedding(g: FiniteGluing, inner: Iterable[str], outer: Iterable[str]) -> EmbeddingReport:
    """Whether a partial gluing sits inside a larger one without collapsing,
    settled once per pair of piece subsets of the gluing.

    Every inner class lies in one outer class, so the map is injective
    exactly when the inner points have as many distinct outer roots as
    inner ones; only a map that is not builds the inner glued space, to
    name the pairs of its classes whose first points share an outer
    root."""
    small = _subset(g, inner)
    big = _subset(g, outer)
    key = (small, big)
    if key in g.embeddings:
        return g.embeddings[key]
    if not set(small) <= set(big):
        raise ValueError("the inner piece subset must be contained in the outer one")
    inside, outside = _roots(g, small), _roots(g, big)
    if len(set(inside.values())) == len(set(map(outside.__getitem__, inside))):
        g.embeddings[key] = EmbeddingReport(small, big, True, ())
        return g.embeddings[key]
    classes, ids = glue(g, small).classes, g.point_index.ids
    hits: dict[int, list[int]] = {}
    for c, cls in enumerate(classes):
        hits.setdefault(outside[ids[cls[0]]], []).append(c)
    merged = []
    for group in hits.values():
        for a, b in itertools.combinations(group, 2):
            merged.append((classes[a], classes[b]))
    merged.sort()
    g.embeddings[key] = EmbeddingReport(small, big, False, tuple(merged))
    return g.embeddings[key]


def dualize(g: FiniteGluing) -> GluingFamily:
    """The gluing's function-algebra family, shared by every caller (see
    ``FiniteGluing.dual_family``)."""
    return g.dual_family


@dataclass(frozen=True)
class DualityReport:
    """Cross-checks between a gluing and its dualized family.

    Any mismatch is a tool bug: pullback dimension must count glued
    classes, projection surjectivity must mirror piece embeddings, and
    pairwise extension must mirror partial-gluing embeddings.
    """

    pullback_dim: int
    class_count: int
    projection_embedding: tuple[tuple[str, bool, bool], ...]
    extension_embedding: tuple[tuple[tuple[str, str], str, bool, bool], ...]
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def duality_check(g: FiniteGluing) -> DualityReport:
    fam = dualize(g)
    glued = glue(g)
    pullback = build_pullback(fam)
    mismatches = []
    if pullback.dim != glued.size:
        mismatches.append(
            f"pullback dimension {pullback.dim} differs from glued class count {glued.size}"
        )

    proj_vs_embed = []
    for i in fam.labels:
        surjective, _ = projection_surjective(pullback, i)
        embedded = check_embedding(g, {i}, g.labels).injective
        proj_vs_embed.append((i, surjective, embedded))
        if surjective != embedded:
            mismatches.append(
                f"projection onto {i} surjective={surjective} but piece embedding={embedded}"
            )

    ext = check_condition3(fam)
    ext_vs_embed = []
    for entry in ext.entries:
        i, j = entry.subset
        k = entry.extend_by
        embedded = check_embedding(g, {i, j}, {i, j, k}).injective
        ext_vs_embed.append(((i, j), k, entry.ok, embedded))
        if entry.ok != embedded:
            mismatches.append(
                f"extension of ({i},{j}) by {k} ok={entry.ok} but partial-gluing embedding={embedded}"
            )
    return DualityReport(
        pullback.dim, glued.size, tuple(proj_vs_embed), tuple(ext_vs_embed), tuple(mismatches)
    )


def chain_points(length: int = 3) -> tuple[str, ...]:
    """Point labels for a discretized interval; endpoints are '-1' and '1'."""
    if length < 2:
        raise ValueError("a chain needs at least its two endpoints")
    if length == 3:
        return ("-1", "0", "1")
    inner = tuple(f"t{m}" for m in range(1, length - 1))
    return ("-1",) + inner + ("1",)


def _three_chains(length: int) -> dict[str, tuple[str, ...]]:
    pts = chain_points(length)
    return {"I1": pts, "I2": pts, "I3": pts}


def tstar(chain_length: int = 3) -> FiniteGluing:
    """Three chains with both endpoints of I2 and I3 attached: the gluing
    whose middle piece collapses in the colimit."""
    return FiniteGluing(
        ("I1", "I2", "I3"),
        _three_chains(chain_length),
        {
            ("I1", "I2"): (("1", "1"),),
            ("I1", "I3"): (("1", "1"),),
            ("I2", "I3"): (("-1", "1"), ("1", "-1")),
        },
    )


def tcirc_a(chain_length: int = 3) -> FiniteGluing:
    """Three chains glued into a circle with a tail, overlap of I2 and I3 at
    one endpoint pair only; every piece embeds but the partial gluing of
    I2 and I3 does not."""
    return FiniteGluing(
        ("I1", "I2", "I3"),
        _three_chains(chain_length),
        {
            ("I1", "I2"): (("1", "1"),),
            ("I1", "I3"): (("1", "1"),),
            ("I2", "I3"): (("-1", "-1"),),
        },
    )


def tcirc_c(chain_length: int = 3) -> FiniteGluing:
    """Same glued space as tcirc_a but with I2 and I3 identified at both
    endpoint pairs, so all partial gluings embed."""
    return FiniteGluing(
        ("I1", "I2", "I3"),
        _three_chains(chain_length),
        {
            ("I1", "I2"): (("1", "1"),),
            ("I1", "I3"): (("1", "1"),),
            ("I2", "I3"): (("-1", "-1"), ("1", "1")),
        },
    )


FIXTURES = {
    "tcirc-a": tcirc_a,
    "tcirc-c": tcirc_c,
    "tstar": tstar,
    "example1": tstar,
    "example2": tcirc_a,
    "example3": tcirc_c,
}


def fixture_gluing(name: str, chain_length: int = 3) -> FiniteGluing:
    builder = FIXTURES.get(name)
    if builder is None:
        raise KeyError(f"unknown fixture {name!r}; available: " + ", ".join(FIXTURES))
    return builder(chain_length)


def fixture_family(name: str, chain_length: int = 3) -> GluingFamily:
    return dualize(fixture_gluing(name, chain_length))


def random_gluing(seed: int, max_pieces: int = 6, max_points: int = 12) -> FiniteGluing:
    """Deterministic random gluing for property-test corpora.

    Identification sizes are kept small most of the time so the kernel
    lattices stay at desk scale; roughly a quarter of the piece pairs get
    no identification at all, which exercises zero-dimensional overlaps.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_pieces)
    labels = tuple(f"S{t}" for t in range(1, n + 1))
    spaces = {
        lab: tuple(f"p{m}" for m in range(1, rng.randint(1, max_points) + 1))
        for lab in labels
    }
    identifications: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for i, j in itertools.combinations(labels, 2):
        if rng.random() < 0.25:
            continue
        most = min(len(spaces[i]), len(spaces[j]))
        size = rng.randint(1, most) if rng.random() < 0.2 else rng.randint(1, min(3, most))
        left = rng.sample(spaces[i], size)
        right = rng.sample(spaces[j], size)
        # past 9 pieces the labels S10, S11, ... sort before S2
        key = pair_key(i, j)
        identifications[key] = tuple(zip(left, right) if key == (i, j) else zip(right, left))
    return FiniteGluing(labels, spaces, identifications)
