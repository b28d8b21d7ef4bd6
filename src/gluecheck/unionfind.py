"""Union-find over numbered points, shared by gluings and families.

A finite gluing numbers its points, and a family whose maps restrict to
identified coordinates numbers its pieces' coordinates, in label order;
both keep their identifications as pairs of ids.  One union-find per
label subset then gives the root id of each of the subset's ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class PointIndex:
    """Points numbered in label order: piece i holds the ids
    ``piece_ids[i]``, ``points[x]`` is the (piece, point) pair of id x and
    ``ids[pt]`` the id of pt, and ``pairs`` holds each identification as
    pairs of ids."""

    points: tuple[tuple, ...]
    ids: Mapping[tuple, int]
    piece_ids: Mapping[str, tuple[int, ...]]
    pairs: Mapping[tuple[str, str], tuple[tuple[int, int], ...]]


def _numbered(labels: Iterable[str], members: Mapping[str, Iterable],
              identified: Mapping[tuple[str, str], Iterable[tuple]]) -> PointIndex:
    """The index of the points ``members[i]`` of each piece, numbered in
    ``labels`` order, with each (point of i, point of j) pair of
    ``identified[(i, j)]`` as a pair of ids."""
    points: list[tuple] = []
    piece_ids = {}
    for i in labels:
        start = len(points)
        points.extend((i, p) for p in members[i])
        piece_ids[i] = tuple(range(start, len(points)))
    ids = {pt: x for x, pt in enumerate(points)}
    pairs = {(i, j): tuple((ids[i, a], ids[j, b]) for a, b in stored)
             for (i, j), stored in identified.items()}
    return PointIndex(tuple(points), ids, piece_ids, pairs)


def _union_find(index: PointIndex, over: tuple[str, ...]) -> dict[int, int]:
    """The root id of each point id of the pieces ``over``, in the order of
    ``over`` and then of id, under the identifications among those pieces.
    A point that no such identification names is its own root."""
    parent = list(range(len(index.points)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    named: list[int] = []
    for (i, j), pairs in index.pairs.items():
        if i in over and j in over:
            for a, b in pairs:
                parent[find(a)] = find(b)
                named += a, b
    ids = list(itertools.chain.from_iterable(map(index.piece_ids.__getitem__, over)))
    roots = dict(zip(ids, ids))
    for x in named:
        roots[x] = find(x)
    return roots
