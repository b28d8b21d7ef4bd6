"""Seeded inputs of the three workloads, and the facts their outputs must show.

The benchmark writes every document itself, from its own model of a finite
gluing, so that neither the inputs nor the expected verdicts come from the
code under test:

* ``random_gluing`` draws the same gluings as ``gluecheck.finset.random_gluing``
  at the defaults of ``scripts/run_corpus.py`` (2-6 pieces, up to 12 points),
  and keeps drawing them if the library's generator changes;
* the dual family of a gluing is written directly: each piece and overlap is
  a function algebra, each map restricts functions to identified points;
* ``GluingFacts`` computes glued classes and embeddings by its own union-find.

Choice of the seed.  The corpus families are the fixed acceptance battery
(random_gluing seeds 0, 1, ...).  ``--seed`` draws an isomorphic
presentation of each one: piece names, point names and their order, the
order of identified pairs, and the order of the operations.  It does not
draw new families, because the cost of one family ranges over 50x: a fresh
draw of 100 families moves the corpus total by about 15% between seeds,
which adds to the host's own run-to-run drift and leaves no room within the
largest bound a metric may have (25%).  A re-presentation leaves the
verdicts and the work in place and changes every matrix the program reads.
The fixtures keep their piece names, which the README's facts use.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("chain", "corpus", "repair")

# Chain length of the interval fixtures.  Validation of the algebra axioms
# dominates a check here (3.7 of 6.3 profiled seconds).  24 rather than 30
# keeps a `chain` round near 5 s, so a 30 s run times each fixture about
# six times.
CHAIN_LENGTH = 24
# The fixtures of `repair` are shorter: a repair and the re-check of its
# output cost three times a check, and at chain 24 the two fixtures alone
# took 13 of a round's 19 s, so a 30 s run timed each of them once or
# twice.  At 16 a round takes about 9 s.
REPAIR_CHAIN_LENGTH = 16
CORPUS_FAMILIES = 100
REPAIR_FAMILIES = 50
# The defaults of scripts/run_corpus.py.
MAX_PIECES = 6
MAX_POINTS = 12

# Sizes for the benchmark's own tests.
TINY = {"chain_length": 4, "repair_chain_length": 4, "corpus_families": 6, "repair_families": 6}
FULL = {"chain_length": CHAIN_LENGTH, "repair_chain_length": REPAIR_CHAIN_LENGTH,
        "corpus_families": CORPUS_FAMILIES, "repair_families": REPAIR_FAMILIES}


@dataclass(frozen=True)
class Gluing:
    """Point sets per piece and identified point pairs per piece pair.

    ``identifications[(i, j)]`` has ``i < j`` and lists ``(point of i,
    point of j)`` pairs; pairs with nothing identified are absent.
    """

    labels: tuple[str, ...]
    spaces: dict[str, tuple[str, ...]]
    identifications: dict[tuple[str, str], tuple[tuple[str, str], ...]]

    def pairs(self, i: str, j: str) -> tuple[tuple[str, str], ...]:
        if i < j:
            return self.identifications.get((i, j), ())
        return tuple((b, a) for a, b in self.identifications.get((j, i), ()))


def random_gluing(seed: int) -> Gluing:
    """The corpus gluing of ``seed``; same random draws as the library's."""
    rng = random.Random(seed)
    n = rng.randint(2, MAX_PIECES)
    labels = tuple(f"S{t}" for t in range(1, n + 1))
    spaces = {
        lab: tuple(f"p{m}" for m in range(1, rng.randint(1, MAX_POINTS) + 1))
        for lab in labels
    }
    identifications = {}
    for i, j in itertools.combinations(labels, 2):
        if rng.random() < 0.25:
            continue
        most = min(len(spaces[i]), len(spaces[j]))
        size = rng.randint(1, most) if rng.random() < 0.2 else rng.randint(1, min(3, most))
        left = rng.sample(spaces[i], size)
        right = rng.sample(spaces[j], size)
        identifications[(i, j)] = tuple(zip(left, right))
    return Gluing(labels, spaces, identifications)


def _chain_points(length: int) -> tuple[str, ...]:
    if length == 3:
        return ("-1", "0", "1")
    return ("-1",) + tuple(f"t{m}" for m in range(1, length - 1)) + ("1",)


# The README's interval fixtures: gluing name, family name, identifications.
FIXTURES = {
    "example1": {("I1", "I2"): (("1", "1"),), ("I1", "I3"): (("1", "1"),),
                 ("I2", "I3"): (("-1", "1"), ("1", "-1"))},
    "example2": {("I1", "I2"): (("1", "1"),), ("I1", "I3"): (("1", "1"),),
                 ("I2", "I3"): (("-1", "-1"),)},
    "example3": {("I1", "I2"): (("1", "1"),), ("I1", "I3"): (("1", "1"),),
                 ("I2", "I3"): (("-1", "-1"), ("1", "1"))},
}


def fixture_gluing(name: str, length: int) -> Gluing:
    pts = _chain_points(length)
    return Gluing(("I1", "I2", "I3"), {i: pts for i in ("I1", "I2", "I3")}, dict(FIXTURES[name]))


def represent(g: Gluing, rng: random.Random, rename_pieces: bool = True) -> Gluing:
    """An isomorphic presentation: renamed and reordered pieces and points."""
    labels = list(g.labels)
    names = dict(zip(labels, rng.sample(labels, len(labels)) if rename_pieces else labels))
    point_names = {}
    spaces = {}
    for i in labels:
        pts = list(g.spaces[i])
        renamed = dict(zip(pts, rng.sample(pts, len(pts)))) if rename_pieces else {p: p for p in pts}
        point_names[i] = renamed
        order = [renamed[p] for p in pts]
        rng.shuffle(order)
        spaces[names[i]] = tuple(order)
    identifications = {}
    for (i, j), matches in g.identifications.items():
        out = [(point_names[i][a], point_names[j][b]) for a, b in matches]
        a, b = names[i], names[j]
        if b < a:
            a, b = b, a
            out = [(y, x) for x, y in out]
        rng.shuffle(out)
        identifications[(a, b)] = tuple(out)
    index = [names[i] for i in labels]
    rng.shuffle(index)
    return Gluing(tuple(index), spaces, identifications)


def _function_algebra(n: int) -> dict:
    return {
        "dim": n,
        "unit": ["1"] * n,
        "structure_constants": [
            [["1" if a == b == k else "0" for k in range(n)] for b in range(n)]
            for a in range(n)
        ],
    }


def _restriction(points: tuple[str, ...], chosen: list[str]) -> list[list[str]]:
    return [["1" if p == c else "0" for p in points] for c in chosen]


def family_document(g: Gluing) -> dict:
    """The dual family: functions on each piece, restricted to identified points."""
    overlaps, maps = [], []
    for i, j in itertools.combinations(sorted(g.labels), 2):
        matches = g.identifications.get((i, j), ())
        overlaps.append({"pair": [i, j], **_function_algebra(len(matches))})
        maps.append({"from": i, "to": j, "matrix": _restriction(g.spaces[i], [a for a, _ in matches])})
        maps.append({"from": j, "to": i, "matrix": _restriction(g.spaces[j], [b for _, b in matches])})
    return {
        "kind": "algebra-family",
        "index": list(g.labels),
        "pieces": {i: _function_algebra(len(g.spaces[i])) for i in g.labels},
        "overlaps": overlaps,
        "maps": maps,
    }


def gluing_document(g: Gluing) -> dict:
    return {
        "kind": "finite-gluing",
        "index": list(g.labels),
        "spaces": {i: list(g.spaces[i]) for i in g.labels},
        "identifications": [
            {"pair": list(key), "matches": [list(m) for m in matches]}
            for key, matches in sorted(g.identifications.items())
        ],
    }


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)


def _classes(g: Gluing, over) -> dict:
    """Glued class representative of every point of the chosen pieces."""
    uf = _UnionFind()
    chosen = sorted(over)
    for i in chosen:
        for p in g.spaces[i]:
            uf.find((i, p))
    for i, j in itertools.combinations(chosen, 2):
        for a, b in g.pairs(i, j):
            uf.union((i, a), (j, b))
    return {pt: uf.find(pt) for pt in uf.parent}


def _embeds(g: Gluing, inner, outer) -> bool:
    small, big = _classes(g, inner), _classes(g, outer)
    seen: dict = {}
    for pt, cls in small.items():
        if seen.setdefault(big[pt], cls) != cls:
            return False
    return True


@dataclass(frozen=True)
class GluingFacts:
    """What any correct tool must report about a gluing and its dual family.

    ``triple_embedded[(i, j, k)]`` (``i < j``) says the partial gluing of
    {i, j} embeds in that of {i, j, k}; by the duality theorem it is the
    pairwise-extension verdict for (i, j) extended by k, and by the
    equivalence theorem their conjunction is the cocycle verdict.
    """

    classes: frozenset
    piece_embedded: dict
    pair_embedded: dict
    triple_embedded: dict

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def extensions_hold(self) -> bool:
        return all(self.triple_embedded.values())

    @property
    def pieces_embed(self) -> bool:
        return all(self.piece_embedded.values())


def gluing_facts(g: Gluing) -> GluingFacts:
    everything = _classes(g, g.labels)
    groups: dict = {}
    for pt, cls in everything.items():
        groups.setdefault(cls, set()).add(pt)
    labels = sorted(g.labels)
    return GluingFacts(
        classes=frozenset(frozenset(s) for s in groups.values()),
        piece_embedded={i: _embeds(g, {i}, labels) for i in labels},
        pair_embedded={(i, j): _embeds(g, {i, j}, labels)
                       for i, j in itertools.combinations(labels, 2)},
        triple_embedded={(i, j, k): _embeds(g, {i, j}, {i, j, k})
                         for i, j in itertools.combinations(labels, 2)
                         for k in labels if k not in (i, j)},
    )


def repaired_facts(facts: GluingFacts) -> GluingFacts:
    """What `check` must show on the repaired family: the same pullback, with
    every projection surjective and every extension holding."""
    return replace(facts, piece_embedded=dict.fromkeys(facts.piece_embedded, True),
                   triple_embedded=dict.fromkeys(facts.triple_embedded, True))


@dataclass
class Op:
    """One ``cli.main`` call on one document, with what its output must show."""

    command: str            # "check", "glue" or "repair"
    argv: list[str]
    facts: GluingFacts
    pieces: int
    fixture: str | None = None  # for `check` on a fixture: the README's row applies
    out: Path | None = None     # where `repair` writes

    @property
    def algebras(self) -> int:
        """Algebras in the family the operation reads: pieces and overlaps."""
        return self.pieces + self.pieces * (self.pieces - 1) // 2

    @property
    def maps(self) -> int:
        return self.pieces * (self.pieces - 1)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's documents under ``workdir``; return one round of ops."""
    size = TINY if tiny else FULL
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    groups: list[list[Op]] = []

    def family_file(tag: str, g: Gluing) -> str:
        return str(_write(workdir / f"{tag}.family.json", family_document(g)))

    if name == "chain":
        for fx in ("example1", "example2", "example3"):
            g = represent(fixture_gluing(fx, size["chain_length"]), rng, rename_pieces=False)
            path = family_file(fx, g)
            groups.append([Op("check", ["check", path, "--json"], gluing_facts(g), 3, fixture=fx)])
    elif name == "corpus":
        for n in range(size["corpus_families"]):
            g = represent(random_gluing(n), rng)
            facts = gluing_facts(g)
            fam = family_file(f"c{n}", g)
            glu = str(_write(workdir / f"c{n}.gluing.json", gluing_document(g)))
            k = len(g.labels)
            groups.append([Op("check", ["check", fam, "--json"], facts, k)])
            groups.append([Op("glue", ["glue", glu, "--duality", "--json"], facts, k)])
    elif name == "repair":
        sources = [(fx, represent(fixture_gluing(fx, size["repair_chain_length"]), rng, rename_pieces=False))
                   for fx in ("example2", "example3")]
        sources += [(f"r{n}", represent(random_gluing(n), rng)) for n in range(size["repair_families"])]
        for tag, g in sources:
            facts = gluing_facts(g)
            out = workdir / f"{tag}.repaired.json"
            k = len(g.labels)
            group = [Op("repair", ["repair", family_file(tag, g), "--json", "--out", str(out)],
                        facts, k, out=out)]
            if facts.pieces_embed:
                group.append(Op("check", ["check", str(out), "--json"], repaired_facts(facts), k))
            groups.append(group)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(groups)
    return [op for group in groups for op in group]
