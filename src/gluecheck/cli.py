"""Command-line front end.

Three subcommands: ``check`` runs the algebraic verdicts on a family,
``glue`` reports colimit and embedding facts for a finite gluing, and
``repair`` re-presents a family so the cocycle condition holds and emits
the result as a new document.

Exit codes: 0 all requested verdicts pass, 1 some verdict failed,
2 invalid input, 3 a hypothesis or precondition kept a check from running.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

from gluecheck.algebra import FamilyValidationError
from gluecheck.exactlin import Subspace
from gluecheck.finset import (
    FAMILY_FIXTURES,
    GLUING_FIXTURES,
    check_embedding,
    duality_check,
    dualize,
    fixture_gluing,
    glue,
)
from gluecheck.lattice import DEFAULT_CAP
from gluecheck.multipullback import (
    DEFAULT_MAX_INDICES,
    ExtensionReport,
    RepairRefused,
    TooManyPieces,
    TransitionEntry,
    analyse,
    repair,
)
from gluecheck import specfile

PASS, FAIL, INVALID, REFUSED = 0, 1, 2, 3


def _subspace_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [specfile.vector_json(r) for r in s.basis_rows],
    }


def _subspace_text(s: Subspace) -> str:
    if s.dim == 0:
        return "{0}"
    if s.is_full():
        return f"all of Q^{s.ambient_dim}"
    rows = "; ".join("[" + " ".join(str(x) for x in r) + "]" for r in s.basis_rows)
    return f"span{{{rows}}} in Q^{s.ambient_dim}"


def _lattice_witness_json(triple: Sequence[Subspace]) -> list[list[list[str]]]:
    """A failing triple (a, b, c) of a lattice check, each as its basis rows."""
    return [[specfile.vector_json(r) for r in s.basis_rows] for s in triple]


def _lattice_witness_text(triple: Sequence[Subspace]) -> str:
    a, b, c = (_subspace_text(s) for s in triple)
    return f"a & (b + c) != (a & b) + (a & c) for a = {a}, b = {b}, c = {c}"


def _witness_json(witness: Mapping | None) -> dict | None:
    if witness is None:
        return None
    return {i: specfile.vector_json(v) for i, v in witness.items()}


def _witness_text(witness: Mapping | None) -> str:
    if witness is None:
        return "(none)"
    parts = (
        f"{i}=[" + " ".join(str(x) for x in v) + "]" for i, v in sorted(witness.items())
    )
    return ", ".join(parts)


def _load(args: argparse.Namespace, expect_kind: str) -> tuple[str, object, dict]:
    if args.fixture and args.path:
        raise specfile.DocumentError("give a document path or a fixture, not both", "--fixture")
    if args.fixture:
        gluing = expect_kind == specfile.KIND_GLUING
        if args.fixture not in GLUING_FIXTURES and args.fixture not in FAMILY_FIXTURES:
            raise specfile.DocumentError(
                f"unknown fixture {args.fixture!r}; available: "
                + ", ".join(sorted(GLUING_FIXTURES if gluing else FAMILY_FIXTURES))
            )
        g = fixture_gluing(args.fixture, args.chain)
        return f"fixture:{args.fixture}", g if gluing else dualize(g), {}
    if not args.path:
        raise specfile.DocumentError("either a document path or --fixture is required")
    try:
        text = Path(args.path).read_text()
    except OSError as e:
        raise specfile.DocumentError(f"cannot read {args.path}: {e}") from None
    kind, obj, options = specfile.parse_document(text)
    if kind != expect_kind:
        raise specfile.DocumentError(f"expected a {expect_kind!r} document, got {kind!r}", "kind")
    return args.path, obj, options


def _emit(args: argparse.Namespace, report: dict, human: list[str]) -> int:
    if args.json:
        print(json.dumps(report))
    else:
        for line in human:
            print(line)
    return report["exit"]


def _extensions_json(ext: ExtensionReport) -> dict:
    return {
        "ok": ext.ok,
        "entries": [
            {
                "subset": list(e.subset),
                "extend_by": e.extend_by,
                "ok": e.ok,
                "witness": _witness_json(e.witness),
            }
            for e in ext.entries
        ],
    }


def _condition2_json(e: TransitionEntry) -> dict:
    entry = {"triple": list(e.triple), "status": e.status}
    if e.status == "fail":
        entry["loop"] = specfile.matrix_json(e.loop)
    return entry


def _labels_text(labels: Sequence[str]) -> str:
    return "(" + ",".join(labels) + ")"


def _triple_name(triple: Sequence[str]) -> str:
    i, j, k = triple
    return f"pi^{i}_{j}(ker pi^{i}_{k})"


def cmd_check(args: argparse.Namespace) -> int:
    source, fam, options = _load(args, specfile.KIND_FAMILY)
    cap = args.cap or options.get("lattice_cap", DEFAULT_CAP)
    max_j = args.max_j or options.get("max_j", DEFAULT_MAX_INDICES)

    report: dict = {"command": "check", "input": source}
    human = [f"checking family from {source}"]
    text = not args.json  # the failure lines are formatted only when printed
    try:
        analysis = analyse(fam, max_indices=max_j, lattice_cap=cap)
    except FamilyValidationError as e:
        report["error"] = {"kind": "invalid-family", "problems": [p.message for p in e.problems]}
        report["exit"] = INVALID
        return _emit(args, report, human + [f"invalid family: {e}"])

    report["family"] = {
        "index": list(fam.labels),
        "piece_dims": {i: fam.pieces[i].dim for i in sorted(fam.labels)},
        "overlap_dims": {",".join(k): fam.overlaps[k].dim for k in sorted(fam.overlaps)},
    }

    dist = analysis.distributive
    per_piece = []
    human.append(f"distributive family: {'yes' if dist.ok else 'NO'}")
    for p in dist.per_piece:
        entry = {
            "piece": p.label,
            "lattice_elements": p.elements,
            "complete": p.complete,
            "all_ideals": True,  # kernels of validated homs are ideals
            "status": p.verdict.status,
        }
        if p.verdict.witness is not None:
            entry["witness"] = _lattice_witness_json(p.verdict.witness)
            if text:
                human.append(f"  kernels of piece {p.label} are not distributive: "
                             + _lattice_witness_text(p.verdict.witness))
        elif p.verdict.status == "indeterminate":
            human.append(f"  kernel lattice of piece {p.label} passed the closure cap ({cap}); "
                         "distributivity undecided")
        per_piece.append(entry)
    report["distributive"] = {
        "ok": dist.ok,
        "surjectivity_failures": [list(p) for p in dist.surjectivity_failures],
        "per_piece": per_piece,
    }
    if dist.surjectivity_failures:
        for i, j in dist.surjectivity_failures:
            human.append(f"  map ({i}, {j}) is not surjective")
        report["exit"] = REFUSED
        human.append("family is not surjective; the remaining checks need surjectivity")
        return _emit(args, report, human)

    projections = [
        {"piece": i, "surjective": surjective, "image_dim": img.dim}
        for i, (surjective, img) in analysis.projection_images.items()
    ]
    report["pullback"] = {"dim": analysis.pullback.dim, "projections": projections}
    human.append(f"pullback dimension {analysis.pullback.dim}")
    for entry in projections:
        if not entry["surjective"]:
            human.append(
                f"  projection onto {entry['piece']} is NOT surjective "
                f"(image dimension {entry['image_dim']})"
            )

    cocycle = analysis.cocycle
    # the rhs of (i, j, k) is the lhs of (j, i, k), so each is serialised once
    pushed = {e.triple: _subspace_json(e.lhs) for e in cocycle.condition1}
    condition1 = []
    for e in cocycle.condition1:
        i, j, k = e.triple
        condition1.append(
            {"triple": [i, j, k], "equal": e.equal, "lhs": pushed[(i, j, k)], "rhs": pushed[(j, i, k)]}
        )
    report["cocycle"] = {
        "overall": cocycle.overall,
        "condition1": condition1,
        "condition2": [_condition2_json(e) for e in cocycle.condition2],
    }
    human.append(f"cocycle condition: {'holds' if cocycle.overall else 'FAILS'}")
    if text:
        for e in cocycle.condition1:
            if not e.equal:
                i, j, k = e.triple
                human.append(
                    f"  clause 1 fails at {_labels_text(e.triple)}: {_triple_name(e.triple)} = "
                    f"{_subspace_text(e.lhs)} vs {_triple_name((j, i, k))} = {_subspace_text(e.rhs)}"
                )
        for e in cocycle.condition2:
            if e.status == "fail":
                human.append(f"  clause 2 fails at {_labels_text(e.triple)}: loop = {e.loop}")

    pair_ext = analysis.pairwise_extensions
    report["extension_pairs"] = _extensions_json(pair_ext)
    human.append(f"pairwise extension: {'holds' if pair_ext.ok else 'FAILS'}")
    if text:
        human.extend(
            f"  compatible pair over {_labels_text(e.subset)} does not extend by {e.extend_by}; "
            f"witness {_witness_text(e.witness)}"
            for e in pair_ext.failures
        )

    all_ext = analysis.all_extensions
    refused = isinstance(all_ext, TooManyPieces)
    if refused:
        report["extension_all"] = {"refused": str(all_ext)}
        human.append(f"subset extension: refused ({all_ext})")
    else:
        report["extension_all"] = _extensions_json(all_ext)
        human.append(f"subset extension: {'holds' if all_ext.ok else 'FAILS'}")
        if text:
            human.extend(
                f"  compatible tuple over {_labels_text(e.subset)} does not extend by {e.extend_by}; "
                f"witness {_witness_text(e.witness)}"
                for e in all_ext.failures
            )

    theorem = analysis.theorem
    if theorem.ran:
        report["theorem"] = {
            "ran": True,
            "verdicts": list(analysis.verdicts),
            "consistent": theorem.consistent,
        }
        human.append(
            "equivalence of the three verdicts: "
            + ("consistent" if theorem.consistent else "INCONSISTENT (tool bug)")
        )
    else:
        report["theorem"] = {"ran": False, "reason": theorem.reason}
        human.append(f"equivalence check skipped: {theorem.reason}")

    report["pass"] = analysis.ok
    report["exit"] = REFUSED if refused else (PASS if analysis.ok else FAIL)
    human.append("result: " + ("PASS" if analysis.ok else "FAIL"))
    return _emit(args, report, human)


def cmd_glue(args: argparse.Namespace) -> int:
    source, g, _ = _load(args, specfile.KIND_GLUING)
    report: dict = {"command": "glue", "input": source}
    human = [f"gluing from {source}"]
    glued = glue(g)
    report["classes"] = [[list(pt) for pt in cls] for cls in glued.classes]
    report["class_count"] = glued.size
    human.append(f"glued space has {glued.size} point classes")

    pieces = []
    for i in sorted(g.labels):
        emb = check_embedding(g, {i}, g.labels)
        pieces.append({"piece": i, "embedded": emb.injective})
        human.append(f"piece {i}: {'embedded' if emb.injective else 'NOT embedded'}")
    report["piece_embeddings"] = pieces

    partial = []
    for i, j in itertools.combinations(sorted(g.labels), 2):
        emb = check_embedding(g, {i, j}, g.labels)
        partial.append({"pair": [i, j], "embedded": emb.injective})
        human.append(
            f"partial gluing of {{{i},{j}}}: {'embedded' if emb.injective else 'NOT embedded'}"
        )
    report["partial_embeddings"] = partial

    ok = all(p["embedded"] for p in pieces) and all(p["embedded"] for p in partial)
    if args.duality:
        dual = duality_check(g)
        report["duality"] = {
            "ok": dual.ok,
            "pullback_dim": dual.pullback_dim,
            "class_count": dual.class_count,
            "mismatches": list(dual.mismatches),
        }
        human.append(
            f"duality: pullback dimension {dual.pullback_dim}, classes {dual.class_count}, "
            + ("consistent" if dual.ok else "MISMATCH (tool bug)")
        )
        human.extend(f"  {m}" for m in dual.mismatches)
        ok = ok and dual.ok

    report["pass"] = ok
    report["exit"] = PASS if ok else FAIL
    human.append("result: " + ("PASS" if ok else "FAIL"))
    return _emit(args, report, human)


def cmd_repair(args: argparse.Namespace) -> int:
    source, fam, options = _load(args, specfile.KIND_FAMILY)
    cap = args.cap or options.get("lattice_cap", DEFAULT_CAP)
    report: dict = {"command": "repair", "input": source}
    human = [f"re-presenting family from {source}"]
    try:
        result = repair(fam, lattice_cap=cap)
    except FamilyValidationError as e:
        report["error"] = {"kind": "invalid-family", "problems": [p.message for p in e.problems]}
        report["exit"] = INVALID
        return _emit(args, report, human + [f"invalid family: {e}"])
    except RepairRefused as e:
        report["refused"] = {"reason": str(e), "projection": e.projection}
        human.append(f"refused: {e}")
        if e.witness is not None:
            report["refused"]["witness"] = _lattice_witness_json(e.witness)
            human.append("  " + _lattice_witness_text(e.witness))
        report["exit"] = REFUSED
        return _emit(args, report, human)

    repaired = result.family
    report["pullback_dim"] = result.pullback.dim
    report["overlap_dims"] = {
        ",".join(k): repaired.overlaps[k].dim for k in sorted(repaired.overlaps)
    }
    report["cocycle_after"] = result.cocycle.overall
    human.append(f"pullback dimension {result.pullback.dim}")
    for k in sorted(repaired.overlaps):
        human.append(f"overlap ({k[0]},{k[1]}): dimension {repaired.overlaps[k].dim}")
    human.append("cocycle condition after re-presentation: holds")

    doc = specfile.family_json(repaired, options={"repaired_from": source})
    report["document"] = doc
    if args.out:
        try:
            Path(args.out).write_text(specfile.dump_document(doc))
        except OSError as e:
            raise specfile.DocumentError(f"cannot write {args.out}: {e}", "--out") from None
        human.append(f"wrote re-presented family to {args.out}")
    elif not args.json:
        human.append(specfile.dump_document(doc).rstrip("\n"))

    report["pass"] = True
    report["exit"] = PASS
    human.append("result: PASS")
    return _emit(args, report, human)


def at_least(least: int):
    """An argparse type for integer flags; a bad value exits 2 naming the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process: each
    ``parse_args`` fills a fresh namespace, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="gluecheck",
        description="Cocycle-condition and gluing diagnostics for families of surjective "
        "algebra homomorphisms over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", nargs="?", help="JSON document to read")
        p.add_argument("--fixture", help="use a built-in fixture instead of a document")
        p.add_argument("--chain", type=at_least(2), default=3, help="chain length for fixtures (default 3)")
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")

    p_check = sub.add_parser("check", help="run the family checks")
    common(p_check)
    p_check.add_argument("--cap", type=at_least(1), help=f"lattice closure cap (default {DEFAULT_CAP})")
    p_check.add_argument("--max-j", type=at_least(1),
                         help=f"piece-count bound for the subset check (default {DEFAULT_MAX_INDICES})")
    p_check.set_defaults(fn=cmd_check)

    p_glue = sub.add_parser("glue", help="glue a finite point-set document and report embeddings")
    common(p_glue)
    p_glue.add_argument("--duality", action="store_true", help="cross-check against the dual family")
    p_glue.set_defaults(fn=cmd_glue)

    p_repair = sub.add_parser("repair", help="re-present a family so the cocycle condition holds")
    common(p_repair)
    p_repair.add_argument("--cap", type=at_least(1), help=f"lattice closure cap (default {DEFAULT_CAP})")
    p_repair.add_argument("--out", help="write the re-presented family document here")
    p_repair.set_defaults(fn=cmd_repair)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except specfile.DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
