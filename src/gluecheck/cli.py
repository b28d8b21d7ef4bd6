"""Command-line front end.

Three subcommands: ``check`` runs the algebraic verdicts on a family,
``glue`` reports colimit and embedding facts for a finite gluing, and
``repair`` re-presents a family so the cocycle condition holds and emits
the result as a new document.  Each command builds one report: ``--json``
prints it, and the text output is rendered from it alone.

Exit codes: 0 all requested verdicts pass, 1 some verdict failed,
2 invalid input, 3 a hypothesis or precondition kept a check from running.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from gluecheck.algebra import FamilyValidationError
from gluecheck.exactlin import Subspace
from gluecheck.finset import check_embedding, duality_check, dualize, fixture_gluing, glue
from gluecheck.lattice import DEFAULT_CAP
from gluecheck.multipullback import (
    DEFAULT_MAX_INDICES,
    ExtensionEntry,
    RepairRefused,
    TooManyPieces,
    TransitionEntry,
    analyse,
    build_pullback,
    check_cocycle,
    repair,
)
from gluecheck import specfile

PASS, FAIL, INVALID, REFUSED = 0, 1, 2, 3
FIXTURE_CHAIN = 3


def _subspace_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [specfile.vector_json(r) for r in s.basis_rows],
    }


def _subspace_text(basis: Sequence[Sequence[str]], ambient_dim: int) -> str:
    if not basis:
        return "{0}"
    if len(basis) == ambient_dim:
        return f"all of Q^{ambient_dim}"
    rows = "; ".join("[" + " ".join(r) + "]" for r in basis)
    return f"span{{{rows}}} in Q^{ambient_dim}"


def _lattice_witness_json(triple: Sequence[Subspace]) -> list[list[list[str]]]:
    """A failing triple (a, b, c) of a lattice check, each as its basis rows."""
    return [[specfile.vector_json(r) for r in s.basis_rows] for s in triple]


def _lattice_witness_text(triple: Sequence[Sequence[Sequence[str]]]) -> str:
    # a witness basis carries no ambient dimension; its rows have that length
    a, b, c = (_subspace_text(rows, len(rows[0]) if rows else 0) for rows in triple)
    return f"a & (b + c) != (a & b) + (a & c) for a = {a}, b = {b}, c = {c}"


def _witness_text(witness: Mapping[str, Sequence[str]]) -> str:
    return ", ".join(f"{i}=[" + " ".join(v) + "]" for i, v in sorted(witness.items()))


def _labels_text(labels: Sequence[str]) -> str:
    return "(" + ",".join(labels) + ")"


def _triple_name(triple: Sequence[str]) -> str:
    i, j, k = triple
    return f"pi^{i}_{j}(ker pi^{i}_{k})"


def _load(args: argparse.Namespace, expect_kind: str) -> tuple[str, object, dict]:
    if args.fixture and args.path:
        raise specfile.DocumentError("give a document path or a fixture, not both", "--fixture")
    if args.fixture:
        chain = args.chain or FIXTURE_CHAIN
        specfile.bound_dim(chain, "--chain")  # before any point is built
        try:
            g = fixture_gluing(args.fixture, chain)
        except KeyError as e:
            raise specfile.DocumentError(e.args[0], "--fixture") from None
        return f"fixture:{args.fixture}", g if expect_kind == specfile.KIND_GLUING else dualize(g), {}
    if not args.path:
        raise specfile.DocumentError("either a document path or --fixture is required")
    if args.chain is not None:
        raise specfile.DocumentError("only applies with --fixture", "--chain")
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise specfile.DocumentError(f"cannot read {args.path}: {e}") from None
    kind, obj, options = specfile.parse_document(text)
    if kind != expect_kind:
        raise specfile.DocumentError(f"expected a {expect_kind!r} document, got {kind!r}", "kind")
    return args.path, obj, options


def _emit(args: argparse.Namespace, report: dict, render: Callable[[dict], Iterable[str]]) -> int:
    """Print the report as JSON under ``--json``, else the lines ``render`` makes of it.
    A reader that closed stdout does not change the exit code: the rest of
    the output goes to the null device.  A report holds no cycle, so the
    encoder skips its cycle check."""
    try:
        text = json.dumps(report, check_circular=False) if args.json else "\n".join(render(report))
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report["exit"]


def _invalid_family(report: dict, e: FamilyValidationError) -> dict:
    report["error"] = {"kind": "invalid-family", "problems": [p.message for p in e.problems]}
    report["exit"] = INVALID
    return report


def _entry_json(e: ExtensionEntry) -> dict:
    witness = None if e.witness is None else {i: specfile.vector_json(v) for i, v in e.witness.items()}
    return {"subset": list(e.subset), "extend_by": e.extend_by, "ok": e.ok, "witness": witness}


def _condition2_json(e: TransitionEntry) -> dict:
    entry = {"triple": list(e.triple), "status": e.status}
    if e.status == "fail":
        entry["loop"] = specfile.matrix_json(e.loop)
    return entry


def cmd_check(args: argparse.Namespace) -> int:
    source, fam, options = _load(args, specfile.KIND_FAMILY)
    cap = args.cap or options.get("lattice_cap", DEFAULT_CAP)
    max_j = args.max_j or options.get("max_j", DEFAULT_MAX_INDICES)
    render = functools.partial(_check_text, cap=cap)

    report: dict = {"command": "check", "input": source}
    try:
        analysis = analyse(fam, max_indices=max_j, lattice_cap=cap)
    except FamilyValidationError as e:
        return _emit(args, _invalid_family(report, e), render)

    report["family"] = {
        "index": list(fam.labels),
        "piece_dims": {i: fam.pieces[i].dim for i in sorted(fam.labels)},
        "overlap_dims": {",".join(k): fam.overlaps[k].dim for k in sorted(fam.overlaps)},
    }

    dist = analysis.distributive
    per_piece = []
    for i, verdict in dist.per_piece.items():
        entry = {"piece": i, "status": verdict.status}
        if verdict.blocks is not None:
            entry["blocks"] = [{"width": c, "kernels": sorted(js)} for c, js in verdict.blocks]
        if verdict.witness is not None:
            entry["witness"] = _lattice_witness_json(verdict.witness)
        per_piece.append(entry)
    report["distributive"] = {
        "ok": dist.ok,
        "surjectivity_failures": [list(p) for p in dist.surjectivity_failures],
        "per_piece": per_piece,
    }
    if dist.surjectivity_failures:
        report["exit"] = REFUSED
        return _emit(args, report, render)

    report["pullback"] = {"dim": analysis.pullback.dim, "projections": [
        {"piece": i, "surjective": surjective, "image_dim": img.dim}
        for i, (surjective, img) in analysis.projection_images.items()
    ]}

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

    serialised: dict = {}  # one dict per (subset, extend_by), shared by both sweeps
    for key, ext in (("extension_pairs", analysis.pairwise_extensions),
                     ("extension_all", analysis.all_extensions)):
        if isinstance(ext, TooManyPieces):
            report[key] = {"refused": str(ext)}
            continue
        for e in ext.entries:
            if (e.subset, e.extend_by) not in serialised:
                serialised[e.subset, e.extend_by] = _entry_json(e)
        report[key] = {"ok": ext.ok, "entries": [serialised[e.subset, e.extend_by] for e in ext.entries]}

    if analysis.skipped is None:
        report["theorem"] = {"ran": True, "verdicts": list(analysis.verdicts),
                             "consistent": analysis.consistent}
    else:
        report["theorem"] = {"ran": False, "reason": analysis.skipped}

    report["pass"] = analysis.ok
    report["exit"] = REFUSED if "refused" in report["extension_all"] else (PASS if analysis.ok else FAIL)
    return _emit(args, report, render)


def _check_text(report: dict, cap: int) -> Iterator[str]:
    yield f"checking family from {report['input']}"
    if "error" in report:
        yield "invalid family: " + "; ".join(report["error"]["problems"])
        return
    dist = report["distributive"]
    # a surjective family whose pieces are all distributive or undecided is undecided
    undecided = not dist["surjectivity_failures"] and all(
        p["status"] != "not-distributive" for p in dist["per_piece"])
    yield f"distributive family: {'yes' if dist['ok'] else 'undecided' if undecided else 'NO'}"
    for p in dist["per_piece"]:
        if "witness" in p:
            yield (f"  kernels of piece {p['piece']} are not distributive: "
                   + _lattice_witness_text(p["witness"]))
        elif p["status"] == "indeterminate":
            yield (f"  kernel lattice of piece {p['piece']} passed the closure cap ({cap}); "
                   "distributivity undecided")
    if dist["surjectivity_failures"]:
        yield from (f"  map ({i}, {j}) is not surjective" for i, j in dist["surjectivity_failures"])
        yield "family is not surjective; the remaining checks need surjectivity"
        return

    yield f"pullback dimension {report['pullback']['dim']}"
    for p in report["pullback"]["projections"]:
        if not p["surjective"]:
            yield f"  projection onto {p['piece']} is NOT surjective (image dimension {p['image_dim']})"

    cocycle = report["cocycle"]
    yield f"cocycle condition: {'holds' if cocycle['overall'] else 'FAILS'}"
    for e in cocycle["condition1"]:
        if not e["equal"]:
            i, j, k = triple = e["triple"]
            lhs, rhs = (_subspace_text(s["basis"], s["ambient_dim"]) for s in (e["lhs"], e["rhs"]))
            yield (f"  clause 1 fails at {_labels_text(triple)}: {_triple_name(triple)} = {lhs} "
                   f"vs {_triple_name((j, i, k))} = {rhs}")
    for e in cocycle["condition2"]:
        if e["status"] == "fail":
            loop = e["loop"]  # as str(Matrix) prints it
            rows = "; ".join(" ".join(r) for r in loop)
            yield (f"  clause 2 fails at {_labels_text(e['triple'])}: "
                   f"loop = Matrix({len(loop)}x{len(loop[0])}: {rows})")

    for key, title, noun in (("extension_pairs", "pairwise extension", "pair"),
                             ("extension_all", "subset extension", "tuple")):
        ext = report[key]
        if "refused" in ext:
            yield f"{title}: refused ({ext['refused']})"
            continue
        yield f"{title}: {'holds' if ext['ok'] else 'FAILS'}"
        for e in ext["entries"]:
            if not e["ok"]:
                yield (f"  compatible {noun} over {_labels_text(e['subset'])} does not extend by "
                       f"{e['extend_by']}; witness {_witness_text(e['witness'])}")

    theorem = report["theorem"]
    if theorem["ran"]:
        yield "equivalence of the three verdicts: " + (
            "consistent" if theorem["consistent"] else "INCONSISTENT (tool bug)")
    else:
        yield f"equivalence check skipped: {theorem['reason']}"
    yield "result: " + ("PASS" if report["pass"] else "FAIL")


def cmd_glue(args: argparse.Namespace) -> int:
    source, g, _ = _load(args, specfile.KIND_GLUING)
    glued = glue(g)
    report: dict = {
        "command": "glue",
        "input": source,
        "classes": [[list(pt) for pt in cls] for cls in glued.classes],
        "class_count": glued.size,
        "piece_embeddings": [
            {"piece": i, "embedded": check_embedding(g, {i}, g.labels).injective}
            for i in sorted(g.labels)
        ],
        "partial_embeddings": [
            {"pair": [i, j], "embedded": check_embedding(g, {i, j}, g.labels).injective}
            for i, j in itertools.combinations(sorted(g.labels), 2)
        ],
    }
    ok = all(p["embedded"] for p in report["piece_embeddings"] + report["partial_embeddings"])
    if args.duality:
        dual = duality_check(g)
        report["duality"] = {
            "ok": dual.ok,
            "pullback_dim": dual.pullback_dim,
            "class_count": dual.class_count,
            "mismatches": list(dual.mismatches),
        }
        ok = ok and dual.ok

    report["pass"] = ok
    report["exit"] = PASS if ok else FAIL
    return _emit(args, report, _glue_text)


def _glue_text(report: dict) -> Iterator[str]:
    yield f"gluing from {report['input']}"
    yield f"glued space has {report['class_count']} point classes"
    for p in report["piece_embeddings"]:
        yield f"piece {p['piece']}: {'embedded' if p['embedded'] else 'NOT embedded'}"
    for p in report["partial_embeddings"]:
        i, j = p["pair"]
        yield f"partial gluing of {{{i},{j}}}: {'embedded' if p['embedded'] else 'NOT embedded'}"
    if "duality" in report:
        dual = report["duality"]
        yield (f"duality: pullback dimension {dual['pullback_dim']}, classes {dual['class_count']}, "
               + ("consistent" if dual["ok"] else "MISMATCH (tool bug)"))
        yield from (f"  {m}" for m in dual["mismatches"])
    yield "result: " + ("PASS" if report["pass"] else "FAIL")


def cmd_repair(args: argparse.Namespace) -> int:
    source, fam, options = _load(args, specfile.KIND_FAMILY)
    cap = args.cap or options.get("lattice_cap", DEFAULT_CAP)
    render = functools.partial(_repair_text, out=args.out)
    report: dict = {"command": "repair", "input": source}
    try:
        repaired = repair(fam, lattice_cap=cap)
    except FamilyValidationError as e:
        return _emit(args, _invalid_family(report, e), render)
    except RepairRefused as e:
        report["refused"] = {"reason": str(e), "projection": e.projection}
        if e.witness is not None:
            report["refused"]["witness"] = _lattice_witness_json(e.witness)
        report["exit"] = REFUSED
        return _emit(args, report, render)

    report["pullback_dim"] = build_pullback(fam).dim
    report["overlap_dims"] = {
        ",".join(k): repaired.overlaps[k].dim for k in sorted(repaired.overlaps)
    }
    # a theorem for the re-presentation, checked on every repair that is reported
    report["cocycle_after"] = check_cocycle(repaired).overall
    report["document"] = doc = specfile.family_json(repaired, options={"repaired_from": source})
    if args.out:
        try:
            Path(args.out).write_text(specfile.dump_document(doc))
        except OSError as e:
            raise specfile.DocumentError(f"cannot write {args.out}: {e}", "--out") from None

    report["pass"] = report["cocycle_after"]
    report["exit"] = PASS if report["pass"] else FAIL
    return _emit(args, report, render)


def _repair_text(report: dict, out: str | None) -> Iterator[str]:
    yield f"re-presenting family from {report['input']}"
    if "error" in report:
        yield "invalid family: " + "; ".join(report["error"]["problems"])
        return
    if "refused" in report:
        refused = report["refused"]
        yield f"refused: {refused['reason']}"
        if "witness" in refused:
            yield "  " + _lattice_witness_text(refused["witness"])
        return
    yield f"pullback dimension {report['pullback_dim']}"
    for pair, dim in report["overlap_dims"].items():
        yield f"overlap ({pair}): dimension {dim}"
    yield f"cocycle condition after re-presentation: {'holds' if report['cocycle_after'] else 'FAILS'}"
    yield (f"wrote re-presented family to {out}" if out
           else specfile.dump_document(report["document"]).rstrip("\n"))
    yield "result: " + ("PASS" if report["pass"] else "FAIL")


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
        p.add_argument("--chain", type=at_least(2), help=f"chain length for fixtures (default {FIXTURE_CHAIN})")
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")

    p_check = sub.add_parser("check", help="run the family checks")
    common(p_check)
    p_check.add_argument("--cap", type=at_least(1), help=f"lattice cap (default {DEFAULT_CAP})")
    p_check.add_argument("--max-j", type=at_least(1),
                         help=f"piece-count bound for the subset check (default {DEFAULT_MAX_INDICES})")
    p_check.set_defaults(fn=cmd_check)

    p_glue = sub.add_parser("glue", help="glue a finite point-set document and report embeddings")
    common(p_glue)
    p_glue.add_argument("--duality", action="store_true", help="cross-check against the dual family")
    p_glue.set_defaults(fn=cmd_glue)

    p_repair = sub.add_parser("repair", help="re-present a family so the cocycle condition holds")
    common(p_repair)
    p_repair.add_argument("--cap", type=at_least(1), help=f"lattice cap (default {DEFAULT_CAP})")
    p_repair.add_argument("--out", help="write the re-presented family document here")
    p_repair.set_defaults(fn=cmd_repair)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except specfile.DimensionRefused as e:
        print(f"refused: {e}", file=sys.stderr)
        return REFUSED
    except specfile.DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
