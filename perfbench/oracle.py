"""Checks each operation's report against facts that do not come from the
code under test: the benchmark's own union-find (see ``workloads``), the
README's table of fixture behaviour, and theorems the tool documents.

``verify`` returns a list of problems; an empty list means the operation
was correct.  Every check here is about the program's output, so a
tampered report must produce at least one problem.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from workloads import Op

PASS, FAIL, REFUSED = 0, 1, 3

# Report fields whose leaves are rationals: subspace bases, witnesses, and
# the algebra data of an emitted document.
RATIONAL_KEYS = frozenset({"basis", "witness", "unit", "structure_constants", "matrix"})
_CANONICAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


class _FloatSeen(ValueError):
    pass


def _reject_float(text: str):
    raise _FloatSeen(f"float {text} in the report")


def load_report(stdout: str) -> dict:
    """Parse a JSON report; a float or a non-finite number anywhere is an error."""
    return json.loads(stdout, parse_float=_reject_float, parse_constant=_reject_float)


def inexact_rationals(report, parse_rational: Callable, inside: bool = False, path: str = "") -> list[str]:
    """Rational fields that are not canonical ``p`` or ``p/q`` strings.

    ``parse_rational`` is the library's own parser; it accepts decimal and
    exponent forms, so the canonical pattern and a round trip through
    ``str`` are checked as well.
    """
    problems = []
    if isinstance(report, dict):
        for key, value in report.items():
            problems += inexact_rationals(value, parse_rational, inside or key in RATIONAL_KEYS,
                                          f"{path}.{key}")
    elif isinstance(report, list):
        for n, value in enumerate(report):
            problems += inexact_rationals(value, parse_rational, inside, f"{path}[{n}]")
    elif inside and report is not None:
        if not isinstance(report, str) or not _CANONICAL.fullmatch(report):
            problems.append(f"{path}: {report!r} is not an exact rational string")
        else:
            try:
                if str(parse_rational(report, path)) != report:
                    problems.append(f"{path}: {report!r} is not in lowest terms")
            except ValueError as e:
                problems.append(f"{path}: {e}")
    return problems


def _check_family_report(report: dict, op: Op, problems: list[str]) -> None:
    """A `check` report on a dual family, original or repaired."""
    facts = op.facts
    expected_exit = PASS if facts.pieces_embed and facts.extensions_hold else FAIL
    if report["exit"] != expected_exit:
        problems.append(f"exit {report['exit']} in the report, expected {expected_exit}")
    if report["pass"] != (expected_exit == PASS):
        problems.append(f"pass is {report['pass']}")
    if not report["distributive"]["ok"]:
        problems.append("a dual family must be distributive")
    pullback = report["pullback"]
    if pullback["dim"] != facts.class_count:
        problems.append(f"pullback dimension {pullback['dim']}, glued classes {facts.class_count}")
    surjective = {p["piece"]: p["surjective"] for p in pullback["projections"]}
    if surjective != facts.piece_embedded:
        problems.append(f"projection surjectivity {surjective}, piece embedding {facts.piece_embedded}")
    if report["cocycle"]["overall"] != facts.extensions_hold:
        problems.append(f"cocycle overall {report['cocycle']['overall']}, expected {facts.extensions_hold}")
    pairs = {(*e["subset"], e["extend_by"]): e["ok"] for e in report["extension_pairs"]["entries"]}
    if pairs != facts.triple_embedded:
        problems.append("pairwise extension entries differ from partial-gluing embeddings")
    if report["extension_all"]["ok"] != facts.extensions_hold:
        problems.append("subset extension verdict differs from the pairwise one")
    theorem = report["theorem"]
    if not (theorem["ran"] and theorem["consistent"]):
        problems.append(f"theorem block {theorem}: the three verdicts must agree")


def _check_fixture_table(report: dict, op: Op, problems: list[str]) -> None:
    """The README's table of fixture behaviour, for `check` on a fixture."""
    if op.fixture == "example1":
        if all(p["surjective"] for p in report["pullback"]["projections"]):
            problems.append("example1 must have a non-surjective projection")
    elif op.fixture == "example2":
        clause1 = {tuple(e["triple"]): e["equal"] for e in report["cocycle"]["condition1"]}
        if clause1.get(("I1", "I2", "I3")) is not False:
            problems.append("example2 must fail clause 1 at (I1,I2,I3)")
        ext = {(*e["subset"], e["extend_by"]): e["ok"] for e in report["extension_pairs"]["entries"]}
        if ext.get(("I2", "I3", "I1")) is not False:
            problems.append("example2: the extension of (I2,I3) by I1 must fail")
    elif op.fixture == "example3":
        if report["exit"] != PASS:
            problems.append("example3 must pass")


def _check_glue_report(report: dict, op: Op, problems: list[str]) -> None:
    facts = op.facts
    classes = frozenset(frozenset(tuple(pt) for pt in cls) for cls in report["classes"])
    if classes != facts.classes or report["class_count"] != facts.class_count:
        problems.append("glued classes differ from the union-find partition")
    pieces = {p["piece"]: p["embedded"] for p in report["piece_embeddings"]}
    if pieces != facts.piece_embedded:
        problems.append(f"piece embeddings {pieces}, expected {facts.piece_embedded}")
    partial = {tuple(p["pair"]): p["embedded"] for p in report["partial_embeddings"]}
    if partial != facts.pair_embedded:
        problems.append("partial-gluing embeddings differ from the union-find")
    duality = report["duality"]
    if not duality["ok"] or duality["pullback_dim"] != facts.class_count:
        problems.append(f"duality block {duality}: the duality is a theorem")
    ok = facts.pieces_embed and all(facts.pair_embedded.values())
    if report["exit"] != (PASS if ok else FAIL):
        problems.append(f"exit {report['exit']} in the report, expected {PASS if ok else FAIL}")


def _check_repair_report(report: dict, op: Op, problems: list[str], roundtrip: Callable) -> None:
    facts = op.facts
    if not facts.pieces_embed:
        if report["exit"] != REFUSED or "refused" not in report:
            problems.append("repair must refuse: a piece does not embed")
        return
    if report["exit"] != PASS:
        problems.append(f"repair exit {report['exit']}: every piece embeds, so it must succeed")
        return
    if report["pullback_dim"] != facts.class_count:
        problems.append(f"repaired pullback dimension {report['pullback_dim']}, glued classes {facts.class_count}")
    if report["cocycle_after"] is not True:
        problems.append("cocycle must hold after repair")
    try:
        text = op.out.read_text()
    except OSError as e:
        problems.append(f"no repaired document: {e}")
        return
    if load_report(text) != report["document"]:
        problems.append("the written document differs from the report's")
    if roundtrip(text) != text:
        problems.append("the repaired document does not re-parse bit for bit")


def verify(op: Op, code, stdout: str, crash: str | None, parse_rational: Callable,
           roundtrip: Callable) -> list[str]:
    """Problems with one operation's outcome; ``code`` is what ``main`` returned."""
    if crash is not None:
        return [f"raised: {crash.strip().splitlines()[-1] if crash.strip() else 'no message'}"]
    try:
        report = load_report(stdout)
    except ValueError as e:
        return [f"report is not exact JSON: {e}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems = inexact_rationals(report, parse_rational)
    if report.get("exit") != code:
        problems.append(f"returned {code} but the report says {report.get('exit')}")
    try:
        if op.command == "glue":
            _check_glue_report(report, op, problems)
        elif op.command == "repair":
            _check_repair_report(report, op, problems, roundtrip)
        else:
            _check_family_report(report, op, problems)
            if op.fixture:
                _check_fixture_table(report, op, problems)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        problems.append(f"malformed report or document: {e!r}")
    return problems
