"""Golden reports: ``check --json``, ``glue --duality --json`` and
``repair --json`` on the three example fixtures and on the documents of
``random_gluing`` seeds 0-19 must reproduce the stored report and exit code
exactly.  Documents are written under relative names in a fresh directory,
so the ``"input"`` field and the ``repaired_from`` option match as well.

Golden text: plain ``check``, ``glue --duality`` and ``repair`` on the
examples and seeds 0, 5 and 7, ``check`` and ``repair`` on the three-line
family (a non-distributive witness), ``check`` on the twisted triangle
(clause-2 loops) and ``check`` on the augmented three-line family (subset
extension fails alone off the distributivity hypothesis) must reproduce the
stored stdout and exit code byte for byte.

Regenerate the goldens (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conftest import build_augmented_three_line_family, build_three_line_family, twisted_triangle_gluing
from gluecheck import specfile
from gluecheck.cli import main
from gluecheck.finset import dualize, random_gluing

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = {
    "check": ["check", "--json"],
    "glue": ["glue", "--duality", "--json"],
    "repair": ["repair", "--json"],
}
INPUTS = ("example1", "example2", "example3") + tuple(f"seed{n}" for n in range(20))
CASES = [(command, name) for command in COMMANDS for name in INPUTS]

TEXT_COMMANDS = {"check": ["check"], "glue": ["glue", "--duality"], "repair": ["repair"]}
TEXT_INPUTS = ("example1", "example2", "example3", "seed0", "seed5", "seed7")
TEXT_CASES = [(command, name) for command in TEXT_COMMANDS for name in TEXT_INPUTS] + [
    ("check", "three-lines"), ("repair", "three-lines"), ("check", "twisted"),
    ("check", "augmented-lines"),
]
HAND_MADE = {
    "three-lines": build_three_line_family,
    "augmented-lines": build_augmented_three_line_family,
    "twisted": lambda: dualize(twisted_triangle_gluing()),
}


def input_argv(command: str, name: str) -> list[str]:
    """The input arguments of a case; a document is written first, under a
    relative name in the current directory."""
    if name in HAND_MADE:
        doc = specfile.family_json(HAND_MADE[name]())
    elif name.startswith("seed"):
        g = random_gluing(int(name[len("seed"):]))
        doc = specfile.gluing_json(g) if command == "glue" else specfile.family_json(dualize(g))
    else:
        return ["--fixture", name]
    path = f"{name}.json"
    Path(path).write_text(specfile.dump_document(doc))
    return [path]


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_case(command: str, name: str) -> dict:
    """Exit code and parsed report of one case, run in the current directory."""
    code, out = run_main(COMMANDS[command] + input_argv(command, name))
    return {"exit": code, "report": json.loads(out)}


def run_text_case(command: str, name: str) -> dict:
    """Exit code and stdout lines of one text case, run in the current directory."""
    code, out = run_main(TEXT_COMMANDS[command] + input_argv(command, name))
    return {"exit": code, "stdout": out.splitlines(keepends=True)}


@pytest.mark.parametrize("command,name", CASES)
def test_report_matches_golden(command, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads((GOLDEN_DIR / f"{command}-{name}.json").read_text())
    assert run_case(command, name) == golden


@pytest.mark.parametrize("command,name", TEXT_CASES)
def test_text_matches_golden(command, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads((GOLDEN_DIR / f"text-{command}-{name}.json").read_text())
    assert run_text_case(command, name) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for command, name in CASES:
            result = run_case(command, name)
            (GOLDEN_DIR / f"{command}-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
        for command, name in TEXT_CASES:
            result = run_text_case(command, name)
            (GOLDEN_DIR / f"text-{command}-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
