"""Golden reports: ``check --json``, ``glue --duality --json`` and
``repair --json`` on the three example fixtures and on the documents of
``random_gluing`` seeds 0-19 must reproduce the stored report and exit code
exactly.  Documents are written under relative names in a fresh directory,
so the ``"input"`` field and the ``repaired_from`` option match as well.

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


def run_case(command: str, name: str) -> dict:
    """Exit code and parsed report of one case, run in the current directory."""
    argv = list(COMMANDS[command])
    if name.startswith("seed"):
        g = random_gluing(int(name[len("seed"):]))
        doc = specfile.gluing_json(g) if command == "glue" else specfile.family_json(dualize(g))
        path = f"{name}.json"
        Path(path).write_text(specfile.dump_document(doc))
        argv.append(path)
    else:
        argv += ["--fixture", name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


@pytest.mark.parametrize("command,name", CASES)
def test_report_matches_golden(command, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads((GOLDEN_DIR / f"{command}-{name}.json").read_text())
    assert run_case(command, name) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for command, name in CASES:
            result = run_case(command, name)
            (GOLDEN_DIR / f"{command}-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
