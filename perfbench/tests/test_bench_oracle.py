"""The oracle accepts the program's real reports and flags tampered ones."""

import json

import pytest

import oracle
import run
import workloads


@pytest.fixture(scope="module")
def program():
    return run.import_gluecheck()


def outcomes(program, name, tmp_path):
    cli, specfile = program
    loop = run.Loop(cli, specfile, [])
    ops = workloads.prepare(name, 7, tmp_path, tiny=True)
    for op in ops:
        code, stdout, crash, _ = run.run_op(cli, op.argv)
        yield op, code, stdout, crash, loop


def verify(op, code, report, loop):
    text = report if isinstance(report, str) else json.dumps(report)
    return oracle.verify(op, code, text, None, loop.parse_rational, loop.roundtrip)


def test_real_reports_pass(program, tmp_path):
    for name in workloads.WORKLOADS:
        for op, code, stdout, crash, loop in outcomes(program, name, tmp_path / name):
            assert crash is None
            assert oracle.verify(op, code, stdout, crash, loop.parse_rational, loop.roundtrip) == []


def test_tampered_verdicts_fail(program, tmp_path):
    flagged = 0
    for op, code, stdout, _, loop in outcomes(program, "corpus", tmp_path):
        report = json.loads(stdout)
        report["exit"] = 1 - report["exit"]
        assert verify(op, 1 - code, report, loop)
        report = json.loads(stdout)
        if op.command == "check":
            report["cocycle"]["overall"] = not report["cocycle"]["overall"]
        else:
            report["class_count"] += 1
        assert verify(op, code, report, loop)
        flagged += 1
    assert flagged


def test_readme_table_is_enforced(program, tmp_path):
    for op, code, stdout, _, loop in outcomes(program, "chain", tmp_path):
        report = json.loads(stdout)
        if op.fixture == "example2":
            for entry in report["cocycle"]["condition1"]:
                entry["equal"] = True
            problems = verify(op, code, report, loop)
            assert any("clause 1" in p for p in problems)
        if op.fixture == "example1":
            for entry in report["pullback"]["projections"]:
                entry["surjective"] = True
            problems = verify(op, code, report, loop)
            assert any("non-surjective" in p for p in problems)


@pytest.mark.parametrize("bad", ["1/2.0", "0.5", "1e3", "2/4", "1/-2", "-0"])
def test_inexact_rationals_fail(program, tmp_path, bad):
    for op, code, stdout, _, loop in outcomes(program, "repair", tmp_path):
        if op.command == "repair" and code == 0:
            report = json.loads(stdout)
            next(iter(report["document"]["pieces"].values()))["unit"][0] = bad
            problems = verify(op, code, report, loop)
            assert any("rational" in p or "lowest terms" in p for p in problems)
            return
    pytest.fail("no successful repair in the tiny workload")


def test_float_in_report_fails(program, tmp_path):
    for op, code, stdout, _, loop in outcomes(program, "chain", tmp_path):
        assert verify(op, code, stdout.replace('"exit": ', '"ratio": 0.5, "exit": ', 1), loop)


def test_repaired_document_must_round_trip(program, tmp_path):
    for op, code, stdout, _, loop in outcomes(program, "repair", tmp_path):
        if op.command == "repair" and code == 0:
            op.out.write_text(op.out.read_text() + "\n")
            assert any("re-parse" in p for p in verify(op, code, stdout, loop))
            return
    pytest.fail("no successful repair in the tiny workload")


def test_crash_fails(program, tmp_path):
    op = workloads.prepare("chain", 7, tmp_path, tiny=True)[0]
    cli, specfile = program
    loop = run.Loop(cli, specfile, [])
    assert oracle.verify(op, None, "", "Traceback ...\nZeroDivisionError", loop.parse_rational,
                         loop.roundtrip)
