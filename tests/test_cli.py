import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _dense_family_json, _rebased, matrix_of, spokes_gluing, star_gluing
from gluecheck import algebra, cli, exactlin, finset, multipullback, specfile, unionfind
from gluecheck.cli import main
from gluecheck.finset import FiniteGluing, dualize, fixture_family, fixture_gluing, random_gluing, tcirc_a, tcirc_c
from gluecheck.algebra import AlgebraHom, GluingFamily
from gluecheck.lattice import check_distributive_family

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """The process exit code, argparse's usage errors included, and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def replaced_map(rows) -> GluingFamily:
    """The dual of tcirc-c with its map (I2, I3) replaced by ``rows``."""
    fam = dualize(tcirc_c())
    bad = AlgebraHom(fam.pieces["I2"], fam.overlap("I2", "I3"), matrix_of(rows))
    return GluingFamily(fam.labels, fam.pieces, fam.overlaps, {**fam.maps, ("I2", "I3"): bad})


SQUASH = [[0, 0, 1], [0, 0, 1]]  # a homomorphism whose image is a line
NOT_A_HOM = [[1, 1, 0], [0, 0, 1]]  # its kernel, span{(1, -1, 0)}, is no ideal


def family_path(tmp_path, fam: GluingFamily) -> str:
    path = tmp_path / "family.json"
    path.write_text(specfile.dump_document(specfile.family_json(fam)))
    return str(path)


class TestCheckCommand:
    def test_good_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "example3")
        assert code == 0
        assert "result: PASS" in out
        assert "cocycle condition: holds" in out

    def test_failing_fixture_exits_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "example2")
        assert code == 1
        assert "cocycle condition: FAILS" in out
        assert "clause 1 fails at (I1,I2,I3)" in out
        assert "pi^I1_I2(ker pi^I1_I3) = {0}" in out
        assert "pi^I2_I1(ker pi^I2_I3) = all of Q^1" in out
        assert "compatible pair over (I2,I3) does not extend by I1; witness I2=[0 0 1]" in out
        assert "compatible tuple over (I2,I3) does not extend by I1; witness I2=[0 0 1]" in out

    def test_collapsing_fixture_reports_projection(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "example1")
        assert code == 1
        assert "projection onto I2 is NOT surjective (image dimension 2)" in out

    def test_json_report_structure(self, capsys):
        code, report, _ = run_json(capsys, "check", "--fixture", "example2")
        assert code == 1
        assert report["exit"] == 1
        assert report["pullback"]["dim"] == 6
        assert report["cocycle"]["overall"] is False
        entry = next(
            e for e in report["cocycle"]["condition1"] if e["triple"] == ["I1", "I2", "I3"]
        )
        assert entry["equal"] is False
        assert entry["lhs"]["dim"] == 0
        assert entry["rhs"]["dim"] == 1
        assert report["theorem"] == {
            "ran": True,
            "verdicts": [False, False, False],
            "consistent": True,
        }
        # machine output must survive a round trip
        assert json.loads(json.dumps(report)) == report

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "bogus")
        assert code == 2
        assert "unknown fixture" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2

    def test_document_input(self, capsys, tmp_path):
        doc = specfile.family_json(fixture_family("example3"))
        path = tmp_path / "fam.json"
        path.write_text(specfile.dump_document(doc))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0

    @pytest.mark.parametrize("text", ["1/0", "1e5", "0.5", " 1"],
                             ids=["zero-denominator", "exponent", "decimal", "whitespace"])
    def test_malformed_rational_names_the_field(self, capsys, tmp_path, text):
        doc = specfile.family_json(fixture_family("example3"))
        doc["pieces"]["I1"]["unit"][0] = text
        path = tmp_path / "bad.json"
        path.write_text(specfile.dump_document(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "pieces.I1.unit[0]" in err

    def test_each_distinct_rational_is_parsed_once(self, monkeypatch, dense_specfile):
        doc = dense_specfile.family_json(fixture_family("example3", 8))
        distinct = {x for piece in doc["pieces"].values()
                    for rows in piece["structure_constants"] for v in rows for x in v}
        matched = []
        grammar = specfile._RATIONAL

        class Counting:
            def fullmatch(self, text):
                matched.append(text)
                return grammar.fullmatch(text)

        specfile._rational_text.cache_clear()
        monkeypatch.setattr(specfile, "_RATIONAL", Counting())
        specfile.parse_document(specfile.dump_document(doc))
        specfile._rational_text.cache_clear()
        assert len(matched) == len(set(matched))
        assert set(matched) >= distinct

    def test_a_repeated_bad_rational_names_each_field(self, capsys, tmp_path, dense_specfile):
        # the first bad entry met is named, on every parse: a bad string is not cached
        doc = dense_specfile.family_json(fixture_family("example3"))
        doc["pieces"]["I2"]["structure_constants"][1][1][0] = "1/0"
        doc["pieces"]["I1"]["structure_constants"][0][1][1] = "1/0"
        path = tmp_path / "bad.json"
        path.write_text(specfile.dump_document(doc))
        for _ in range(2):
            code, _, err = run(capsys, "check", str(path))
            assert code == 2
            assert "pieces.I1.structure_constants[0][1][1]: not a valid rational" in err

    @pytest.mark.parametrize("where,bad,message", [
        (("pieces", "I2", 5, 6, 6), "1/0", "not a valid rational: Fraction(1, 0)"),
        (("pieces", "I3", 6, 0, 3), 0.5, "rationals must be integers or 'p/q' strings"),
        (("overlaps", 2, 1, 0, 1), True, "rationals must be integers or 'p/q' strings"),
        (("maps", 3, 1, 7), "x", "not a valid rational: 'x' is not 'p' or 'p/q'"),
    ], ids=["piece-constant", "last-piece-constant", "overlap-constant", "map-entry"])
    def test_a_bad_entry_deep_in_a_table_names_its_exact_field(self, where, bad, message, dense_specfile):
        doc = dense_specfile.family_json(fixture_family("example3", 8))
        head, *index = where
        node = doc[head][index.pop(0)]
        node = node["structure_constants"] if head != "maps" else node["matrix"]
        for n in index[:-1]:
            node = node[n]
        node[index[-1]] = bad
        prefix = {"pieces": f"pieces.{where[1]}.structure_constants",
                  "overlaps": f"overlaps[{where[1]}].structure_constants",
                  "maps": f"maps[{where[1]}].matrix"}[head]
        field = prefix + "".join(f"[{n}]" for n in index)
        with pytest.raises(specfile.DocumentError) as caught:
            specfile.parse_document(specfile.dump_document(doc))
        assert caught.value.path == field
        assert str(caught.value) == f"{field}: {message}"

    @pytest.mark.parametrize("value,expected", [
        (3, 3), ("3", 3), ("-3", -3), ("4/2", 2), ("-6/3", -2), ("0/5", 0),
        ("1/2", Fraction(1, 2)), ("-3/6", Fraction(-1, 2)),
    ], ids=["json-integer", "p", "negative-p", "p/q-integral", "negative-p/q-integral",
            "zero-p/q", "p/q", "negative-p/q-reduced"])
    def test_rationals_are_ints_unless_they_divide(self, value, expected):
        x = specfile.parse_rational(value, "here")
        assert x == expected
        assert type(x) is type(expected)

    def test_invalid_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "algebra-family",\n  "index": [}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_surjective_family_is_refused(self, capsys, tmp_path):
        path = family_path(tmp_path, replaced_map(SQUASH))
        code, out, _ = run(capsys, "check", path)
        assert code == 3
        assert "  map (I2, I3) is not surjective" in out.splitlines()

    def test_non_distributive_piece_reports_its_witness(self, capsys, tmp_path, three_line_family):
        path = tmp_path / "three-lines.json"
        path.write_text(specfile.dump_document(specfile.family_json(three_line_family)))
        code, report, _ = run_json(capsys, "check", str(path))
        assert code == 1
        pieces = {p["piece"]: p for p in report["distributive"]["per_piece"]}
        assert pieces["P1"]["status"] == "not-distributive"
        # the kernels of P1's maps: three lines of the square-zero plane
        assert pieces["P1"]["witness"] == [
            [["0", "1", "0"]], [["0", "0", "1"]], [["0", "1", "1"]],
        ]
        assert all("witness" not in pieces[i] for i in ("P2", "P3", "P4"))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert ("kernels of piece P1 are not distributive: a & (b + c) != (a & b) + (a & c) "
                "for a = span{[0 1 0]} in Q^3, b = span{[0 0 1]} in Q^3, "
                "c = span{[0 1 1]} in Q^3") in out

    @pytest.mark.parametrize("cap", [1, 2])
    def test_a_cap_below_the_kernel_count_is_indeterminate(self, capsys, tmp_path,
                                                           three_line_family, cap):
        path = tmp_path / "three-lines.json"
        path.write_text(specfile.dump_document(specfile.family_json(three_line_family)))
        code, report, _ = run_json(capsys, "check", str(path), "--cap", str(cap))
        assert code == 1
        pieces = {p["piece"]: p for p in report["distributive"]["per_piece"]}
        assert pieces["P1"]["status"] == "indeterminate"
        assert pieces["P1"] == {"piece": "P1", "status": "indeterminate"}  # no blocks, no witness
        assert report["distributive"]["ok"] is False
        assert report["theorem"] == {"ran": False, "reason": "distributivity undecided (lattice cap)"}
        code, out, _ = run(capsys, "check", str(path), "--cap", str(cap))
        assert code == 1
        assert "distributive family: undecided" in out
        assert (f"kernel lattice of piece P1 passed the closure cap ({cap}); "
                "distributivity undecided") in out

    @staticmethod
    def spokes_document(tmp_path) -> Path:
        path = tmp_path / "spokes.json"
        path.write_text(specfile.dump_document(specfile.family_json(dualize(spokes_gluing()))))
        return path

    def test_a_count_that_succeeds_runs_the_theorem_past_the_cap(self, capsys, tmp_path):
        # a cap of five admits exactly the five meets
        code, report, _ = run_json(capsys, "check", str(self.spokes_document(tmp_path)), "--cap", "5")
        assert code == 1
        s1 = report["distributive"]["per_piece"][0]
        assert (s1["piece"], s1["status"], s1["blocks"]) == ("S1", "distributive", [
            {"width": 1, "kernels": ["S2"]}, {"width": 1, "kernels": ["S3"]},
            {"width": 1, "kernels": ["S4"]},
        ])
        assert report["distributive"]["ok"] is True
        assert report["theorem"] == {"ran": True, "verdicts": [False, False, False], "consistent": True}

    def test_a_cap_one_below_the_meets_is_indeterminate(self, capsys, tmp_path):
        code, report, _ = run_json(capsys, "check", str(self.spokes_document(tmp_path)), "--cap", "4")
        assert code == 1
        s1 = report["distributive"]["per_piece"][0]
        assert s1 == {"piece": "S1", "status": "indeterminate"}
        assert report["distributive"]["ok"] is False
        assert report["theorem"] == {"ran": False, "reason": "distributivity undecided (lattice cap)"}

    def test_the_star_past_the_cap_is_undecided(self, capsys, tmp_path, record_calls):
        # the hub's 14 kernels are the coordinate hyperplanes of Q^14, whose
        # 2^14 meets pass the default cap; no piece is refuted, so the family
        # is undecided, and its masks are counted with no intersection
        path = family_path(tmp_path, dualize(star_gluing()))
        meets = record_calls(exactlin, "intersect")
        code, report, _ = run_json(capsys, "check", path)
        assert code == 3  # the subset sweep is refused at 15 pieces
        hub, *spokes = report["distributive"]["per_piece"]
        assert hub == {"piece": "H", "status": "indeterminate"}
        assert all(s["status"] == "distributive" for s in spokes) and len(spokes) == 14
        assert report["distributive"]["ok"] is False
        assert report["theorem"] == {"ran": False, "reason": "distributivity undecided (lattice cap)"}
        code, out, _ = run(capsys, "check", path)
        assert code == 3
        assert out.splitlines()[1:] == [
            "distributive family: undecided",
            "  kernel lattice of piece H passed the closure cap (10000); distributivity undecided",
            "pullback dimension 14",
            "cocycle condition: holds",
            "pairwise extension: holds",
            "subset extension: refused (family has 15 pieces; the exhaustive subset check is capped at 8)",
            "equivalence check skipped: distributivity undecided (lattice cap)",
            "result: FAIL",
        ]
        assert meets == []

    def test_a_one_piece_family_is_one_block(self, capsys, tmp_path):
        # no map leaves the piece, so its whole algebra is one block in no kernel
        g = finset.FiniteGluing(("A",), {"A": ("p", "q", "r")}, {})
        path = tmp_path / "one-piece.json"
        path.write_text(specfile.dump_document(specfile.family_json(dualize(g))))
        code, report, _ = run_json(capsys, "check", str(path))
        assert code == 0
        assert report["distributive"]["per_piece"] == [
            {"piece": "A", "status": "distributive", "blocks": [{"width": 3, "kernels": []}]},
        ]

    def test_a_piece_of_dimension_zero_has_no_blocks(self, capsys, tmp_path):
        g = finset.FiniteGluing(("A", "E"), {"A": ("p", "q"), "E": ()}, {})
        path = tmp_path / "empty-piece.json"
        path.write_text(specfile.dump_document(specfile.family_json(dualize(g))))
        code, report, _ = run_json(capsys, "check", str(path))
        assert code == 0
        pieces = {p["piece"]: p for p in report["distributive"]["per_piece"]}
        assert pieces["E"] == {"piece": "E", "status": "distributive", "blocks": []}
        assert pieces["A"]["blocks"] == [{"width": 2, "kernels": ["E"]}]

    def test_twisted_triangle_fails_clause_two(self, capsys, tmp_path, twisted_triangle):
        path = tmp_path / "twisted.json"
        path.write_text(specfile.dump_document(specfile.family_json(twisted_triangle.family)))
        code, report, _ = run_json(capsys, "check", str(path))
        assert code == 1
        assert report["cocycle"]["overall"] is False
        assert all(e["equal"] for e in report["cocycle"]["condition1"])
        assert [e["status"] for e in report["cocycle"]["condition2"]] == ["fail"] * 6
        assert report["theorem"] == {"ran": True, "verdicts": [False, False, False], "consistent": True}
        # the witness: going round the triangle swaps the two points
        loops = [e["loop"] for e in report["cocycle"]["condition2"]]
        assert loops == [loops[0]] * 6
        assert loops[0] != [["1", "0"], ["0", "1"]]
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "clause 2 fails at (A,B,C): loop = Matrix(2x2: 0 1; 1 0)" in out

    def test_subset_bound_refusal(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "example3", "--max-j", "2")
        assert code == 3
        assert "subset extension: refused" in out

    def test_wrong_kind_is_rejected(self, capsys, tmp_path):
        doc = specfile.gluing_json(tcirc_a())
        path = tmp_path / "gluing.json"
        path.write_text(specfile.dump_document(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "expected a 'algebra-family' document" in err


class TestMalformedInput:
    @pytest.mark.parametrize("argv,name", [
        (["check", "--fixture", "example2", "--cap", "-1"], "argument --cap:"),
        (["check", "--fixture", "example2", "--cap", "0"], "argument --cap:"),
        (["check", "--fixture", "example2", "--max-j", "-1"], "argument --max-j:"),
        (["check", "--fixture", "example2", "--max-j", "0"], "argument --max-j:"),
        (["check", "--fixture", "example2", "--chain", "1"], "argument --chain:"),
        (["repair", "--fixture", "example2", "--cap", "0"], "argument --cap:"),
        (["glue", "--fixture", "tstar", "--chain", "0"], "argument --chain:"),
        (["check", "family.json", "--fixture", "example2"], "--fixture:"),
        (["glue", "--fixture", "tstar", "gluing.json"], "--fixture:"),
        (["repair", "family.json", "--fixture", "example2"], "--fixture:"),
    ])
    def test_bad_flag_exits_two_naming_it(self, capsys, argv, name):
        code, err = exit_code(capsys, *argv)
        assert code == 2
        assert name in err

    @pytest.mark.parametrize("chain", ["3", "5000"])
    @pytest.mark.parametrize("command", ["check", "glue", "repair"])
    def test_chain_with_a_document_exits_two_naming_it(self, capsys, tmp_path, command, chain):
        g = random_gluing(0)
        doc = specfile.gluing_json(g) if command == "glue" else specfile.family_json(dualize(g))
        path = tmp_path / "doc.json"
        path.write_text(specfile.dump_document(doc))
        message = "error: --chain: only applies with --fixture\n"
        assert run(capsys, command, str(path), "--chain", chain) == (2, "", message)
        assert run(capsys, command, str(path), "--json")[0] in (0, 1, 3)

    @pytest.mark.parametrize("command,change,name", [
        ("check", {"options": {"lattice_cap": "abc"}}, "options.lattice_cap"),
        ("check", {"options": {"lattice_cap": 0}}, "options.lattice_cap"),
        ("repair", {"options": {"lattice_cap": True}}, "options.lattice_cap"),
        ("check", {"options": {"max_j": -1}}, "options.max_j"),
        ("check", {"options": {"max_j": 0}}, "options.max_j"),
        ("check", {"options": {"max_j": 2.0}}, "options.max_j"),
        ("check", {"dim": True}, "pieces.I1.dim"),
        ("repair", {"label": {"x": 1}}, "pieces.I1.label"),
    ])
    def test_bad_document_field_exits_two_naming_it(self, capsys, tmp_path, command, change, name):
        doc = specfile.family_json(fixture_family("example3"))
        if "options" in change:
            doc.update(change)
        else:
            doc["pieces"]["I1"].update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, err = exit_code(capsys, command, str(path))
        assert code == 2
        assert name in err

    EMPTY_FAMILY = {"kind": "algebra-family", "index": [], "pieces": {}, "overlaps": [], "maps": []}
    EMPTY_GLUING = {"kind": "finite-gluing", "index": [], "spaces": {}, "identifications": []}
    GLUING = {"kind": "finite-gluing", "index": ["A", "B"], "spaces": {"A": ["x"], "B": ["y"]}}

    @pytest.mark.parametrize("command,doc,name", [
        ("check", EMPTY_FAMILY, "index:"),
        ("repair", EMPTY_FAMILY, "index:"),
        ("glue", EMPTY_GLUING, "index:"),
        ("glue", {**GLUING, "identifications": [{"pair": ["A", "A"], "matches": [["x", "x"]]}]},
         "identifications[0].pair:"),
        ("glue", {**GLUING, "identifications": [
            {"pair": ["A", "B"], "matches": []}, {"pair": ["A", "Z"], "matches": []}]},
         "identifications[1].pair:"),
        ("glue", {**GLUING, "index": ["A", "B", "A"]}, "index:"),
        ("glue", {**GLUING, "spaces": {"A": ["x", "x"], "B": ["y"]}}, "spaces.A[1]:"),
        ("glue", {**GLUING, "identifications": [{"pair": ["B", "A"], "matches": [["y", "z"]]}]},
         "identifications[0].matches[0]:"),
        ("glue", {**GLUING, "spaces": {"A": ["x"], "B": ["y", "w"]},
                  "identifications": [{"pair": ["A", "B"], "matches": [["x", "y"], ["x", "w"]]}]},
         "identifications[0].matches[1]:"),
    ])
    def test_bad_index_or_pair_exits_two_naming_it(self, capsys, tmp_path, command, doc, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, err = exit_code(capsys, command, str(path))
        assert code == 2
        assert name in err

    @pytest.mark.parametrize("command", ["check", "glue", "repair"])
    def test_a_label_with_a_comma_exits_two_naming_it(self, capsys, tmp_path, command):
        # the overlaps (a, "b,c") and ("a,b", c) would share the report key "a,b,c"
        labels = ("a", "b,c", "a,b", "c")
        g = FiniteGluing(labels, {i: ("x",) for i in labels}, {})
        doc = specfile.gluing_json(g) if command == "glue" else specfile.family_json(dualize(g))
        path = tmp_path / "commas.json"
        path.write_text(specfile.dump_document(doc))
        for flags in ([], ["--json"]):
            assert exit_code(capsys, command, str(path), *flags) == (
                2, "error: index[1]: a label must not contain ','\n")

    @pytest.mark.parametrize("text", [
        json.dumps({**specfile.family_json(fixture_family("example3")), "options": {"max_j": 1}})
        .replace('"max_j": 1', '"max_j": ' + "9" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ], ids=["overlong-integer", "deep-nesting"])
    def test_unparseable_json_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, err = exit_code(capsys, "check", str(path))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("command", ["check", "glue", "repair"])
    def test_a_document_that_is_not_utf8_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "finite-gluing", "index": ["\u00e9"]}'.encode("latin-1"))
        code, err = exit_code(capsys, command, str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["check", "glue", "repair"])
    def test_an_unknown_fixture_names_the_flag_and_every_fixture(self, capsys, command):
        code, err = exit_code(capsys, command, "--fixture", "bogus")
        assert code == 2
        assert err == ("error: --fixture: unknown fixture 'bogus'; available: "
                       "tcirc-a, tcirc-c, tstar, example1, example2, example3\n")

    @pytest.mark.parametrize("out", ["missing/repaired.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_two_naming_it(self, capsys, tmp_path, out):
        code, err = exit_code(capsys, "repair", "--fixture", "example3", "--out", str(tmp_path / out))
        assert code == 2
        assert "--out:" in err


@functools.cache
def seed_documents() -> tuple[dict, ...]:
    """The gluing documents of the example fixtures and of ``random_gluing``
    seeds 0-3, and their dual families' documents in both spellings of the
    structure constants."""
    gluings = [fixture_gluing(name) for name in ("example1", "example2", "example3")]
    gluings += [random_gluing(seed) for seed in range(4)]
    return tuple(doc for g in gluings for doc in (
        specfile.family_json(dualize(g)), _dense_family_json(dualize(g)), specfile.gluing_json(g)))


# values a mutation writes: well-typed and ill-typed, in and out of range
POOL = (0, 1, -1, 2, "0", "1/2", "-1", "1/0", "x", "", "I1", None, True, 0.5, [], {}, [0], [[0]])


@st.composite
def mutated_documents(draw) -> dict:
    """A seed document with one field replaced by a pool value, deleted, or
    duplicated (a list item inserted twice, a mapping's value copied under a
    second key, which in a sparse table may be an index).  The field is
    found by walking down from the root and stopping at each level with even
    odds, so the few top-level fields are not drowned out by the entries of
    the tables."""
    doc = copy.deepcopy(draw(st.sampled_from(seed_documents())))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        node = child
    action = draw(st.sampled_from(("replace", "delete", "duplicate")))
    if action == "replace":
        node[key] = draw(st.sampled_from(POOL))
    elif action == "delete":
        del node[key]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(child))
    else:
        node[draw(st.sampled_from(("I1", "A", "kind", "extra", "0", "01")))] = copy.deepcopy(child)
    return doc


class TestMutatedDocuments:
    """A damaged document never crashes a command: it exits 0-3, 1 only when
    the document is valid and a verdict failed, and a repair that succeeds
    writes a document that re-parses and validates."""

    @staticmethod
    def exit_of(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    @staticmethod
    def assert_valid(path: Path, expect_kind: str) -> None:
        kind, obj, _ = specfile.parse_document(path.read_text())
        assert kind == expect_kind
        if kind == specfile.KIND_FAMILY:
            assert obj.problems() == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutated_documents())
    def test_every_command_exits_zero_to_three(self, doc):
        with tempfile.TemporaryDirectory() as work:
            path, out = Path(work) / "doc.json", Path(work) / "repaired.json"
            path.write_text(json.dumps(doc))
            for argv, kind in ((["check", str(path)], specfile.KIND_FAMILY),
                               (["glue", str(path), "--duality"], specfile.KIND_GLUING)):
                code = self.exit_of(argv)
                assert code in (0, 1, 2, 3)
                if code == 1:
                    self.assert_valid(path, kind)
            code = self.exit_of(["repair", str(path), "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 0:
                kind, repaired, _ = specfile.parse_document(out.read_text())
                assert kind == specfile.KIND_FAMILY
                repaired.require_valid()


def source_family(source: str) -> GluingFamily:
    """The family a test names: a fixture's or the dual of a ``seedN``,
    rebased with seed 0, so that it has no coordinate index, when the name
    ends in ``-rebased``."""
    name = source.removesuffix("-rebased")
    fam = fixture_family(name) if name.startswith("example") else dualize(random_gluing(int(name[4:])))
    return _rebased(fam, 0) if source.endswith("-rebased") else fam


def every_subset(labels) -> list[tuple[str, ...]]:
    """The nonempty label subsets, each in label order."""
    return [s for n in range(1, len(labels) + 1) for s in itertools.combinations(labels, n)]


class TestOneAnalysisPerFamily:
    """One `check` computes each fact of its family once, one `glue` each fact of its gluing."""

    @pytest.mark.parametrize("source", ["example2", "seed7", "example2-rebased", "seed7-rebased"])
    def test_each_fact_is_computed_once(self, monkeypatch, record_calls, tmp_path, capsys, source):
        # read from a document: a fixture family is valid by construction and is not validated
        fam = source_family(source)
        path = tmp_path / "family.json"
        path.write_text(specfile.dump_document(specfile.family_json(fam)))
        argv = ["check", str(path)]
        loaded = []
        load = cli._load

        def capture(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load", capture)
        validated = record_calls(algebra, "validate_algebra")
        kernels = record_calls(exactlin, "kernel")
        layouts = record_calls(multipullback, "_block_layout")
        union_finds = record_calls(unionfind, "_union_find")
        eliminations = {name: [] for name in ("_null_space", "_echelon")}
        for name, calls in eliminations.items():
            def eliminated(*args, _calls=calls, _original=getattr(multipullback, name)):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(multipullback, name, eliminated)  # the pullbacks' and the sweep's only
        map_rows = record_calls(algebra, "_map_rows")
        induced = record_calls(algebra, "subspace_algebra")
        ideal_tests = record_calls(algebra, "is_ideal")

        assert main(argv) in (0, 1)
        capsys.readouterr()
        ((_, fam, _),) = loaded
        algebras = list(fam.pieces.values()) + list(fam.overlaps.values())
        assert len(validated) == len(algebras)
        assert all(sum(a is args[0] for args in validated) == 1 for a in algebras)
        for h in fam.maps.values():
            assert sum(h.matrix is args[0] for args in kernels) == 1
        subsets = sorted(map(sorted, every_subset(fam.labels)))
        laid_out = sorted(sorted(args[1]) for args in layouts)
        if source.endswith("-rebased"):
            # each subset laid out and eliminated once: the sweep's K and the whole pullback
            assert fam.coordinate_index is None and union_finds == []
            assert laid_out == subsets
            assert len(eliminations["_null_space"]) == len(subsets)
        else:
            # one union-find per subset, the sweep's K and K + {k}; only
            # the whole pullback is laid out, and nothing is eliminated
            assert sorted(args[1] for args in union_finds) == sorted(every_subset(fam.labels))
            assert laid_out == [sorted(fam.labels)]
            assert eliminations == {"_null_space": [], "_echelon": []}
        assert len(map_rows) == 1 and map_rows[0][0] is fam  # read by every subset
        assert induced == []
        assert ideal_tests == []  # kernels of validated homs are ideals

    @pytest.mark.parametrize("source", ["example2", "seed0", "seed7", "seed7-rebased"])
    def test_each_stage_validates_the_family_once(self, monkeypatch, tmp_path, capsys, source):
        # the distributivity check, the whole pullback, the cocycle and the
        # two sweeps; no pullback of a subset validates it again
        fam = source_family(source)
        path = tmp_path / "family.json"
        path.write_text(specfile.dump_document(specfile.family_json(fam)))
        calls = []
        require_valid = algebra.GluingFamily.require_valid

        def recorded(self, *args, **kwargs):
            calls.append(self)
            return require_valid(self, *args, **kwargs)

        monkeypatch.setattr(algebra.GluingFamily, "require_valid", recorded)
        assert main(["check", str(path)]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == 5
        parsed = calls[0]
        assert all(f is parsed for f in calls)
        subsets = 2 ** len(parsed.labels) - 1
        if source.endswith("-rebased"):  # the sweep builds every pullback
            assert (len(parsed.pullbacks), len(parsed.subset_roots)) == (subsets, 0)
        else:  # the sweep reads roots, and only the whole pullback is built
            assert (len(parsed.pullbacks), len(parsed.subset_roots)) == (1, subsets)

    def test_glue_duality_glues_each_piece_subset_once(self, record_calls, tmp_path, capsys):
        path = tmp_path / "gluing.json"
        path.write_text(specfile.dump_document(specfile.gluing_json(random_gluing(7))))
        validated = record_calls(algebra, "validate_algebra")
        union_finds = record_calls(finset, "_union_find")
        indexes = record_calls(finset, "_point_index")

        assert main(["glue", str(path), "--duality"]) in (0, 1)
        capsys.readouterr()
        labels = random_gluing(7).labels
        assert len(labels) >= 3
        subsets = {(*labels,)} | {
            s for n in (1, 2, 3) for s in itertools.combinations(labels, n)
        }  # whole gluing, pieces and pairs (embeddings), triples (duality)
        assert len(indexes) == 1
        points = indexes[0][0].point_index
        assert sorted(args[1] for args in union_finds if args[0] is points) == sorted(subsets)
        # the dual family's own: its whole pullback, and the pairwise sweep's K and K + {k}
        coordinates = {(*labels,)} | {s for n in (2, 3) for s in itertools.combinations(labels, n)}
        assert sorted(args[1] for args in union_finds if args[0] is not points) == sorted(coordinates)
        assert validated == []  # the dual family is valid by construction

    def test_glue_duality_settles_each_embedding_once(self, record_calls, tmp_path, capsys):
        path = tmp_path / "gluing.json"
        path.write_text(specfile.dump_document(specfile.gluing_json(random_gluing(7))))
        reports = record_calls(finset, "EmbeddingReport")

        assert main(["glue", str(path), "--duality"]) in (0, 1)
        capsys.readouterr()
        labels = random_gluing(7).labels
        pieces_and_pairs = [(s, labels) for n in (1, 2) for s in itertools.combinations(labels, n)]
        extensions = [((i, j), tuple(sorted((i, j, k), key=labels.index)))
                      for i, j in itertools.combinations(labels, 2) for k in labels if k not in (i, j)]
        # the report and the duality check both ask for each piece's embedding
        assert sorted(args[:2] for args in reports) == sorted(pieces_and_pairs + extensions)


class TestPullbacksTheSweepBuilds:
    """A family with a coordinate index builds only the pullbacks a run
    reports, and its sweeps read one union-find per subset K and K + {k}.
    On any other family, deciding an entry by its dimensions reads
    P(K + {k}) only when the run builds it anyway: each run builds the
    pullback subspaces it built when every entry ran an elimination, and
    no others."""

    LABELS = random_gluing(7).labels  # four pieces, so a triple is not the whole family

    def subsets(self, *sizes):
        return sorted(sorted(s) for n in sizes for s in itertools.combinations(self.LABELS, n))

    @staticmethod
    def run(tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(specfile.dump_document(doc))
        name, *flags = command.split()
        assert main([name, str(path), *flags]) in (0, 1, 3)
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["check", "check --max-j 2", "glue --duality"])
    def test_each_command_builds_the_same_subspaces(self, record_calls, tmp_path, capsys, command):
        g = random_gluing(7)
        doc = specfile.gluing_json(g) if command.startswith("glue") else specfile.family_json(dualize(g))
        layouts = record_calls(multipullback, "_block_layout")
        union_finds = record_calls(multipullback, "_union_find")
        indexes = record_calls(algebra, "_coordinate_index")
        self.run(tmp_path, capsys, command, doc)
        assert sorted(sorted(args[1]) for args in layouts) == self.subsets(4)  # the whole pullback
        ((fam,),) = indexes
        read = {
            "check": self.subsets(1, 2, 3, 4),  # every K and K + {k}
            "check --max-j 2": self.subsets(2, 3, 4),  # the pairwise sweep's and the whole pullback
            "glue --duality": self.subsets(2, 3, 4),
        }[command]
        assert sorted(sorted(args[1]) for args in union_finds if args[0] is fam.coordinate_index) == read

    @pytest.mark.parametrize("command", ["check", "check --max-j 2"])
    def test_a_rebased_copy_builds_the_same_subspaces(self, record_calls, tmp_path, capsys, command):
        doc = specfile.family_json(_rebased(dualize(random_gluing(7)), 0))
        layouts = record_calls(multipullback, "_block_layout")
        union_finds = record_calls(multipullback, "_union_find")
        self.run(tmp_path, capsys, command, doc)
        expected = {
            "check": self.subsets(1, 2, 3, 4),  # every subset: the sweep's K and the whole pullback
            "check --max-j 2": self.subsets(2, 4),  # pairwise sweep and the whole pullback
        }[command]
        assert sorted(sorted(args[1]) for args in layouts) == expected
        assert union_finds == []

    def test_the_pairwise_sweep_alone_builds_no_triple(self, record_calls, monkeypatch):
        dual = dualize(random_gluing(7))
        layouts = record_calls(multipullback, "_block_layout")
        union_finds = record_calls(multipullback, "_union_find")
        reduced = []
        echelon = multipullback._echelon

        def recorded(*args):
            reduced.append(args)
            return echelon(*args)

        monkeypatch.setattr(multipullback, "_echelon", recorded)  # the sweep's own eliminations only
        multipullback.check_condition3(dual)
        # the dual reads each pair and triple's roots and builds no pullback
        assert (layouts, reduced) == ([], [])
        assert sorted(sorted(args[1]) for args in union_finds) == self.subsets(2, 3)
        fam = _rebased(dual, 0)
        check_distributive_family(fam)
        assert len(fam.kernel_blocks) == len(self.LABELS)
        report = multipullback.check_condition3(fam)
        assert sorted(sorted(args[1]) for args in layouts) == self.subsets(2)
        assert len(reduced) == len(report.entries)  # no P(K + {k}) at hand, so each is eliminated


class TestFailureTextOnlyWhenPrinted:
    HELPERS = ("_witness_text", "_subspace_text", "_labels_text", "_triple_name")

    @pytest.mark.parametrize("source", ["example2", "seed0"])
    def test_json_formats_no_failure_text(self, record_calls, tmp_path, capsys, source):
        fam = fixture_family(source) if source.startswith("example") else dualize(random_gluing(0))
        path = family_path(tmp_path, fam)
        calls = {name: record_calls(cli, name) for name in self.HELPERS}
        assert run(capsys, "check", path, "--json")[0] == 1
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(self.HELPERS, 0)
        assert run(capsys, "check", path)[0] == 1
        assert all(calls.values())

    @pytest.mark.parametrize("source", ["example1", "example2", "example3", "seed0", "seed7"])
    def test_text_names_each_failure_of_the_report(self, capsys, tmp_path, source):
        fam = fixture_family(source) if source.startswith("example") else dualize(random_gluing(int(source[4:])))
        path = family_path(tmp_path, fam)
        code, report, _ = run_json(capsys, "check", path)
        text_code, out, _ = run(capsys, "check", path)
        assert text_code == code
        expected = []
        for e in report["cocycle"]["condition1"]:
            if not e["equal"]:
                expected.append("  clause 1 fails at ({}): ".format(",".join(e["triple"])))
        for key, what in (("extension_pairs", "pair"), ("extension_all", "tuple")):
            for e in report[key]["entries"]:
                if not e["ok"]:
                    witness = ", ".join(f"{i}=[" + " ".join(v) + "]" for i, v in sorted(e["witness"].items()))
                    expected.append(f"  compatible {what} over ({','.join(e['subset'])}) does not extend "
                                    f"by {e['extend_by']}; witness {witness}")
        printed = [line for line in out.splitlines() if line.startswith(("  clause 1", "  compatible"))]
        assert len(printed) == len(expected)
        assert all(line.startswith(want) for line, want in zip(printed, expected))

    def test_each_pushed_kernel_is_serialised_once(self, record_calls, capsys):
        serialised = record_calls(cli, "_subspace_json")
        code, report, _ = run_json(capsys, "check", "--fixture", "example2")
        assert code == 1
        condition1 = report["cocycle"]["condition1"]
        assert len(serialised) == len(condition1)
        lhs = {tuple(e["triple"]): e["lhs"] for e in condition1}
        for e in condition1:
            i, j, k = e["triple"]
            assert e["rhs"] == lhs[(j, i, k)]

    def test_each_extension_entry_is_serialised_once(self, record_calls, capsys, tmp_path):
        path = family_path(tmp_path, dualize(random_gluing(7)))
        serialised = record_calls(cli, "_entry_json")
        code, report, _ = run_json(capsys, "check", path)
        assert code == 0
        pairs, subsets = report["extension_pairs"]["entries"], report["extension_all"]["entries"]
        assert pairs and len(subsets) > len(pairs)
        keys = {(tuple(e["subset"]), e["extend_by"]) for e in pairs + subsets}
        assert sorted((e.subset, e.extend_by) for (e,) in serialised) == sorted(keys)
        by_key = {(tuple(e["subset"]), e["extend_by"]): e for e in subsets}
        assert all(e == by_key[tuple(e["subset"]), e["extend_by"]] for e in pairs)


class TestScripts:
    @staticmethod
    def run_corpus(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_corpus.py"), *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_run_corpus_smoke(self):
        result = self.run_corpus("--count", "5")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no equivalence or duality violations" in result.stdout

    def test_run_corpus_skips_a_family_past_the_subset_bound(self):
        # seed 9 draws nine pieces, one more than the subset check allows
        result = self.run_corpus("--count", "1", "--seed", "9", "--max-pieces", "12", "--max-points", "2")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "theorem test skipped on 1 instances: subset check refused" in result.stdout
        assert "no equivalence or duality violations" in result.stdout

    def test_run_corpus_json_prints_one_summary_line(self):
        result = self.run_corpus("--count", "5", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["seeds"] == {"first": 0, "count": 5}
        assert summary["elapsed_s"] >= 0
        assert summary["cocycle"]["holds"] + summary["cocycle"]["fails"] == 5
        assert summary["skipped"] == {} and summary["violations"] == []
        sweeps = [multipullback.check_condition2(dualize(random_gluing(seed))) for seed in range(5)]
        assert summary["extension"] == {"entries": sum(len(r.entries) for r in sweeps),
                                        "failing": sum(len(r.failures) for r in sweeps)}
        assert 0 < summary["extension"]["failing"] < summary["extension"]["entries"]
        assert summary["swept_on_union_finds"] == 5
        # the count decides every piece of these families
        pieces = sum(len(random_gluing(seed).labels) for seed in range(5))
        assert summary["distributivity"] == {"pieces": pieces, "by_closure": 0}
        skipped = self.run_corpus("--count", "1", "--seed", "9", "--max-pieces", "12",
                                  "--max-points", "2", "--json")
        assert skipped.returncode == 0, skipped.stdout + skipped.stderr
        summary = json.loads(skipped.stdout)
        assert summary["cocycle"] == {"holds": 0, "fails": 0}
        assert summary["skipped"] == {"subset check refused": 1}
        # past the subset bound, the pairwise sweep's entries
        pairwise = multipullback.check_condition3(dualize(random_gluing(9, max_pieces=12, max_points=2)))
        assert summary["extension"] == {"entries": len(pairwise.entries), "failing": len(pairwise.failures)}

    def test_run_corpus_sweeps_every_family_on_union_finds(self):
        # a fallback to the elimination on any dual family shows as a lower count
        result = self.run_corpus("--json")
        assert result.returncode == 0, result.stdout + result.stderr
        summary = json.loads(result.stdout)
        assert summary["seeds"] == {"first": 0, "count": 200}
        assert summary["swept_on_union_finds"] == 200

    def test_run_corpus_past_nine_pieces(self):
        result = self.run_corpus("--max-pieces", "12", "--count", "20", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout)["violations"] == []

    def test_run_corpus_json_violation_exits_one(self, capsys, monkeypatch):
        spec = importlib.util.spec_from_file_location("run_corpus", ROOT / "scripts" / "run_corpus.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        broken = dataclasses.replace(script.duality_check(random_gluing(1)), mismatches=("planted",))
        monkeypatch.setattr(script, "duality_check", lambda gluing: broken)
        monkeypatch.setattr(sys, "argv", ["run_corpus.py", "--count", "2", "--seed", "1", "--json"])
        with pytest.raises(SystemExit) as exited:
            script.main()
        assert exited.value.code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == [{"seed": 1, "kind": "duality", "detail": ["planted"]},
                                         {"seed": 2, "kind": "duality", "detail": ["planted"]}]

    @pytest.mark.parametrize("flag,value", [
        ("--count", "0"), ("--count", "-3"), ("--max-pieces", "1"), ("--max-points", "0"),
    ])
    def test_run_corpus_bad_flag_exits_two_naming_it(self, flag, value):
        result = self.run_corpus(flag, value)
        assert result.returncode == 2, result.stdout + result.stderr
        assert f"argument {flag}:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv,name", [
        (["0"], "argument n:"), (["x"], "argument n:"),
    ])
    def test_bench_bad_argument_exits_two_naming_it(self, argv, name):
        result = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *argv],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stdout + result.stderr
        assert name in result.stderr
        assert "Traceback" not in result.stderr


class TestBenchProvenance:
    """``bench.py`` says whether the trees it measured are the ones its
    ``rev`` holds, with git stubbed."""

    @pytest.fixture
    def bench(self):
        spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    @staticmethod
    def stub_git(monkeypatch, bench, at_head: dict[str, str]) -> list:
        asked = []

        def git(*args, env=None):
            asked.append(args)
            assert args[0] == "rev-parse"
            d = args[1].removeprefix("HEAD:")
            if d not in at_head:
                raise subprocess.CalledProcessError(128, ["git", *args])
            return at_head[d]

        monkeypatch.setattr(bench, "git", git)
        return asked

    def test_trees_the_head_holds(self, monkeypatch, bench):
        asked = self.stub_git(monkeypatch, bench, {"src": "aaa", "perfbench": "bbb"})
        assert bench.trees_at_rev({"src": "aaa", "perfbench": "bbb"}) is True
        assert sorted(asked) == [("rev-parse", "HEAD:perfbench"), ("rev-parse", "HEAD:src")]

    @pytest.mark.parametrize("at_head", [{"src": "old", "perfbench": "bbb"}, {"perfbench": "bbb"}])
    def test_a_tree_the_head_does_not_hold(self, monkeypatch, bench, at_head):
        # a change measured before it is committed, or a directory HEAD lacks
        self.stub_git(monkeypatch, bench, at_head)
        assert bench.trees_at_rev({"src": "aaa", "perfbench": "bbb"}) is False


class TestOneParserPerProcess:
    SEQUENCE = (
        ["check", "--fixture", "example2", "--json"],
        ["check", "--fixture", "example2"],
        ["check", "--fixture", "example2", "--cap", "0"],
        ["repair", "--fixture", "example2", "--json"],
    )

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_interpreters(self, capsys, monkeypatch):
        # argparse wraps its usage text to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        in_process = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        for argv, got in zip(self.SEQUENCE, in_process):
            fresh = subprocess.run([sys.executable, "-m", "gluecheck", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [code for code, _, _ in in_process] == [1, 1, 2, 0]


class TestClosedStdout:
    """A reader that has gone away is not a failed verdict: the exit code
    is the report's, and nothing reaches stderr."""

    @pytest.mark.parametrize("argv,expected", [
        (["check", "--fixture", "example2"], 1),
        (["check", "--fixture", "example3", "--json"], 0),
        (["glue", "--fixture", "tstar", "--duality"], 1),
        (["repair", "--fixture", "example3"], 0),
    ], ids=["check", "check-json", "glue-duality", "repair"])
    def test_a_closed_pipe_keeps_the_exit_code(self, argv, expected):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "gluecheck", *argv], stdout=write_end,
                                    stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (expected, "")


class TestCompactJson:
    def test_a_json_report_is_one_line(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "example2", "--json")
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["exit"] == code == 1

    def test_a_document_is_dumped_compact(self):
        doc = specfile.family_json(fixture_family("example2"), options={"lattice_cap": 50})
        assert specfile.dump_document(doc) == json.dumps(doc) + "\n"

    def test_repair_out_parses_back_to_the_reports_document(self, capsys, tmp_path):
        out_path = tmp_path / "repaired.json"
        code, out, _ = run(capsys, "repair", "--fixture", "example2", "--json", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)["document"]


class TestGlueCommand:
    def test_collapsing_fixture(self, capsys):
        code, out, _ = run(capsys, "glue", "--fixture", "tstar")
        assert code == 1
        assert "glued space has 5 point classes" in out
        assert "piece I2: NOT embedded" in out

    def test_all_embedded_fixture(self, capsys):
        code, out, _ = run(capsys, "glue", "--fixture", "tcirc-c", "--duality")
        assert code == 0
        assert "glued space has 6 point classes" in out
        assert "consistent" in out

    def test_partial_gluing_verdict(self, capsys):
        code, report, _ = run_json(capsys, "glue", "--fixture", "tcirc-a")
        assert code == 1
        partial = {tuple(p["pair"]): p["embedded"] for p in report["partial_embeddings"]}
        assert partial[("I2", "I3")] is False
        pieces = {p["piece"]: p["embedded"] for p in report["piece_embeddings"]}
        assert all(pieces.values())

    def test_disjoint_document(self, capsys, tmp_path):
        doc = {
            "kind": "finite-gluing",
            "index": ["A", "B"],
            "spaces": {"A": ["x"], "B": ["y"]},
            "identifications": [],
        }
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "glue", str(path))
        assert code == 0
        assert report["class_count"] == 2

    def test_twisted_triangle_is_one_class(self, capsys, tmp_path, twisted_triangle):
        path = tmp_path / "twisted.json"
        path.write_text(specfile.dump_document(specfile.gluing_json(twisted_triangle.gluing)))
        code, report, _ = run_json(capsys, "glue", str(path), "--duality")
        assert code == 1
        assert report["class_count"] == 1
        pieces = {p["piece"]: p["embedded"] for p in report["piece_embeddings"]}
        assert pieces["A"] is False
        assert report["duality"]["class_count"] == 1

    def test_each_duality_mismatch_is_listed(self, capsys, monkeypatch):
        def mismatched(g):
            report = finset.duality_check(g)
            return dataclasses.replace(report, mismatches=("first mismatch", "second mismatch"))

        monkeypatch.setattr(cli, "duality_check", mismatched)
        code, out, _ = run(capsys, "glue", "--fixture", "tcirc-c", "--duality")
        assert code == 1
        assert "MISMATCH (tool bug)\n  first mismatch\n  second mismatch\n" in out

    def test_family_fixture_names_work_for_glue(self, capsys):
        code, out, _ = run(capsys, "glue", "--fixture", "example2")
        assert code == 1  # the partial gluing of the arcs fails to embed


class TestRepairCommand:
    def test_repair_writes_a_loadable_document(self, capsys, tmp_path):
        out_path = tmp_path / "repaired.json"
        code, out, _ = run(capsys, "repair", "--fixture", "example2", "--out", str(out_path))
        assert code == 0
        assert "overlap (I2,I3): dimension 2" in out
        kind, fam, _ = specfile.parse_document(out_path.read_text())
        assert kind == specfile.KIND_FAMILY
        fam.require_valid()
        code2, out2, _ = run(capsys, "check", str(out_path))
        assert code2 == 0

    def test_round_trip_is_bit_exact(self, capsys, tmp_path):
        from gluecheck.multipullback import repair

        repaired = repair(dualize(tcirc_a()))
        text = specfile.dump_document(specfile.family_json(repaired))
        _, reparsed, _ = specfile.parse_document(text)
        assert reparsed == repaired

    def test_refusal_exits_three(self, capsys):
        code, out, _ = run(capsys, "repair", "--fixture", "example1")
        assert code == 3
        assert "projection onto piece I2" in out

    def test_non_distributive_refusal_reports_its_witness(self, capsys, tmp_path, three_line_family):
        path = tmp_path / "three-lines.json"
        path.write_text(specfile.dump_document(specfile.family_json(three_line_family)))
        code, report, _ = run_json(capsys, "repair", str(path))
        assert code == 3
        assert "distributive" in report["refused"]["reason"]
        a, b, c = (exactlin.span(rows, len(rows[0])) for rows in report["refused"]["witness"])
        meet, join = exactlin.intersect, exactlin.subspace_sum
        assert meet(a, join(b, c)) != join(meet(a, b), meet(a, c))
        code, out, _ = run(capsys, "repair", str(path))
        assert code == 3
        assert "refused: projection kernels do not generate a distributive lattice" in out
        a, b, c = (cli._subspace_text(rows, len(rows[0])) for rows in report["refused"]["witness"])
        assert f"  a & (b + c) != (a & b) + (a & c) for a = {a}, b = {b}, c = {c}" in out.splitlines()

    def test_a_map_that_is_not_onto_is_an_unmet_hypothesis(self, capsys, tmp_path):
        broken = replaced_map(SQUASH)
        path = family_path(tmp_path, broken)
        code, report, _ = run_json(capsys, "repair", path)
        assert code == 3
        assert report["refused"] == {"reason": "map (I2, I3) is not surjective", "projection": None}
        code, out, _ = run(capsys, "repair", path)
        assert code == 3
        assert "refused: map (I2, I3) is not surjective" in out
        with pytest.raises(multipullback.RepairRefused, match=r"map \(I2, I3\) is not surjective"):
            multipullback.repair(broken)
        assert run(capsys, "check", path)[0] == 3

    @pytest.mark.parametrize("command", ["check", "repair"])
    def test_a_map_that_breaks_an_axiom_is_invalid(self, capsys, tmp_path, command):
        code, report, _ = run_json(capsys, command, family_path(tmp_path, replaced_map(NOT_A_HOM)))
        assert code == 2
        assert report["error"]["kind"] == "invalid-family"
        assert any("map (I2, I3)" in p for p in report["error"]["problems"])

    def test_refusal_without_a_witness_has_no_witness_key(self, capsys):
        code, report, _ = run_json(capsys, "repair", "--fixture", "example1")
        assert code == 3
        assert report["refused"]["projection"] == "I2"
        assert "witness" not in report["refused"]

    def test_a_repair_that_fails_the_cocycle_condition_exits_one(self, capsys, tmp_path, monkeypatch):
        def failing(fam):
            return dataclasses.replace(multipullback.check_cocycle(fam), overall=False)

        monkeypatch.setattr(cli, "check_cocycle", failing)
        code, report, err = run_json(capsys, "repair", "--fixture", "example2")
        assert (code, err) == (1, "")
        assert report["pass"] is False and report["cocycle_after"] is False
        assert report["exit"] == 1
        code, out, err = run(capsys, "repair", "--fixture", "example2", "--out", str(tmp_path / "r.json"))
        assert (code, err) == (1, "")
        assert "cocycle condition after re-presentation: FAILS\n" in out
        assert out.endswith("result: FAIL\n")

    def test_idempotent_fixture(self, capsys):
        code, report, _ = run_json(capsys, "repair", "--fixture", "example3")
        assert code == 0
        assert report["overlap_dims"] == {"I1,I2": 1, "I1,I3": 1, "I2,I3": 2}
        assert report["cocycle_after"] is True
        assert report["document"]["kind"] == "algebra-family"


class TestDocumentRoundTrips:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_family_documents(self, name):
        fam = fixture_family(name)
        text = specfile.dump_document(specfile.family_json(fam))
        kind, parsed, _ = specfile.parse_document(text)
        assert kind == specfile.KIND_FAMILY
        assert parsed == fam

    @pytest.mark.parametrize("seed", range(8))
    def test_gluing_documents(self, seed):
        g = random_gluing(seed)
        text = specfile.dump_document(specfile.gluing_json(g))
        kind, parsed, _ = specfile.parse_document(text)
        assert kind == specfile.KIND_GLUING
        assert parsed.labels == g.labels
        assert parsed.spaces == g.spaces
        kept = {k: v for k, v in g.identifications.items() if v}
        assert dict(parsed.identifications) == kept

    def test_options_pass_through(self):
        doc = specfile.family_json(fixture_family("example3"), options={"lattice_cap": 50})
        _, _, options = specfile.parse_document(specfile.dump_document(doc))
        assert options == {"lattice_cap": 50}

    def test_reversed_pair_orientation(self):
        doc = {
            "kind": "finite-gluing",
            "index": ["B", "A"],
            "spaces": {"A": ["x"], "B": ["y"]},
            "identifications": [{"pair": ["B", "A"], "matches": [["y", "x"]]}],
        }
        g = specfile.parse_gluing(doc)
        assert g.identifications[("A", "B")] == (("x", "y"),)
