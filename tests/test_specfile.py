"""The two spellings of ``structure_constants``.  The dense reader gives
what the reference it replaced gives (``dense_specfile`` in conftest); the
sparse spelling, which the writer emits, parses to the same families as
the dense one; every document the tool writes re-parses bit for bit; a
malformed sparse table exits 2 naming its field; and an algebra past
``MAX_DIM`` is refused before its constants are read."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_three_line_family, nilpotent_plane_algebra, twisted_triangle_gluing
from gluecheck import cli, specfile
from gluecheck.algebra import Algebra
from gluecheck.cli import main
from gluecheck.finset import dualize, fixture_family, random_gluing

ZEROS = ("0", 0, "-0", "0/7")
NONZEROS = ("1", "-1", "1/2", "-3/6", 2, "4/2")
BAD = (True, False, 1.5, 0.0, "1/0", "x", None, [])
EXAMPLES = ("example1", "example2", "example3")


def assert_same_family(fam, dense_specfile) -> None:
    """The dense and the sparse spelling of fam parse to fam, the dense one
    as the reference parser reads it too; the sparse one, which the writer
    emits, re-parses bit for bit; and the public constructor accepts every
    algebra the parser built without it."""
    dense = specfile.dump_document(dense_specfile.family_json(fam))
    sparse = specfile.dump_document(specfile.family_json(fam))
    parsed = specfile.parse_document(dense)
    assert parsed == dense_specfile.parse_document(dense)
    assert parsed == specfile.parse_document(sparse)
    kind, family, options = parsed
    assert family == fam
    assert specfile.dump_document(specfile.family_json(family, options)) == sparse
    for a in (*family.pieces.values(), *family.overlaps.values()):
        assert Algebra(a.dim, a.products, a.unit, a.label) == a


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def parity_families(corpus, rebased_families) -> list:
    """example1-3 at chains 3, 8 and 24, the duals of seeds 0-199, and the
    rebased families with their originals."""
    fams = [fixture_family(name, chain) for name in EXAMPLES for chain in (3, 8, 24)]
    fams += [fam for _, fam in corpus]
    fams += [f for _, fam, rebased in rebased_families for f in (fam, rebased)]
    return fams


class TestAgainstDenseParser:
    @pytest.mark.parametrize("chain", [3, 8, 24])
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_fixtures(self, dense_specfile, name, chain):
        assert_same_family(fixture_family(name, chain), dense_specfile)

    def test_fresh_families(self, dense_specfile, fresh_families):
        for name, fam in fresh_families:
            assert_same_family(fam, dense_specfile)

    def test_corpus(self, dense_specfile, corpus):
        for _, fam in corpus:
            assert_same_family(fam, dense_specfile)

    def test_rebased_families(self, dense_specfile, rebased_families):
        for _, fam, rebased in rebased_families:
            assert_same_family(fam, dense_specfile)
            assert_same_family(rebased, dense_specfile)

    def test_documents_repair_writes(self, dense_specfile, parity_families, tmp_path):
        path, out = tmp_path / "doc.json", tmp_path / "repaired.json"
        written = 0
        for fam in parity_families:
            path.write_text(specfile.dump_document(specfile.family_json(fam)))
            out.unlink(missing_ok=True)
            code, _, _ = run_main(["repair", str(path), "--out", str(out)])
            if code != 0:
                continue
            text = out.read_text()
            _, repaired, options = specfile.parse_document(text)
            assert specfile.dump_document(specfile.family_json(repaired, options)) == text
            assert_same_family(repaired, dense_specfile)
            written += 1
        assert written > 100


GOLDEN_INPUTS = {
    **{name: (lambda name=name: fixture_family(name)) for name in EXAMPLES},
    **{f"seed{n}": (lambda n=n: dualize(random_gluing(n))) for n in range(20)},
    "three-lines": build_three_line_family,
    "twisted": lambda: dualize(twisted_triangle_gluing()),
}


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_check_prints_the_same_on_both_spellings(name, dense_specfile, tmp_path, monkeypatch):
    """``check`` and ``check --json`` on the families of the golden reports:
    the same stdout and exit code whichever spelling the document uses."""
    fam = GOLDEN_INPUTS[name]()
    outputs = []
    for spelling, family_json in (("dense", dense_specfile.family_json), ("sparse", specfile.family_json)):
        (tmp_path / spelling).mkdir()
        monkeypatch.chdir(tmp_path / spelling)
        Path("doc.json").write_text(specfile.dump_document(family_json(fam)))
        outputs.append([run_main(["check", "doc.json"] + flags) for flags in ([], ["--json"])])
    assert outputs[0] == outputs[1]
    assert all(err == "" for _, _, err in outputs[1])


class TestZeroVectorFastPath:
    """``_parse_algebra`` takes a vector equal to ["0"] * d as zero without
    parsing it; every other vector is parsed, so that whatever is not
    exactly that list gives the algebra or the error the dense parser gives,
    with the vector's [a][b] path."""

    @staticmethod
    def with_vector(vector, dense_specfile) -> dict:
        value = dense_specfile.algebra_json(Algebra.functions(5))
        value["structure_constants"][1][3] = vector
        return value

    @pytest.mark.parametrize("vector,message", [
        (["0"] * 4, "expected 5 entries, got 4"),
        (["0"] * 6, "expected 5 entries, got 6"),
        ("0", "expected a list"),
        ({"0": "0"}, "expected a list"),
    ], ids=["short", "long", "string", "object"])
    def test_what_is_not_a_vector_of_d_entries(self, dense_specfile, vector, message):
        value = self.with_vector(vector, dense_specfile)
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result == ("pieces.A.structure_constants[1][3]",
                          f"pieces.A.structure_constants[1][3]: {message}")

    @pytest.mark.parametrize("zero", [0, "-0", "0/7"], ids=["int", "minus", "sevenths"])
    def test_other_spellings_of_a_zero_vector(self, dense_specfile, zero):
        value = self.with_vector([zero] * 5, dense_specfile)
        value["structure_constants"][2][2] = [zero] * 5
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result.products[2][2] == () and result.products[1][3] == ()

    def test_only_vectors_that_are_not_all_zero_strings_are_parsed(self, record_calls, dense_specfile):
        parses = record_calls(specfile, "_parse_product")
        value = self.with_vector([0] * 5, dense_specfile)
        result = parsed(specfile._parse_algebra, value)
        assert result == Algebra.functions(5)
        assert [(a, b) for _, _, _, a, b in parses] == [(0, 0), (1, 1), (1, 3), (2, 2), (3, 3), (4, 4)]


def sparse_spelling(value: dict) -> dict:
    """A dense algebra object with its table spelled sparse, every leaf kept,
    zeros and bad ones included, in the same order."""
    table = value["structure_constants"]
    sparse = {str(a): {str(b): {str(k): x for k, x in enumerate(v)} for b, v in enumerate(row)}
              for a, row in enumerate(table)}
    return {**value, "structure_constants": sparse}


@st.composite
def algebra_documents(draw) -> dict:
    """An algebra object of dimension 0-3 whose entries spell zero four
    ways; most constants vectors are all "0", some hold a bad entry."""
    d = draw(st.integers(0, 3))
    entry = st.one_of(st.sampled_from(ZEROS), st.sampled_from(NONZEROS))
    vector = st.one_of(st.just(["0"] * d), st.lists(entry, min_size=d, max_size=d))
    table = draw(st.lists(st.lists(vector, min_size=d, max_size=d), min_size=d, max_size=d))
    if d and draw(st.integers(0, 3)) == 0:
        a, b, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        table[a][b] = list(table[a][b])
        table[a][b][k] = draw(st.sampled_from(BAD))
    unit = draw(st.lists(st.sampled_from(ZEROS + NONZEROS), min_size=d, max_size=d))
    return {"dim": d, "unit": unit, "structure_constants": table}


def parsed(parse, value):
    """An algebra, or the (path, message) of the error naming its field."""
    try:
        return parse(value, "pieces.A", "B(A)")
    except specfile.DocumentError as e:
        return e.path, str(e)


class TestZerosAndBadEntries:
    @settings(max_examples=300, deadline=None)
    @given(algebra_documents())
    def test_every_spelling_of_zero(self, dense_specfile, value):
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        if isinstance(result, Algebra):
            assert Algebra(result.dim, result.products, result.unit, result.label) == result

    @settings(max_examples=300, deadline=None)
    @given(algebra_documents())
    def test_the_sparse_spelling_reads_the_same(self, value):
        # the same leaves in the same order: the same algebra, or the same first error
        assert parsed(specfile._parse_algebra, sparse_spelling(value)) == parsed(specfile._parse_algebra, value)

    @pytest.mark.parametrize("place", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [True, 1.5, "1/0", "x"], ids=["true", "float", "zero-denominator", "x"])
    def test_a_bad_entry_among_zeros(self, dense_specfile, bad, place):
        value = dense_specfile.algebra_json(Algebra.functions(5))
        vector = ["0"] * 5
        vector[place] = bad
        value["structure_constants"][1][3] = vector
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result[0] == f"pieces.A.structure_constants[1][3][{place}]"


FUNCTIONS_3 = {"0": {"0": {"0": "1"}}, "1": {"1": {"1": "1"}}, "2": {"2": {"2": "1"}}}
HERE = "pieces.A.structure_constants"


def with_table(table) -> dict:
    """An algebra object of dimension 3, unit all ones, with this table."""
    return {"dim": 3, "unit": ["1", "1", "1"], "structure_constants": table}


def one_piece_document(value: dict) -> str:
    return specfile.dump_document({"kind": specfile.KIND_FAMILY, "index": ["A"],
                                   "pieces": {"A": value}, "overlaps": [], "maps": []})


class TestSparseSpelling:
    def test_the_writer_lists_the_nonzero_constants_in_order(self):
        assert specfile.algebra_json(nilpotent_plane_algebra())["structure_constants"] == {
            "0": {"0": {"0": "1"}, "1": {"1": "1"}, "2": {"2": "1"}},
            "1": {"0": {"1": "1"}},
            "2": {"0": {"2": "1"}},
        }
        halves = Algebra.from_table([[[2]]], [Fraction(1, 2)])
        assert specfile.algebra_json(halves) == {
            "dim": 1, "label": "", "unit": ["1/2"], "structure_constants": {"0": {"0": {"0": "2"}}}}
        assert specfile.algebra_json(Algebra.zero())["structure_constants"] == {}

    def test_keys_in_any_order(self):
        shuffled = {"2": {"2": {"2": "1"}}, "0": {"2": {"2": "-1", "0": "1"}, "0": {"0": "1"}},
                    "1": {"1": {"1": "1"}}}
        a = parsed(specfile._parse_algebra, with_table(shuffled))
        assert a.products[0][2] == ((0, 1), (2, -1))
        assert specfile.algebra_json(a)["structure_constants"] == {
            "0": {"0": {"0": "1"}, "2": {"0": "1", "2": "-1"}}, "1": {"1": {"1": "1"}},
            "2": {"2": {"2": "1"}}}

    def test_a_zero_leaf_or_an_empty_object_is_an_absent_constant(self):
        # the rule for an explicit zero: read, in any spelling, as the
        # constant left out; the writer never writes one
        table = {"0": {"0": {"0": "1", "1": "0", "2": "0/7"}, "1": {}},
                 "1": {"1": {"0": 0, "1": "1"}},
                 "2": {"0": {"1": "-0"}, "2": {"2": "1"}}}
        a = parsed(specfile._parse_algebra, with_table(table))
        assert a == parsed(specfile._parse_algebra, with_table(FUNCTIONS_3)) == Algebra.functions(3, "B(A)")
        assert specfile.algebra_json(a)["structure_constants"] == FUNCTIONS_3

    @pytest.mark.parametrize("table,field,message", [
        ({"1": ["0", "1", "0"]}, "[1]", "expected an object"),
        ({"1": {"1": "1"}}, "[1][1]", "expected an object"),
        ({"1": {"1": ["0", "1", "0"]}}, "[1][1]", "expected an object"),
        ({"01": {}}, "", "key '01' is not a decimal index below 3"),
        ({"3": {}}, "", "key '3' is not a decimal index below 3"),
        ({"1": {"-1": {}}}, "[1]", "key '-1' is not a decimal index below 3"),
        ({"1": {"1": {" 1": "1"}}}, "[1][1]", "key ' 1' is not a decimal index below 3"),
        ({"1": {"1": {"1.0": "1"}}}, "[1][1]", "key '1.0' is not a decimal index below 3"),
        ({"1": {"1": {"x": "1"}}}, "[1][1]", "key 'x' is not a decimal index below 3"),
        ({"1": {"1": {"1": True}}}, "[1][1][1]", "rationals must be integers or 'p/q' strings"),
        ({"1": {"1": {"1": 1.0}}}, "[1][1][1]", "rationals must be integers or 'p/q' strings"),
        ({"1": {"1": {"1": None}}}, "[1][1][1]", "rationals must be integers or 'p/q' strings"),
        ({"1": {"1": {"1": {}}}}, "[1][1][1]", "rationals must be integers or 'p/q' strings"),
        ({"1": {"1": {"1": "1/0"}}}, "[1][1][1]", "not a valid rational: Fraction(1, 0)"),
        ({"1": {"1": {"1": "1e0"}}}, "[1][1][1]", "not a valid rational: '1e0' is not 'p' or 'p/q'"),
    ], ids=["row-list", "product-string", "product-list", "leading-zero", "past-dim", "negative",
            "space", "decimal", "word", "true", "float", "null", "object", "zero-denominator",
            "exponent"])
    def test_a_malformed_table_exits_two_naming_its_field(self, table, field, message, tmp_path):
        value = with_table({**FUNCTIONS_3, **table})
        assert parsed(specfile._parse_algebra, value) == (HERE + field, f"{HERE}{field}: {message}")
        path = tmp_path / "bad.json"
        path.write_text(one_piece_document(value))
        for command in (["check"], ["check", "--json"], ["repair", "--out", str(tmp_path / "out.json")]):
            assert run_main(command + [str(path)]) == (2, "", f"error: {HERE}{field}: {message}\n")

    @pytest.mark.parametrize("document,key,repeated,field", [
        ("table", '"1": {"1": {"1": "1"}}', '"1": {"1": {"1": "1"}}, "1": {"1": {"1": "1"}}', f"{HERE}[1]"),
        ("table", '"1": {"1": {"1": "1"}}', '"1": {"1": {"1": "1"}, "1": {"1": "2"}}', f"{HERE}[1][1]"),
        ("table", '"1": {"1": {"1": "1"}}', '"1": {"1": {"1": "1", "1": "1"}}', f"{HERE}[1][1][1]"),
        ("family", '{"kind"', '{"index": ["Z"], "kind"', "index"),
        ("table", '"pieces": {"A": ', '"pieces": {"A": {}, "A": ', "pieces.A"),
        ("table", '{"dim": 3', '{"dim": 4, "dim": 3', "pieces.A.dim"),
        ("family", '"options": {"max_j": 8}', '"options": {"max_j": 8, "max_j": 8}', "options.max_j"),
        ("gluing", '"spaces": {"S1": ', '"spaces": {"S1": [], "S1": ', "spaces.S1"),
    ], ids=["row", "product", "coordinate", "index", "piece", "dim", "option", "spaces"])
    def test_a_repeated_key_is_refused_not_overwritten(self, document, key, repeated, field, tmp_path):
        # each document would parse, taking the last value of the key
        command, text = {
            "table": ("check", one_piece_document(with_table(FUNCTIONS_3))),
            "family": ("check", specfile.dump_document(
                specfile.family_json(dualize(random_gluing(0)), {"max_j": 8}))),
            "gluing": ("glue", specfile.dump_document(specfile.gluing_json(random_gluing(0)))),
        }[document]
        text = text.replace(key, repeated, 1)
        assert repeated in text
        with pytest.raises(specfile.DocumentError) as caught:
            specfile.parse_document(text)
        assert caught.value.path == field
        assert str(caught.value) == f"{field}: key repeated in its object"
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert run_main([command, str(path)]) == (2, "", f"error: {field}: key repeated in its object\n")


class TestDimensionBound:
    """An algebra past ``MAX_DIM`` is refused with exit 3 before its unit or
    constants are read, in both spellings; the unit given here is empty, so
    nothing of that size is allocated even if the bound were not checked."""

    @pytest.mark.parametrize("dim", [specfile.MAX_DIM + 1, 10**12], ids=["past", "far-past"])
    @pytest.mark.parametrize("table", [{}, []], ids=["sparse", "dense"])
    def test_past_the_bound_is_refused_at_once(self, dim, table, tmp_path):
        value = {"dim": dim, "unit": [], "structure_constants": table}
        with pytest.raises(specfile.DimensionRefused) as caught:
            specfile.parse_document(one_piece_document(value))
        assert caught.value.path == "pieces.A.dim"
        message = f"pieces.A.dim: dimension {dim} is past the bound of {specfile.MAX_DIM}"
        assert str(caught.value) == message
        path = tmp_path / "large.json"
        path.write_text(one_piece_document(value))
        for command in (["check"], ["check", "--json"], ["repair"]):
            assert run_main(command + [str(path)]) == (3, "", f"refused: {message}\n")

    @pytest.mark.parametrize("chain", [specfile.MAX_DIM + 1, 10**12], ids=["past", "far-past"])
    @pytest.mark.parametrize("command", ["check", "glue", "repair"])
    def test_a_chain_past_the_bound_is_refused_before_its_points(self, chain, command, monkeypatch):
        # a fixture of chain length N has pieces of dimension N
        monkeypatch.setattr(cli, "fixture_gluing", None)  # no point is built
        message = f"refused: --chain: dimension {chain} is past the bound of {specfile.MAX_DIM}\n"
        assert run_main([command, "--fixture", "example2", "--chain", str(chain)]) == (3, "", message)

    def test_a_chain_at_the_bound_is_glued(self):
        code, out, err = run_main(["glue", "--fixture", "example3", "--chain", str(specfile.MAX_DIM)])
        assert (code, err) == (0, "")
        # three chains of MAX_DIM points, glued end to end into a circle
        assert f"glued space has {3 * specfile.MAX_DIM - 3} point classes" in out.splitlines()

    def test_at_the_bound_is_read(self):
        d = specfile.MAX_DIM
        table = {str(n): {str(n): {str(n): "1"}} for n in range(d)}
        a = parsed(specfile._parse_algebra, {"dim": d, "unit": ["1"] * d, "structure_constants": table})
        assert a == Algebra.functions(d, "B(A)")
