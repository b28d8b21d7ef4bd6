"""The sparse reader and writer of structure constants against the dense
ones they replaced (``dense_specfile`` in conftest): the same objects, the
same error for a bad entry, the same bytes written."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gluecheck import specfile
from gluecheck.algebra import Algebra
from gluecheck.cli import main
from gluecheck.finset import fixture_family

ZEROS = ("0", 0, "-0", "0/7")
NONZEROS = ("1", "-1", "1/2", "-3/6", 2, "4/2")
BAD = (True, False, 1.5, 0.0, "1/0", "x", None, [])


def assert_same_family(text: str, dense_specfile) -> None:
    """Both parsers give equal families, and the public constructor accepts
    every algebra the sparse parser built without it."""
    kind, fam, options = specfile.parse_document(text)
    assert (kind, fam, options) == dense_specfile.parse_document(text)
    for a in (*fam.pieces.values(), *fam.overlaps.values()):
        assert Algebra(a.dim, a.products, a.unit, a.label) == a


def assert_same_bytes(fam, dense_specfile) -> None:
    written = specfile.dump_document(specfile.family_json(fam))
    assert written == specfile.dump_document(dense_specfile.family_json(fam))


class TestAgainstDenseParser:
    @pytest.mark.parametrize("chain", [3, 24])
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_fixtures(self, dense_specfile, name, chain):
        fam = fixture_family(name, chain)
        assert_same_bytes(fam, dense_specfile)
        assert_same_family(specfile.dump_document(specfile.family_json(fam)), dense_specfile)

    def test_fresh_families(self, dense_specfile, fresh_families):
        for name, fam in fresh_families:
            assert_same_bytes(fam, dense_specfile)
            assert_same_family(specfile.dump_document(specfile.family_json(fam)), dense_specfile)

    def test_documents_repair_writes(self, dense_specfile, fresh_families):
        written = 0
        with tempfile.TemporaryDirectory() as work:
            path, out = Path(work) / "doc.json", Path(work) / "repaired.json"
            for name, fam in fresh_families:
                path.write_text(specfile.dump_document(specfile.family_json(fam)))
                out.unlink(missing_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["repair", str(path), "--out", str(out)])
                if code != 0:
                    continue
                text = out.read_text()
                assert_same_family(text, dense_specfile)
                _, repaired, options = specfile.parse_document(text)
                assert specfile.dump_document(dense_specfile.family_json(repaired, options)) == text
                written += 1
        assert written > 0


class TestZeroVectorFastPath:
    """``_parse_algebra`` takes a vector equal to ["0"] * d as zero without
    parsing it; every other vector is parsed, so that whatever is not
    exactly that list gives the algebra or the error the dense parser gives,
    with the vector's [a][b] path."""

    @staticmethod
    def with_vector(vector) -> dict:
        value = specfile.algebra_json(Algebra.functions(5))
        value["structure_constants"][1][3] = vector
        return value

    @pytest.mark.parametrize("vector,message", [
        (["0"] * 4, "expected 5 entries, got 4"),
        (["0"] * 6, "expected 5 entries, got 6"),
        ("0", "expected a list"),
        ({"0": "0"}, "expected a list"),
    ], ids=["short", "long", "string", "object"])
    def test_what_is_not_a_vector_of_d_entries(self, dense_specfile, vector, message):
        value = self.with_vector(vector)
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result == ("pieces.A.structure_constants[1][3]",
                          f"pieces.A.structure_constants[1][3]: {message}")

    @pytest.mark.parametrize("zero", [0, "-0", "0/7"], ids=["int", "minus", "sevenths"])
    def test_other_spellings_of_a_zero_vector(self, dense_specfile, zero):
        value = self.with_vector([zero] * 5)
        value["structure_constants"][2][2] = [zero] * 5
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result.products[2][2] == () and result.products[1][3] == ()

    def test_only_vectors_that_are_not_all_zero_strings_are_parsed(self, record_calls):
        parses = record_calls(specfile, "_parse_product")
        value = self.with_vector([0] * 5)
        result = parsed(specfile._parse_algebra, value)
        assert result == Algebra.functions(5)
        assert [(a, b) for _, _, _, a, b in parses] == [(0, 0), (1, 1), (1, 3), (2, 2), (3, 3), (4, 4)]


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

    @pytest.mark.parametrize("place", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [True, 1.5, "1/0", "x"], ids=["true", "float", "zero-denominator", "x"])
    def test_a_bad_entry_among_zeros(self, dense_specfile, bad, place):
        value = specfile.algebra_json(Algebra.functions(5))
        vector = ["0"] * 5
        vector[place] = bad
        value["structure_constants"][1][3] = vector
        result = parsed(specfile._parse_algebra, value)
        assert result == parsed(dense_specfile.parse_algebra, value)
        assert result[0] == f"pieces.A.structure_constants[1][3][{place}]"
