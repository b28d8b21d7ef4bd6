"""JSON documents for families and gluings.

Rationals travel as strings "p/q" in lowest terms with positive
denominator (plain "p" for integers), never as floats, so documents are
exact and diff-stable and re-parsing an emitted document reproduces the
in-memory objects bit for bit.

An algebra's ``structure_constants`` are read in either of two spellings:
dense, a list of d rows of d coordinate vectors, or sparse, an object
``{"a": {"b": {"k": "t"}}}`` that lists only the nonzero constants.  The
writer emits the sparse one.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Any, Iterator, Mapping

from gluecheck.algebra import Algebra, AlgebraHom, GluingFamily, SparseVector, _sparse_algebra, pair_key
from gluecheck.exactlin import Matrix, Scalar, scalar
from gluecheck.finset import FiniteGluing

KIND_FAMILY = "algebra-family"
KIND_GLUING = "finite-gluing"
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# The largest algebra a document may declare.  Checked before its constants
# are read, in both spellings: the d x d table of products is allocated
# whatever the spelling, and a sparse one names it in a few bytes.
MAX_DIM = 1024


class DocumentError(ValueError):
    """Parse or schema failure, pointing at the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DimensionRefused(DocumentError):
    """A dimension past ``MAX_DIM``, an algebra's ``dim`` or a fixture's
    ``--chain``; the CLI refuses it with exit 3."""


def bound_dim(dim: int, path: str) -> None:
    """Refuse a dimension past ``MAX_DIM``, naming the field that gives it."""
    if dim > MAX_DIM:
        raise DimensionRefused(f"dimension {dim} is past the bound of {MAX_DIM}", path)


class _Repeated(dict):
    """A JSON object that names ``key`` more than once.  It holds the last
    value, as ``json`` keeps it; ``_expect`` refuses it."""

    key: str


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """The ``object_pairs_hook`` of the parser: a dict, or a ``_Repeated``
    naming the first key that the object repeats."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _ in pairs:
        if key in seen:
            break
        seen.add(key)
    repeated = _Repeated(obj)
    repeated.key = key
    return repeated


def _expect(value: Any, types: type | tuple, path: str, what: str, indexed: bool = False) -> Any:
    """``value``, if it is of ``types`` and not an object that repeats a
    key; that key is named ``path[key]`` when ``indexed``, else ``path.key``."""
    if not isinstance(value, types):
        raise DocumentError(f"expected {what}", path)
    if type(value) is _Repeated:
        raise DocumentError("key repeated in its object",
                            f"{path}[{value.key}]" if indexed else _member(path, value.key))
    return value


def _member(path: str, key: str) -> str:
    """The field name of ``key`` in the object at ``path``."""
    return f"{path}.{key}" if path else key


def _integer(value: Any, least: int, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError("expected an integer", path)
    if value < least:
        raise DocumentError(f"expected an integer >= {least}", path)
    return value


def _get(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise DocumentError("missing field", _member(path, key))
    return obj[key]


@functools.lru_cache(maxsize=1024)
def _rational_text(text: str) -> Scalar:
    """The rational a "p" or "p/q" string names, parsed once per distinct
    string: dense structure constants repeat a few values many times."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not 'p' or 'p/q'")
    return scalar(text)


def _rational(value: Any) -> Scalar:
    """``parse_rational`` without the field path; raises ValueError."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise ValueError("rationals must be integers or 'p/q' strings")
    try:
        return _rational_text(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a valid rational: {e}") from None


def parse_rational(value: Any, path: str) -> Scalar:
    """A JSON integer, or a string "p" or "p/q" of decimal digits, p signed:
    an ``int`` when the denominator is 1, else a ``Fraction``."""
    try:
        return _rational(value)
    except ValueError as e:
        raise DocumentError(str(e), path) from None


def _field(path: str, index: tuple[int, ...]) -> str:
    return path + "".join(f"[{n}]" for n in index)


def _expect_entries(value: Any, length: int, path: str, index: tuple[int, ...]) -> None:
    """That the vector at ``path`` followed by ``[n]`` for each n in
    ``index`` is a list of ``length`` entries; that field name is only built
    for an error, since tables hold many vectors."""
    if not isinstance(value, list):
        raise DocumentError("expected a list", _field(path, index))
    if len(value) != length:
        raise DocumentError(f"expected {length} entries, got {len(value)}", _field(path, index))


def _parse_vector(value: Any, length: int, path: str, *index: int) -> tuple:
    """The dense vector at ``path`` followed by ``[n]`` for each n in ``index``."""
    _expect_entries(value, length, path, index)
    out = []
    try:
        for x in value:
            out.append(_rational(x))
    except ValueError as e:
        raise DocumentError(str(e), _field(path, (*index, len(out)))) from None
    return tuple(out)


def _parse_product(value: Any, length: int, path: str, a: int, b: int) -> SparseVector:
    """The constants of e_a e_b at ``path[a][b]``, as the nonzero ``(k, t)``
    that ``Algebra.products`` stores.  A "0" is skipped unparsed; a JSON
    ``false`` or ``0.0`` is no "0", so it is still parsed and rejected."""
    _expect_entries(value, length, path, (a, b))
    out = []
    try:
        for k, x in enumerate(value):
            if x != "0":
                t = _rational(x)
                if t:
                    out.append((k, t))
    except ValueError as e:
        raise DocumentError(str(e), _field(path, (a, b, k))) from None
    return tuple(out)


def _parse_matrix(value: Any, rows: int, cols: int, path: str) -> Matrix:
    _expect(value, list, path, "a list of rows")
    if len(value) != rows:
        raise DocumentError(f"expected {rows} rows, got {len(value)}", path)
    entries = tuple(_parse_vector(r, cols, path, n) for n, r in enumerate(value))
    return Matrix(rows, cols, entries)


def _parse_dense(sc: Any, dim: int, here: str) -> tuple[tuple[SparseVector, ...], ...]:
    """The products of the dense spelling: ``sc[a][b]`` is the coordinate
    vector of e_a e_b."""
    if len(sc) != dim:
        raise DocumentError(f"expected {dim} rows", here)
    products = []
    zero = ["0"] * dim  # most vectors of a dense table: one comparison each, unparsed
    for a, row in enumerate(sc):
        if not isinstance(row, list):
            raise DocumentError("expected a list", f"{here}[{a}]")
        if len(row) != dim:
            raise DocumentError(f"expected {dim} entries", f"{here}[{a}]")
        products.append(tuple(() if v == zero else _parse_product(v, dim, here, a, b)
                              for b, v in enumerate(row)))
    return tuple(products)


def _items(obj: Any, indices: Mapping[str, int], path: str, *index: int) -> Iterator[tuple[int, Any]]:
    """The (n, value) of the object of a sparse table at ``path`` followed by
    ``[m]`` for each m in ``index``: every key a decimal index below dim with
    no leading zero, and none repeated."""
    if type(obj) is not dict:  # the field name is built only here, for the error
        _expect(obj, dict, _field(path, index), "an object", indexed=True)
    for key, value in obj.items():
        n = indices.get(key)
        if n is None:
            raise DocumentError(f"key {key!r} is not a decimal index below {len(indices)}",
                                _field(path, index))
        yield n, value


def _parse_sparse(sc: dict, dim: int, here: str) -> tuple[tuple[SparseVector, ...], ...]:
    """The products of the sparse spelling, ``sc["a"]["b"]["k"]`` being the
    k-th coordinate of e_a e_b, in O(d + nonzeros) Python steps.  An absent
    row, product or coordinate is zero, and so is a zero leaf."""
    indices = {str(n): n for n in range(dim)}
    empty = ((),) * dim
    products = [empty] * dim
    for a, row in _items(sc, indices, here):
        vectors = list(empty)
        for b, vector in _items(row, indices, here, a):
            out = []
            for k, x in _items(vector, indices, here, a, b):
                try:
                    t = _rational(x)
                except ValueError as e:
                    raise DocumentError(str(e), _field(here, (a, b, k))) from None
                if t:
                    out.append((k, t))
            out.sort()
            vectors[b] = tuple(out)
        products[a] = tuple(vectors)
    return tuple(products)


def _parse_algebra(value: Any, path: str, label: str) -> Algebra:
    _expect(value, dict, path, "an object")
    dim = _integer(_get(value, "dim", path), 0, f"{path}.dim")
    bound_dim(dim, f"{path}.dim")
    unit = _parse_vector(_get(value, "unit", path), dim, f"{path}.unit")
    here = f"{path}.structure_constants"
    sc = _get(value, "structure_constants", path)
    if isinstance(sc, dict):
        products = _parse_sparse(sc, dim, here)
    else:
        products = _parse_dense(_expect(sc, list, here, "a list or an object"), dim, here)
    name = _expect(value.get("label", label), str, f"{path}.label", "a string")
    return _sparse_algebra(dim, products, unit, name)


def _parse_index(doc: Mapping, path: str) -> tuple[str, ...]:
    labels = _get(doc, "index", path)
    _expect(labels, list, "index", "a list of piece labels")
    labels = tuple(_expect(x, str, f"index[{n}]", "a string") for n, x in enumerate(labels))
    for n, x in enumerate(labels):
        if "," in x:  # reports key an overlap by its two labels joined with ","
            raise DocumentError("a label must not contain ','", f"index[{n}]")
    if not labels:
        raise DocumentError("expected at least one piece label", "index")
    if len(set(labels)) != len(labels):
        raise DocumentError("duplicate labels", "index")
    return labels


def _parse_pair(item: Mapping, labels: tuple[str, ...], here: str) -> tuple[str, str]:
    """The ``pair`` of an overlap or identification: two distinct labels of the index."""
    pair = _get(item, "pair", here)
    _expect(pair, list, f"{here}.pair", "a pair of labels")
    if len(pair) != 2 or not all(isinstance(x, str) for x in pair):
        raise DocumentError("expected two labels", f"{here}.pair")
    if pair[0] not in labels or pair[1] not in labels or pair[0] == pair[1]:
        raise DocumentError("labels must be two distinct pieces", f"{here}.pair")
    return pair[0], pair[1]


def parse_family(doc: Mapping, path: str = "") -> GluingFamily:
    labels = _parse_index(doc, path)

    pieces_doc = _expect(_get(doc, "pieces", path), dict, "pieces", "an object")
    pieces = {}
    for i in labels:
        if i not in pieces_doc:
            raise DocumentError(f"no algebra for piece {i}", "pieces")
        pieces[i] = _parse_algebra(pieces_doc[i], f"pieces.{i}", f"B({i})")

    overlaps_doc = _expect(_get(doc, "overlaps", path), list, "overlaps", "a list")
    overlaps = {}
    for n, item in enumerate(overlaps_doc):
        here = f"overlaps[{n}]"
        _expect(item, dict, here, "an object")
        key = pair_key(*_parse_pair(item, labels, here))
        if key in overlaps:
            raise DocumentError(f"duplicate overlap for {key}", f"{here}.pair")
        overlaps[key] = _parse_algebra(item, here, f"B({key[0]},{key[1]})")

    maps_doc = _expect(_get(doc, "maps", path), list, "maps", "a list")
    maps = {}
    for n, item in enumerate(maps_doc):
        here = f"maps[{n}]"
        _expect(item, dict, here, "an object")
        src = _expect(_get(item, "from", here), str, f"{here}.from", "a label")
        dst = _expect(_get(item, "to", here), str, f"{here}.to", "a label")
        if src not in labels or dst not in labels or src == dst:
            raise DocumentError("expected two distinct piece labels", here)
        key = pair_key(src, dst)
        if key not in overlaps:
            raise DocumentError(f"no overlap declared for {key}", here)
        if (src, dst) in maps:
            raise DocumentError(f"duplicate map ({src}, {dst})", here)
        matrix = _parse_matrix(
            _get(item, "matrix", here), overlaps[key].dim, pieces[src].dim, f"{here}.matrix"
        )
        maps[(src, dst)] = AlgebraHom(pieces[src], overlaps[key], matrix)
    return GluingFamily(labels, pieces, overlaps, maps)


def parse_gluing(doc: Mapping, path: str = "") -> FiniteGluing:
    labels = _parse_index(doc, path)

    spaces_doc = _expect(_get(doc, "spaces", path), dict, "spaces", "an object")
    spaces, points = {}, {}
    for i in labels:
        if i not in spaces_doc:
            raise DocumentError(f"no point set for piece {i}", "spaces")
        pts = _expect(spaces_doc[i], list, f"spaces.{i}", "a list of point labels")
        points[i] = set()
        for n, p in enumerate(pts):
            if _expect(p, str, f"spaces.{i}[{n}]", "a string") in points[i]:
                raise DocumentError(f"duplicate point label {p!r}", f"spaces.{i}[{n}]")
            points[i].add(p)
        spaces[i] = tuple(pts)

    idents_doc = _expect(doc.get("identifications", []), list, "identifications", "a list")
    identifications = {}
    for n, item in enumerate(idents_doc):
        here = f"identifications[{n}]"
        _expect(item, dict, here, "an object")
        pair = _parse_pair(item, labels, here)
        key = pair_key(*pair)
        flip = pair != key
        matches = _expect(_get(item, "matches", here), list, f"{here}.matches", "a list of pairs")
        out = []
        matched = (set(), set())
        for m, match in enumerate(matches):
            at = f"{here}.matches[{m}]"
            if not isinstance(match, list) or len(match) != 2 or not all(isinstance(x, str) for x in match):
                raise DocumentError("expected a pair of point labels", at)
            for point, piece, seen in zip(match, pair, matched):
                if point not in points[piece]:
                    raise DocumentError(f"point {point!r} is not in piece {piece}", at)
                if point in seen:
                    raise DocumentError(f"point {point!r} of piece {piece} is matched twice", at)
                seen.add(point)
            out.append((match[1], match[0]) if flip else tuple(match))
        if key in identifications:
            raise DocumentError(f"duplicate identification for {key}", f"{here}.pair")
        identifications[key] = tuple(out)
    return FiniteGluing(labels, spaces, identifications)


def parse_document(text: str) -> tuple[str, GluingFamily | FiniteGluing, dict]:
    """Parse a document; returns (kind, object, options)."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal past Python's digit limit
        raise DocumentError("invalid JSON: an integer literal has too many digits") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects are nested too deeply") from None
    _expect(doc, dict, "", "a JSON object")
    kind = _get(doc, "kind", "")
    options = doc.get("options", {})
    _expect(options, dict, "options", "an object")
    for key in ("lattice_cap", "max_j"):  # the options a run reads; others pass through
        if key in options:
            _integer(options[key], 1, f"options.{key}")
    if kind == KIND_FAMILY:
        return kind, parse_family(doc), dict(options)
    if kind == KIND_GLUING:
        return kind, parse_gluing(doc), dict(options)
    raise DocumentError(f"unknown kind {kind!r}; expected '{KIND_FAMILY}' or '{KIND_GLUING}'", "kind")


def vector_json(v) -> list[str]:
    return [str(x) for x in v]


def matrix_json(m: Matrix) -> list[list[str]]:
    return [vector_json(r) for r in m.entries]


def algebra_json(a: Algebra) -> dict:
    """The algebra with its constants in the sparse spelling: rows, products
    and coordinates in increasing order, zeros left out."""
    return {
        "dim": a.dim,
        "label": a.label,
        "unit": vector_json(a.unit),
        "structure_constants": {
            str(i): {str(j): {str(k): str(t) for k, t in v} for j, v in enumerate(row) if v}
            for i, row in enumerate(a.products) if any(row)
        },
    }


def family_json(fam: GluingFamily, options: Mapping | None = None) -> dict:
    doc: dict = {"kind": KIND_FAMILY}
    if options:
        doc["options"] = dict(options)
    doc["index"] = list(fam.labels)
    doc["pieces"] = {i: algebra_json(fam.pieces[i]) for i in fam.labels}
    doc["overlaps"] = [
        {"pair": list(key), **algebra_json(fam.overlaps[key])}
        for key in sorted(fam.overlaps)
    ]
    doc["maps"] = [
        {"from": i, "to": j, "matrix": matrix_json(fam.maps[(i, j)].matrix)}
        for i, j in sorted(fam.maps)
    ]
    return doc


def gluing_json(g: FiniteGluing, options: Mapping | None = None) -> dict:
    doc: dict = {"kind": KIND_GLUING}
    if options:
        doc["options"] = dict(options)
    doc["index"] = list(g.labels)
    doc["spaces"] = {i: list(g.spaces[i]) for i in g.labels}
    doc["identifications"] = [
        {"pair": list(key), "matches": [list(m) for m in g.identifications[key]]}
        for key in sorted(g.identifications)
        if g.identifications[key]
    ]
    return doc


def dump_document(doc: Mapping) -> str:
    """The document as one line of compact JSON.  It holds no cycle, so the
    encoder skips its cycle check."""
    return json.dumps(doc, check_circular=False) + "\n"
