"""No float enters a vector: every ``Matrix``, ``Subspace`` and ``Algebra``
reachable from ``analyse``, ``duality_check`` and ``repair`` holds only
``int`` and ``Fraction`` entries, and no float is reachable at all.

That covers the map matrices and their kernels, the pullback subspaces,
the extension witnesses, the cocycle's pushed kernels and transition
matrices, and the repaired family's overlaps and maps.  The extension
reports of families in a rational basis, where ``Fraction``s do arise,
hold only ``int`` and ``Fraction`` entries too.  A scan of the source adds
that the one division in the package is ``_reduce``'s pivot inverse.
"""

import ast
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from gluecheck.algebra import Algebra
from gluecheck.exactlin import Matrix, Subspace
from gluecheck.finset import duality_check, dualize, fixture_gluing, random_gluing
from gluecheck.multipullback import (
    RepairRefused,
    analyse,
    check_cocycle,
    check_condition2,
    check_condition3,
    repair,
)

LEAVES = (str, int, float, Fraction, type(None))


def _reachable(*roots):
    """Every object reachable from the roots through attributes, mapping
    keys and values, sequence items and exception arguments."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, LEAVES):
            continue
        if isinstance(x, Mapping):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        else:
            if isinstance(x, BaseException):
                stack.extend(x.args)
            stack.extend(vars(x).values())


def _entries(x) -> list:
    if isinstance(x, Matrix):
        return [e for row in x.entries for e in row]
    if isinstance(x, Subspace):
        return [e for row in x.basis_rows for e in row]
    if isinstance(x, Algebra):
        return [*x.unit, *(t for row in x.products for v in row for _, t in v)]
    return []


def inexact(*roots) -> list[str]:
    """What is not exact among the objects reachable from the roots."""
    bad = []
    for x in _reachable(*roots):
        if type(x) is float:
            bad.append(f"float {x!r}")
        for e in _entries(x):
            if type(e) is not int and type(e) is not Fraction:
                bad.append(f"{type(e).__name__} entry {e!r} in {x}")
    return bad


def assert_exact_battery(gluing):
    fam = dualize(gluing)
    analysis = analyse(fam)
    duality = duality_check(gluing)
    try:
        repaired = repair(fam)
        after = check_cocycle(repaired)
    except RepairRefused as e:
        repaired = after = e
    assert inexact(analysis, duality, repaired, after, fam) == []


@pytest.mark.parametrize("chain", [3, 24])
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_example_families_stay_exact(name, chain):
    assert_exact_battery(fixture_gluing(name, chain))


def test_corpus_stays_exact():
    for seed in range(100):
        assert_exact_battery(random_gluing(seed))


def test_rebased_extension_reports_stay_exact(rebased_families):
    fractions = 0
    for name, _, fam in rebased_families:
        reports = (check_condition2(fam), check_condition3(fam))
        assert inexact(*reports) == [], name
        for e in reports[0].entries:
            for part in (e.witness or {}).values():
                assert all(type(x) is int or type(x) is Fraction for x in part), name
                fractions += sum(type(x) is Fraction for x in part)
    assert fractions > 0


def test_the_guard_sees_a_float():
    m = Matrix(1, 2, ((1, 0.5),))
    assert sorted(inexact({"deep": [(m,)]})) == [
        "float 0.5", "float entry 0.5 in Matrix(1x2: 1 0.5)",
    ]


SOURCE = Path(__file__).resolve().parents[1] / "src" / "gluecheck"
ARITHMETIC = (ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def arithmetic_sites(tree: ast.AST, module: str) -> list[tuple[str, str, str]]:
    """(module, enclosing function, operator) for each ``/``, ``//``, ``%``
    and ``**`` in the tree, augmented assignments included."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ARITHMETIC):
            sites.append((module, where, type(node.op).__name__))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sites


def test_the_only_division_is_the_pivot_inverse():
    sites = [site for path in sorted(SOURCE.glob("*.py"))
             for site in arithmetic_sites(ast.parse(path.read_text()), path.stem)]
    assert sites == [("exactlin", "_reduce", "Div")]


def test_the_scan_sees_each_operator():
    code = "def f(x):\n    x /= 2\n    return x // 2 + x % 2 + x ** 2\n"
    assert sorted(arithmetic_sites(ast.parse(code), "m")) == [
        ("m", "f", op) for op in ("Div", "FloorDiv", "Mod", "Pow")
    ]
