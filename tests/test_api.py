"""The package's public surface: `__all__` is what README documents."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import skbounds
from skbounds import WeightedHypergraph, graphical_bounds
from skbounds.cli import parse_document

from conftest import fixture_text

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(skbounds.__file__).resolve().parent


def documented_entry_points() -> list[str]:
    """Backticked names of the README paragraph that lists the entry points."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (listing,) = [p for p in paragraphs if p.startswith("Entry points")]
    return sorted(re.findall(r"`([^`]+)`", listing))


def test_exports_are_the_documented_entry_points():
    assert sorted(skbounds.__all__) == documented_entry_points()
    for name in skbounds.__all__:
        assert getattr(skbounds, name) is not None


def test_only_rational_scales_to_integers():
    # The integer format (values times the lcm of their denominators) lives
    # behind rational.to_integers; no other module reads a denominator.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "denominator":
                offenders.append(f"{path.name}:{node.lineno} .denominator")
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "lcm":
                    offenders.append(f"{path.name}:{node.lineno} lcm()")
    assert offenders == []


def test_graphical_bounds_rejects_a_non_graph():
    with pytest.raises(ValueError, match="exactly two vertices"):
        graphical_bounds(WeightedHypergraph(3, {0b111: Fraction(1)}))


@pytest.mark.parametrize(
    "name, expected",
    [("example1.hg", (3, Fraction(3, 2), 3)), ("example2.hg", (2, 0, 1))],
)
def test_graphical_bounds_on_the_worked_examples(name, expected):
    bounds = graphical_bounds(parse_document(fixture_text(name)))
    assert (bounds.ub_theorem2, bounds.lower_bound, bounds.ci) == expected


def _unread_names(tree: ast.Module) -> list[str]:
    """Imported names, and module-level private ones, that the module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        names += [b for b in bound if b.startswith("_") and not b.startswith("__")]
    return sorted(set(names) - read)


def test_the_unread_name_guard_sees_imports_and_private_names():
    source = (
        "import os, re\nfrom x import a as b, c\n"
        "_K = 1\n_L: int = 2\ndef _f(): return c\nclass _G: pass\nre.sub\n"
    )
    assert _unread_names(ast.parse(source)) == ["_G", "_K", "_L", "_f", "b", "os"]


def test_every_import_and_private_name_is_read():
    # The project has no linter dependency; this is its unused-code check.
    unread = {
        path.name: _unread_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}
