"""The package's public surface: `__all__` is what README documents."""

import argparse
import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import skbounds
from skbounds import WeightedHypergraph, graphical_bounds
from skbounds.cli import build_parser, parse_document

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


def documented_synopsis() -> tuple[list[str], list[str]]:
    """Subcommands and options of the `skbounds <...> [...] <file|->` line in README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (line,) = [line for line in section.splitlines() if line.startswith("skbounds <")]
    match = re.fullmatch(r"skbounds <([^>]+)>((?: \[[^]]+\])*) <file\|->", line)
    return match.group(1).split("|"), re.findall(r"\[([^]]+)\]", match.group(2))


def test_synopsis_names_the_commands_and_options_of_the_parser():
    commands, options = documented_synopsis()
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == commands
    for name, parser in sub.choices.items():
        defined = [o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")]
        assert defined == options, name


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


def _dinkelbach_sites(trees: dict[str, ast.Module]) -> list[str]:
    """`module:line` of each name, attribute or import of `dinkelbach` outside the module `flow`."""
    sites = []
    for module, tree in trees.items():
        if module == "flow":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            if "dinkelbach" in names:
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_the_dinkelbach_guard_sees_imports_names_and_attributes():
    trees = {
        "flow": ast.parse("def dinkelbach(src): pass\ndef fundamental(hg): return dinkelbach(hg)\n"),
        "a": ast.parse("from .flow import dinkelbach as run\nrun(x)\n"),
        "b": ast.parse("from . import flow\n\nflow.dinkelbach(x)\n"),
        "c": ast.parse("from .flow import fundamental\nfundamental(hg)\n"),
    }
    assert _dinkelbach_sites(trees) == ["a:1", "b:3"]


def test_only_flow_runs_dinkelbach():
    # `flow.fundamental` runs Dinkelbach's iteration once per hypergraph and
    # keeps the run; every other module reads that run.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert _dinkelbach_sites(trees) == []


def _is_dict(node: ast.AST) -> bool:
    """True on `x.__dict__` and `vars(x)`."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _kept_state(trees: dict[str, ast.Module]) -> tuple[list[str], dict[str, set[str]]]:
    """(sites, keys): `module.function`, innermost function last, of each read or write of an
    object's `__dict__`, sorted, and for each string key used on one, the modules that use it.

    A site at module level is named by the module alone.  A key is the
    subscript, the first argument of a method call (`get`, `setdefault`,
    `pop`) or the left side of an `in` test.
    """
    sites, keys = [], {}

    def visit(node: ast.AST, where: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = f"{where}.{child.name}" if named else where
            if _is_dict(child) or (isinstance(child, ast.Constant) and child.value == "__dict__"):
                sites.append(where)
            key = None
            if isinstance(child, ast.Subscript) and _is_dict(child.value):
                key = child.slice
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and _is_dict(child.func.value):
                key = child.args[0] if child.args else None
            elif isinstance(child, ast.Compare) and any(map(_is_dict, child.comparators)):
                key = child.left
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.setdefault(key.value, set()).add(module)
            visit(child, inner, module)

    for module, tree in trees.items():
        visit(tree, module, module)
    return sorted(sites), keys


def test_the_kept_state_guard_sees_reads_writes_keys_and_nested_functions():
    trees = {
        "flow": ast.parse(
            'def fundamental(hg):\n    if "_run" not in hg.__dict__:\n'
            '        hg.__dict__["_run"] = 1\n    return hg.__dict__["_run"]\n'
        ),
        "a": ast.parse('def f(hg):\n    return hg.__dict__.get("_run")\n'),
        "b": ast.parse('def g(hg):\n    def h():\n        vars(hg)["_x"] = 1\n    return getattr(hg, "__dict__")\n'),
        "c": ast.parse("kept = hg.__dict__\nhg.__dict__.update(m=2)\nclass K:\n    def k(self):\n        self.__dict__.clear()\n"),
    }
    sites, keys = _kept_state(trees)
    assert sites == ["a.f", "b.g", "b.g.h", "c", "c", "c.K.k", "flow.fundamental", "flow.fundamental", "flow.fundamental"]
    assert keys == {"_run": {"flow", "a"}, "_x": {"b"}}


def test_only_the_owners_keep_state_on_a_hypergraph():
    # A hypergraph keeps two values, each under one key that one function
    # reads and writes: `flow.fundamental` its `Run`, and `partitions.mmi`
    # the certified `MmiResult`.  `hypergraph._unchecked` and `flow.Run`'s
    # constructor fill a new instance's fields, with no string key.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    sites, keys = _kept_state(trees)
    assert set(sites) == {"flow.fundamental", "partitions.mmi", "hypergraph._unchecked", "flow.Run.__init__"}
    assert keys == {"_run": {"flow"}, "_mmi": {"partitions"}}


def _calls_fundamental(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fundamental"


def _unpacks(target: ast.AST, value: ast.AST) -> bool:
    """True when assigning `value` to `target` unpacks a `fundamental(...)` result into several names."""
    if not isinstance(target, (ast.Tuple, ast.List)):
        return False
    if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts):
        return any(map(_unpacks, target.elts, value.elts))
    return _calls_fundamental(value)


def _fundamental_unpacks(trees: dict[str, ast.Module]) -> list[str]:
    """`module:line` of each assignment that unpacks a `fundamental(...)` result, and each `*fundamental(...)`."""
    sites = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(_unpacks(t, node.value) for t in node.targets):
                sites.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Starred) and _calls_fundamental(node.value):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_the_unpacking_guard_sees_tuples_lists_stars_and_attributes():
    cases = {
        "src, scale, *_ = fundamental(hg)\n": ["a:1"],
        "[n, d] = fundamental(hg)\n": ["a:1"],
        "from . import flow\n(a, b), c = flow.fundamental(hg), 1\n": ["a:2"],
        "x = y = (*fundamental(hg),)\n": ["a:1"],
        "run = fundamental(hg)\nn, d = run.n, run.d\n": [],
        "run, (p, q) = fundamental(hg), kept\n": [],
        "n, d = fundamentals(hg)\n": [],
    }
    for source, sites in cases.items():
        assert _fundamental_unpacks({"a": ast.parse(source)}) == sites, source


def test_no_module_unpacks_the_run_by_position():
    # `flow.fundamental` returns a frozen `Run`: every reader names its fields.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert _fundamental_unpacks(trees) == []


def _frozen_writes(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function`, innermost function last, of each `__setattr__` attribute read, sorted,
    but for the two writes a frozen record allows: `object.__setattr__(self, ...)` in a
    `__post_init__`, and `object.__setattr__(report, ...)` in `bounds.analyze`.

    A read at module level is named by the module alone.
    """
    sites = []

    def allowed(call: ast.AST, where: str) -> bool:
        if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "__setattr__"):
            return False
        target = getattr(call.func.value, "id", None), getattr(call.args[0], "id", None) if call.args else None
        if where.endswith(".__post_init__"):
            return target == ("object", "self")
        return where == "bounds.analyze" and target == ("object", "report")

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if allowed(child, where):
                continue
            if isinstance(child, ast.Attribute) and child.attr == "__setattr__":
                sites.append(where)
            visit(child, f"{where}.{child.name}" if named else where)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(sites)


def test_the_frozen_write_guard_sees_aliases_nested_functions_and_other_targets():
    trees = {
        "a": ast.parse("class A:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"),
        "b": ast.parse("def r_co(run):\n    object.__setattr__(run, 'table', None)\n"),
        "c": ast.parse(
            "class C:\n    def __post_init__(self):\n        def g():\n            object.__setattr__(self, 'x', 1)\n"
            "        object.__setattr__(other, 'x', 1)\n"
        ),
        "d": ast.parse("put = object.__setattr__\nclass D:\n    put = object.__setattr__\n"),
        "bounds": ast.parse(
            "def analyze(hg):\n    report = R()\n    object.__setattr__(report, 'checks', ())\n"
            "    object.__setattr__(hg, 'x', 1)\ndef run_checks(hg, report):\n"
            "    object.__setattr__(report, 'checks', ())\n"
        ),
    }
    assert _frozen_writes(trees) == [
        "b.r_co", "bounds.analyze", "bounds.run_checks", "c.C.__post_init__", "c.C.__post_init__.g", "d", "d.D"
    ]


def test_no_reader_writes_into_a_frozen_record():
    # A frozen record is written only as it is built: in its `__post_init__`,
    # and by `analyze` on the report it has just built, before any reader
    # has it.  So a kept `Run` is never written after `dinkelbach` returns.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert _frozen_writes(trees) == []
    (analyze,) = [node for node in trees["bounds"].body if getattr(node, "name", None) == "analyze"]
    built = [node.value.func.id for node in ast.walk(analyze) if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) == "report" and isinstance(node.value, ast.Call)]
    assert built == ["AnalysisReport"]


def _to_integers_sites(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function`, innermost function last, of each read of `to_integers` and each import that renames it.

    A read at module level is named by the module alone.
    """
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if any(a.name.rsplit(".", 1)[-1] == "to_integers" and a.asname for a in child.names):
                    sites.append(where)
            elif getattr(child, "id", getattr(child, "attr", None)) == "to_integers":
                sites.append(where)
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(sites)


def test_the_to_integers_guard_sees_calls_attributes_aliases_and_nested_functions():
    trees = {
        "flow": ast.parse("from .rational import to_integers\ndef dinkelbach(src):\n    return to_integers([1])\n"),
        "a": ast.parse("from . import rational\ndef f():\n    def g():\n        return rational.to_integers([])\n    return g\n"),
        "b": ast.parse("from .rational import to_integers as ti\nti([1])\n"),
        "c": ast.parse("from .rational import to_integers\nscale = to_integers\n"),
        "d": ast.parse("def to_integers_like(to_int):\n    return to_int\n"),
    }
    assert _to_integers_sites(trees) == ["a.f.g", "b", "c", "flow.dinkelbach"]


def test_only_the_integer_source_and_run_checks_scale_to_integers():
    # The integer source is built in one place, `dinkelbach` keeps gamma as
    # ints on it, and every reader takes L * I from the run
    # `flow.fundamental` keeps; `run_checks` scales the reported rate point,
    # which it checks.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert _to_integers_sites(trees) == ["bounds.run_checks", "hypergraph.integer_source"]


_FRACTION_NAMES = {"fractions", "rational", "Fraction"}


def _fraction_sites(tree: ast.Module) -> list[int]:
    """Lines that import `fractions` or the package's `rational`, or name `Fraction`, however spelled."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            paths = [getattr(node, "id", getattr(node, "attr", ""))]
        if any(_FRACTION_NAMES & set(path.split(".")) for path in paths):
            lines.append(node.lineno)
    return lines


def test_the_fraction_guard_sees_imports_aliases_and_attributes():
    cases = {
        "from fractions import Fraction\n": [1],
        "import fractions as f\n": [1],
        "from .rational import to_integers\n": [1],
        "from . import rational\n": [1],
        "import skbounds.rational\n": [1],
        "from .hypergraph import Fraction as F\n": [1],
        "from . import hypergraph\nx = hypergraph.Fraction(1)\n": [2],
        "from math import gcd\nfrom .hypergraph import WeightedHypergraph\n'builds no Fraction'\n": [],
    }
    for source, lines in cases.items():
        assert _fraction_sites(ast.parse(source)) == lines, source


def test_the_capacity_run_builds_no_fraction():
    # `flow` keeps gamma as the int pair (n, d): it imports nothing from
    # `fractions` or `rational` and names no `Fraction`.
    assert _fraction_sites(ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))) == []


def test_the_gamma_certificate_builds_no_fraction():
    # UB's last round is checked against x* by cross-multiplying in ints:
    # the two functions that check it scale nothing and name no `Fraction`.
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_certified_round", "_proves_capacity"):
        body = ast.Module(body=functions[name].body, type_ignores=[])
        assert _fraction_sites(body) == [], name
        assert _to_integers_sites({name: body}) == [], name


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


# Imports that nothing in their module reads, by module, each with its reason.
UNREAD_IMPORT_ALLOWED: dict[str, dict[str, str]] = {}


def test_every_import_and_private_name_is_read():
    # The project has no linter dependency; this is its unused-code check.
    unread = {
        path.name: _unread_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    allowed = {name: sorted(names) for name, names in UNREAD_IMPORT_ALLOWED.items()}
    assert {name: names for name, names in unread.items() if names} == allowed


# Public names that are neither exported nor read in src, each with its reason.
UNREAD_PUBLIC_ALLOWED = {
    "hypergraph.WeightedHypergraph.entropy_table": "README's way to read the value of one partition",
    "partitions.MmiResult.all_minimizers": (
        "perfbench's partition-scan check and tracer read it; ROADMAP item 1 moves them to"
        " `minimizer_count`"
    ),
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and its public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _read_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names loaded and attributes accessed in `tree`, outside the subtree `skip`."""
    read, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return read


def _unread_public_names(trees: dict[str, ast.Module], exported) -> list[str]:
    """Public definitions that are not exported and that no code outside their own reads."""
    unread = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            if node.name in exported and "." not in qualified:
                continue
            if not any(node.name in _read_names(other, node) for other in trees.values()):
                unread.append(f"{module}.{qualified}")
    return sorted(unread)


def _src_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_the_public_surface_guard_sees_methods_and_recursion():
    trees = {
        "a": ast.parse(
            "class K:\n    def used(self): return self.idle\n    def idle(self): pass\n"
            "    def lonely(self): return self.lonely()\n"
            "def shown(): pass\ndef hidden(): return hidden()\n"
        ),
        "b": ast.parse("def caller(k): return k.used()\n"),
    }
    assert _unread_public_names(trees, {"K", "shown", "caller"}) == ["a.K.lonely", "a.hidden"]


def test_every_public_name_is_exported_read_or_allowed():
    # No public surface without a caller: what src neither exports nor reads
    # (matched by name) is test-only code, which belongs in tests/.
    unread = _unread_public_names(_src_trees(), set(skbounds.__all__))
    assert unread == sorted(UNREAD_PUBLIC_ALLOWED)


def _private_dataclass_fields(trees: dict[str, ast.Module]) -> list[str]:
    """`module.Class.field` of each field whose name starts with "_" in a class decorated `dataclass`."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            names = [getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in node.decorator_list]
            if "dataclass" not in names:
                continue
            found += [
                f"{module}.{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.target.id.startswith("_")
            ]
    return sorted(found)


def test_the_private_field_guard_sees_dataclasses_only():
    trees = {
        "a": ast.parse(
            "@dataclass(frozen=True)\nclass R:\n    value: int\n    _kept: object = None\n"
            "@dataclass\nclass S:\n    _n: int\n    def _f(self): pass\n"
            "class T:\n    _plain: int = 0\n@dataclass\nclass U:\n    n: int\n"
        ),
    }
    assert _private_dataclass_fields(trees) == ["a.R._kept", "a.S._n"]


def test_no_dataclass_has_a_private_field():
    # A private field on a result type is a hidden channel between the code
    # that builds the result and one reader of it; what a value keeps for
    # reuse stays with the code that owns it.
    assert _private_dataclass_fields(_src_trees()) == []


# Parameters with a default that no call in src passes, each with its reason.
UNPASSED_OPTION_ALLOWED = {
    "cli.main.argv": "the console script calls main() with none; tests pass their own",
    "bounds.analyze.method": (
        'perfbench\'s workloads pass method="auto" or "rowgen", which select the one row'
        " method; ROADMAP items 1 and 5 remove it"
    ),
}


def _functions(tree: ast.AST, prefix: str = "", cls=None):
    """(qualified name, node, enclosing class or None) of every function, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node, cls
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix, cls)


def _passes(call: ast.Call, param: str, position, offset: int) -> bool:
    """Whether `call` passes `param`: by keyword, or at `position` less `offset`."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or position - offset < len(call.args)


def _unpassed_options(trees: dict[str, ast.Module]) -> list[str]:
    """Parameters with a default that no call outside their own function passes.

    Calls match by name: `f(...)` or `x.f(...)` for a function or method f,
    and `C(...)` for `C.__init__`; a method's positions skip `self`.
    """
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = []
    for module, tree in trees.items():
        for qualified, node, cls in _functions(tree):
            name, offset = (cls, 1) if node.name == "__init__" else (node.name, int(cls is not None))
            own = set(map(id, ast.walk(node)))
            callers = [
                call
                for call in calls
                if id(call) not in own
                and getattr(call.func, "attr", getattr(call.func, "id", None)) == name
            ]
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            options = [(arg.arg, first + i) for i, arg in enumerate(positional[first:])]
            options += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for param, position in options:
                if not any(_passes(call, param, position, offset) for call in callers):
                    unpassed.append(f"{module}.{qualified}.{param}")
    return sorted(unpassed)


def test_the_option_guard_sees_positions_keywords_and_classes():
    trees = {
        "a": ast.parse(
            "class K:\n    def __init__(self, n=0): pass\n"
            "    def go(self, fast=False, *, log=None): pass\n"
            "def f(x, y=1, *, z=2): return f(x, z=3)\ndef g(v=0): pass\n"
        ),
        "b": ast.parse("K(5).go(True)\nf(1, 2)\ng()\n"),
    }
    assert _unpassed_options(trees) == ["a.K.go.log", "a.f.z", "a.g.v"]


def test_every_option_has_a_caller_or_a_reason():
    # No option without a caller: a default that src never overrides is a
    # second path nothing takes.
    assert _unpassed_options(_src_trees()) == sorted(UNPASSED_OPTION_ALLOWED)
