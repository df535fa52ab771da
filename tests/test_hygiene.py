"""Source hygiene: every name a module of the package, a test or a demo
imports is used in it, `apexobs.__all__` lists exactly what `__init__.py`
imports, every module-level private function or class is referenced
somewhere, no public function or method takes a private parameter, no code
but `Graph.__init__` and the trusted constructor fills in a `Graph` itself,
every name the benchmark harness hooks into exists, and every private name
README mentions exists."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import apexobs

PACKAGE = Path(apexobs.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
SCRIPTS = sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = "from fractions import Fraction\nimport math\nimport os.path\nx = os.path.sep\n"
    assert unused_imports(source) == ["Fraction (line 1)", "math (line 2)"]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(apexobs.__all__) == imported
    assert len(apexobs.__all__) == len(imported)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes named _x (dunders excepted)."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, imported or taken as attributes anywhere in a module,
    except a top-level definition's references to itself."""
    refs = set()
    for top in tree.body:
        own = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                refs.add(name)
    return refs


def unreferenced_privates(sources: dict[str, str], scanned: list[str]) -> list[str]:
    """Private definitions of the `scanned` sources that no source references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = set().union(*(referenced_names(tree) for tree in trees.values()))
    return [
        f"{name}: {fn}"
        for name in scanned
        for fn in private_definitions(trees[name])
        if fn not in refs
    ]


def test_scanner_flags_an_unreferenced_private():
    lib = "def _loop(n):\n    return _loop(n - 1)\n\ndef _used():\n    pass\n\nclass _Dead:\n    pass\n"
    other = "from lib import _used\n"
    got = unreferenced_privates({"lib": lib, "other": other}, ["lib"])
    assert got == ["lib: _loop", "lib: _Dead"]


def test_no_unreferenced_private_definitions():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    sources = {str(p): p.read_text() for p in files}
    package = [str(p) for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_privates(sources, package) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def private_parameters(source: str) -> list[str]:
    """Parameters named _x of a module's public functions and of the public
    methods of its public classes: a private knob on a public signature."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS) and is_public(node.name):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and is_public(node.name):
            functions += [
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, FUNCTIONS) and is_public(m.name)
            ]
    return [
        f"{name}: {arg.arg}"
        for name, fn in functions
        for arg in (
            fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            + [a for a in (fn.args.vararg, fn.args.kwarg) if a is not None]
        )
        if arg.arg.startswith("_")
    ]


def test_scanner_flags_a_private_parameter():
    source = (
        "def f(a, *, _cache=None):\n    pass\n\n"
        "def _g(_x):\n    pass\n\n"
        "class C:\n"
        "    def m(self, _y, **_kw):\n        def inner(_z):\n            pass\n\n"
        "    def __init__(self, _w):\n        pass\n\n"
        "    def _h(self, _v):\n        pass\n"
    )
    assert private_parameters(source) == [
        "f: _cache", "C.m: _y", "C.m: _kw", "C.__init__: _w",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_parameters_on_public_signatures(path):
    assert private_parameters(path.read_text()) == []


RAW_BUILDS = {("Graph", "__new__"), ("object", "__setattr__")}
GRAPH_BUILDERS = {"Graph.__init__", "Graph._from_rows"}


def raw_graph_builds(source: str) -> list[str]:
    """Uses of ``Graph.__new__`` or ``object.__setattr__`` outside
    ``GRAPH_BUILDERS``, as "scope: name": a graph built by hand, past both
    the checked constructors and the one trusted one."""
    found = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and (child.value.id, child.attr) in RAW_BUILDS
                and scope not in GRAPH_BUILDERS
            ):
                found.append(f"{scope or '<module>'}: {child.value.id}.{child.attr}")
            walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_scanner_flags_a_graph_built_by_hand():
    source = (
        "class Graph:\n"
        "    def __init__(self):\n        object.__setattr__(self, 'n', 0)\n\n"
        "    def _from_rows(adj):\n        return Graph.__new__(Graph)\n\n"
        "    def add_vertex(self):\n"
        "        g = Graph.__new__(Graph)\n        object.__setattr__(g, 'n', 1)\n\n"
        "def _induced(rows):\n    return Graph.__new__(Graph)\n"
    )
    assert raw_graph_builds(source) == [
        "Graph.add_vertex: Graph.__new__",
        "Graph.add_vertex: object.__setattr__",
        "_induced: Graph.__new__",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_graphs_built_by_one_trusted_constructor(path):
    """Every graph comes from ``Graph(n, edges)``, from ``Graph.from_adj``
    or from ``Graph._from_rows``, the trusted constructor for graphs derived
    from a valid one; no other code fills in a ``Graph`` itself."""
    assert raw_graph_builds(path.read_text()) == []


def test_benchmark_hooks_exist():
    """Every entry point the benchmark traces, and every cache and memo it
    clears, exists: a refactor that drops one fails here, not as a failed
    benchmark run."""
    tree = ast.parse((TESTS.parent / "perfbench" / "tracing.py").read_text())
    (entry_points,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS"
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in entry_points.items()
        for name in names
        if not hasattr(importlib.import_module(f"apexobs.{layer}"), name)
    ]
    assert missing == []
    from apexobs import canonical, minors

    hooks = [
        canonical._canonical.cache_info,
        canonical._canonical.cache_clear,
        canonical.enumerate_graphs.cache_clear,
        minors.clear_minor_cache,
    ]
    assert all(map(callable, hooks))
    assert isinstance(minors._memo, dict)


PRIVATE_NAME = re.compile(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`")


def missing_private_names(text: str) -> list[str]:
    """Backticked private names in ``text``, `_name` or `module._name`, that
    are no attribute of an apexobs module (of that module, when named)."""
    modules = {
        p.stem: importlib.import_module(f"apexobs.{p.stem}")
        for p in MODULES
        if p.stem != "__main__"
    }
    return [
        m[0]
        for m in PRIVATE_NAME.finditer(text)
        if not any(hasattr(mod, m[2]) for stem, mod in modules.items() if m[1] in (None, stem))
    ]


def test_scanner_flags_a_deleted_private_name():
    text = "`_strip`, `graphs._strip`, `series._strip`, `_lands_in` and `c_T_spread`"
    assert missing_private_names(text) == ["`series._strip`", "`_lands_in`"]


def test_readme_names_only_existing_privates():
    """README's module map names private helpers; one deleted or renamed
    since fails here.  ROADMAP is a history and names deleted ones."""
    assert missing_private_names((TESTS.parent / "README.md").read_text()) == []
