"""Source hygiene: every name a module of the package, a test or a demo
imports is used in it, `apexobs.__all__` lists exactly what `__init__.py`
imports, every module-level private function or class is referenced
somewhere, no public function or method takes a private parameter, no code
but `Graph.__init__` and the trusted constructor fills in a `Graph` itself,
every name the benchmark harness hooks into exists, every top-level
function or class of the package is exported, used by the package or a
benchmark hook, every private name README mentions exists, no module but
`canonical` sorts by canonical form, no module but `graphs` compares two
masked rows, no module but `graphs` imports a component walk, and the
`cli` docstring lists every private name of the package that `cli` reads."""

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


def form_keyed_sorts(source: str) -> list[str]:
    """``sort``/``sorted`` calls whose ``key`` mentions ``canonical_form``,
    as "line: call"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("sort", "sorted"):
            continue
        for kw in node.keywords:
            if kw.arg == "key" and any(
                getattr(n, "id", getattr(n, "attr", None)) == "canonical_form"
                for n in ast.walk(kw.value)
            ):
                found.append(f"{node.lineno}: {name}")
    return found


def test_scanner_flags_a_form_keyed_sort():
    source = (
        "members.sort(key=lambda b: canonical_form(b.graph))\n"
        "out = sorted(gs, key=canonical.canonical_form)\n"
        "ok = sorted(gs, key=len)\nalso = sorted(forms)\n"
    )
    assert form_keyed_sorts(source) == ["1: sort", "2: sorted"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "canonical.py"], ids=lambda p: p.name
)
def test_only_canonical_sorts_by_form(path):
    """Every family is listed in form order by ``canonical._form_sorted``, so
    no other module sorts by ``canonical_form`` itself."""
    assert form_keyed_sorts(path.read_text()) == []


def masked_row_equalities(source: str) -> list[str]:
    """Comparisons ``a & ~x == b & ~y`` (or ``!=``) of two values each
    masked by a complement, as "line: op"."""

    def masked(node: ast.AST) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd) and any(
            isinstance(side, ast.UnaryOp) and isinstance(side.op, ast.Invert)
            for side in (node.left, node.right)
        )

    found = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
        and masked(node.left)
        and masked(node.comparators[0])
    ]
    return [f"{node.lineno}: {type(node.ops[0]).__name__}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_scanner_flags_a_masked_row_equality():
    source = (
        "u = next((u for u in explored if av & ~(1 << u) == adj[u] & ~(1 << v)), None)\n"
        "t = (u for u, *_ in order if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))\n"
        "ok = row & ~mask == 0\nalso = a & b == c & d\nne = ~x & a != b & ~y\n"
    )
    assert masked_row_equalities(source) == ["1: Eq", "2: Eq", "5: NotEq"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphs.py"], ids=lambda p: p.name
)
def test_only_graphs_decides_twins(path):
    """Twins (N(u) - v = N(v) - u) are decided by ``graphs._twin_roots``
    alone: no other module compares two rows each less a vertex."""
    assert masked_row_equalities(path.read_text()) == []


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


def orphans(sources: dict[str, str], keep: set[str]) -> list[str]:
    """Top-level functions and classes of the `sources` that no source
    references and `keep` does not name, as "module: name"."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = set().union(*(referenced_names(tree) for tree in trees.values())) | keep
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name not in refs
    ]


def test_scanner_flags_an_orphan():
    lib = (
        "def api():\n    return _helper()\n\ndef _helper():\n    pass\n\n"
        "def hook():\n    pass\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
        "class Dead:\n    pass\n"
    )
    other = "from lib import api\n\ndef only_tests():\n    pass\n"
    got = orphans({"lib": lib, "other": other}, {"hook"})
    assert got == ["lib: _loop", "lib: Dead", "other: only_tests"]


def benchmark_hook_names() -> set[str]:
    """The names `perfbench/tracing.py`'s ENTRY_POINTS traces and the
    attributes of package modules that `test_benchmark_hooks_exist` reads,
    such as `minors.clear_minor_cache`."""
    tracing = ast.parse((TESTS.parent / "perfbench" / "tracing.py").read_text())
    (entry_points,) = [
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS"
    ]
    (hooks_test,) = [
        node
        for node in ast.parse(Path(__file__).read_text()).body
        if isinstance(node, FUNCTIONS) and node.name == "test_benchmark_hooks_exist"
    ]
    stems = {p.stem for p in MODULES}
    return {name for names in entry_points.values() for name in names} | {
        node.attr
        for node in ast.walk(hooks_test)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in stems
    }


def test_no_orphans():
    """Every top-level function and class of the package is exported, used
    by other package code, or a hook the benchmark names: code that only
    tests call lives in the tests (`oracles.py`)."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert orphans(sources, set(apexobs.__all__) | benchmark_hook_names()) == []


COMPONENT_WALKS = {"_component", "_components", "_components_meeting", "_join_rank"}


def component_walk_imports(source: str) -> list[str]:
    """Component walks of `graphs` that a module imports or reads as an
    attribute, as "line: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
    return [
        f"{line}: {name}"
        for line, name in sorted(found)
        if name in COMPONENT_WALKS
    ]


def test_scanner_flags_a_component_walk_import():
    source = (
        "from .graphs import Graph, _components, _join_rank\nfrom . import graphs\n"
        "x = graphs._component(adj, 1, 3)\ny = component_masks(g)\n"
    )
    assert component_walk_imports(source) == ["1: _components", "1: _join_rank", "3: _component"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphs.py"], ids=lambda p: p.name
)
def test_only_graphs_walks_components(path):
    """Every cycle-rank step is counted in `graphs` (`_join_rank`, the
    deletion tables and `_rank_drop`): no other module imports a component
    walk."""
    assert component_walk_imports(path.read_text()) == []


PRIVATE_NAME = re.compile(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`")


def missing_private_names(text: str) -> list[str]:
    """Backticked private names in ``text``, `_name`, `module._name` or
    `Class._name`, that are no attribute of an apexobs module (of that
    module, when named), or of a class of that name in an apexobs module."""
    modules = {
        p.stem: importlib.import_module(f"apexobs.{p.stem}")
        for p in MODULES
        if p.stem != "__main__"
    }

    def owners(prefix: str | None) -> list[object]:
        if prefix is None:
            return list(modules.values())
        if prefix in modules:
            return [modules[prefix]]
        found = (getattr(mod, prefix, None) for mod in modules.values())
        return [c for c in found if isinstance(c, type)]

    return [
        m[0] for m in PRIVATE_NAME.finditer(text) if not any(hasattr(o, m[2]) for o in owners(m[1]))
    ]


def test_scanner_flags_a_deleted_private_name():
    text = (
        "`_strip`, `graphs._strip`, `series._strip`, `_lands_in`, `c_T_spread`,"
        " `Graph._from_rows` and `Graph._gone`"
    )
    assert missing_private_names(text) == ["`series._strip`", "`_lands_in`", "`Graph._gone`"]


def test_readme_names_only_existing_privates():
    """README's module map names private helpers; one deleted or renamed
    since fails here.  ROADMAP is a history and names deleted ones."""
    assert missing_private_names((TESTS.parent / "README.md").read_text()) == []


def package_private_reads(source: str) -> list[str]:
    """Private names that ``source`` imports from the package, `_name`, or
    reads as an attribute of a package module it imported, `module._name`."""
    stems = {p.stem for p in MODULES}
    tree = ast.parse(source)
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "apexobs")
    ]
    modules = {alias.asname or alias.name for node in imports for alias in node.names
               if alias.name in stems}
    found = {alias.name for node in imports for alias in node.names if not is_public(alias.name)}
    found |= {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not is_public(node.attr)
    }
    return sorted(found)


def listed_private_names(source: str) -> list[str]:
    """The names that head the module docstring's list entries,
    "- ``name``: why" or "- ``name``, ``other``: why"."""
    heads = re.findall(r"^- (.*?):", ast.get_docstring(ast.parse(source)) or "", re.M)
    return sorted(re.findall(r"``([\w.]+)``", " ".join(heads)))


def test_scanner_flags_an_unlisted_private_read():
    source = (
        '"""Doc ``_x``.\n\n- ``_check_tol``: why;\n- ``minors._memo``, ``minors._y``: why.\n"""\n'
        "from . import __version__, minors\nfrom .cacti import _z_levels, generate_Z\n"
        "from .asymptotics import _check_tol\nfrom os import _exit\n"
        "n = len(minors._memo) + minors._placements + graphs._strip + minors.__name__\n"
    )
    assert package_private_reads(source) == [
        "_check_tol", "_z_levels", "minors._memo", "minors._placements",
    ]
    assert listed_private_names(source) == ["_check_tol", "minors._memo", "minors._y"]


def test_cli_lists_the_private_names_it_reads():
    """Each private name `cli` reads has its reason in the `cli` docstring;
    the butterfly-cactus levels and unions come from public calls."""
    source = (PACKAGE / "cli.py").read_text()
    assert package_private_reads(source) == listed_private_names(source)
