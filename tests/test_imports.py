"""The modules of flagstab import one another without a cycle, and every
name the benchmark harness binds resolves."""

import ast
import importlib
from pathlib import Path

import flagstab

PACKAGE = Path(flagstab.__file__).parent


def relative_imports() -> dict[str, set[str]]:
    """Each module's relative imports of sibling modules, function-level
    ones included; `from . import name` of a non-module is `__init__`."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {}
    for name in sorted(modules):
        deps = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                deps.add(node.module.split(".")[0])
            else:
                deps.update(a.name if a.name in modules else "__init__" for a in node.names)
        graph[name] = deps
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of the graph as a closed path of nodes, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node) :] + [node]
        if node in done:
            return None
        path.append(node)
        for dep in sorted(graph.get(node, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    return next((c for c in map(visit, sorted(graph)) if c), None)


def test_find_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_reads_every_module():
    graph = relative_imports()
    assert {"poly", "groebner", "hilbert", "geometry", "flags", "cli"} <= set(graph)
    assert {"poly", "groebner"} <= graph["hilbert"]
    assert "__init__" in graph["cli"]  # `from . import __version__`


def unused_imports(source: str) -> list[str]:
    """Names the module's imports bind, at any level, that it never uses."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b, c as d\nb(d)\n"
    assert unused_imports(source) == ["os"]


def test_no_unused_imports():
    tests = Path(__file__).resolve().parent
    sources = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"] + list(tests.glob("*.py"))
    unused = {p.name: unused_imports(p.read_text()) for p in sources}
    assert not any(unused.values()), unused


def test_no_import_cycle():
    cycle = find_cycle(relative_imports())
    assert cycle is None, " -> ".join(cycle)


BENCH = Path(__file__).resolve().parent.parent / "perfbench"
HANDLES = {"fs": "flagstab", "cli": "flagstab.cli"}  # the harness's names for the two modules


def _handle(node: ast.expr) -> str | None:
    """The flagstab module an expression such as `fs`, `self.cli` or
    `mods["flagstab.poly"]` stands for in the harness, or None."""
    if isinstance(node, ast.Name):
        return HANDLES.get(node.id)
    if isinstance(node, ast.Attribute):
        return HANDLES.get(node.attr)
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        key = node.slice.value
        return key if isinstance(key, str) and key.startswith("flagstab") else None
    return None


def benchmark_names() -> set[str]:
    """Dotted paths of everything the benchmark harness reads from flagstab:
    the functions `tracing.WRAPPED` wraps, what its files import from
    flagstab modules, and the attributes they read off a flagstab module."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
            ):
                wrapped = ast.literal_eval(node.value)
                names.update(f"flagstab.{m}.{fn}" for m, fns in wrapped.items() for fn in fns)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flagstab"):
                names.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Attribute) and _handle(node.value):
                names.add(f"{_handle(node.value)}.{node.attr}")
    return names


def resolve(dotted: str):
    """The object at a dotted path, importing modules along the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:  # a submodule not imported yet
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def test_benchmark_names_resolve():
    names = benchmark_names()
    # the reader finds each kind of binding
    assert {
        "flagstab.linalg.rank_of_rows",  # WRAPPED
        "flagstab.groebner.poly_to_row",  # imported by checks.py
        "flagstab.flat_limit_oracle",  # read off `fs`
        "flagstab.cli.parse_document",  # read off `cli`
        "flagstab.poly.GRLEX",  # read off mods["flagstab.poly"]
    } <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, missing
