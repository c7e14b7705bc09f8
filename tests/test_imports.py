"""The modules of flagstab import one another without a cycle."""

import ast
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
    unused = {
        p.stem: unused_imports(p.read_text()) for p in PACKAGE.glob("*.py") if p.stem != "__init__"
    }
    assert not any(unused.values()), unused


def test_no_import_cycle():
    cycle = find_cycle(relative_imports())
    assert cycle is None, " -> ".join(cycle)
