"""No dead code in the package: every name a ``src/ubimap`` module imports
is used in that module, and every top-level function, class and method is
referenced from somewhere other than its own body in ``src/`` or
``perfbench/``. Code only the tests use belongs in ``tests/``; the few
definitions in ``TESTED_API`` are public API kept on purpose.

References are found by name: a bare name, an attribute, an imported name,
or a string that is a (dotted) identifier, as the benchmark tracer names
the functions it wraps. Dunder methods are called implicitly and exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ubimap"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.fullmatch(sub.value):
            names.update(sub.value.split("."))
    return names


def definitions(tree: ast.Module):
    """(module-relative name, node) of each top-level function and class
    and of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


# Public API that only the tests call, kept on purpose.
TESTED_API = {
    "fusion.py: GridMap.state",  # the typed read of one cell, which the tests check maps by
}


def test_every_definition_is_referenced():
    sources = [
        path
        for directory in ("src", "perfbench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    total = Counter()
    for path in sources:
        total += references(parse(path))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(parse(path)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - references(node)[name] <= 0:
                dead.append(f"{path.name}: {qualified}")
    assert sorted(set(dead) - TESTED_API) == []
    assert sorted(TESTED_API - set(dead)) == []  # an entry the package itself now uses
