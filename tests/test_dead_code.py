"""No dead code in the package: every name a ``src/ubimap`` module imports
is used in that module, and every top-level function, class and method is
referenced from somewhere other than its own body in ``src/`` or
``perfbench/``. Code only the tests use belongs in ``tests/``; the few
definitions in ``TESTED_API`` are public API kept on purpose.

References are found by name: a bare name, an attribute, an imported name,
or a string that is a (dotted) identifier, as the benchmark tracer names
the functions it wraps. Dunder methods are called implicitly and exempt.

Nor does the package keep one-value knobs: every default of a top-level
function's parameter is overridden by some call in ``src/``, ``perfbench/``
or ``tests/``. Methods and dataclass fields are not checked.
"""

import ast
import math
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


def defaulted_parameters(node: ast.FunctionDef):
    """(position or None, name) of each parameter with a default; keyword-only
    ones have no position."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for k, arg in enumerate(positional[first:], first):
        yield k, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def dict_keys(node: ast.AST) -> set[str] | None:
    """The keys of ``dict(a=..., ...)`` or of a dict literal with string keys; None for any other value."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict" and not node.args:
        keys = [kw.arg for kw in node.keywords]
    elif isinstance(node, ast.Dict):
        keys = [key.value if isinstance(key, ast.Constant) else None for key in node.keys]
    else:
        return None
    return set(keys) if all(isinstance(key, str) for key in keys) else None


def call_arguments(tree: ast.Module):
    """(function name, positional count, keyword names) of each call ``f(...)``
    or ``x.f(...)``. A ``*args`` makes the count unbounded; a ``**name`` adds
    the keys of the dict that ``name`` is bound to in the module, and any
    other ``**`` makes the names None, every name."""
    bound: dict[str, set[str] | None] = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
            name, keys = sub.targets[0].id, dict_keys(sub.value)
            before = bound.get(name, set())
            bound[name] = None if keys is None or before is None else before | keys
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call) or not isinstance(sub.func, (ast.Name, ast.Attribute)):
            continue
        count = math.inf if any(isinstance(a, ast.Starred) for a in sub.args) else len(sub.args)
        names: set[str] | None = set()
        for kw in sub.keywords:
            keys = {kw.arg} if kw.arg is not None else bound.get(kw.value.id) if isinstance(kw.value, ast.Name) else None
            names = None if keys is None or names is None else names | keys
        yield (sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr), count, names


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter of a top-level ``src/ubimap`` function that no
    call passes, by position or keyword, is a one-value knob: make it a
    constant. Calls are matched by name, as ``f(...)`` or ``x.f(...)``, in
    ``src/``, ``perfbench/`` and ``tests/`` (see ``call_arguments``).
    Methods and dataclass fields are not checked."""
    calls: dict[str, list] = {}
    for directory in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for name, count, names in call_arguments(parse(path)):
                calls.setdefault(name, []).append((count, names))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for position, name in defaulted_parameters(node):
                if not any(
                    names is None or name in names or (position is not None and count > position)
                    for count, names in calls.get(node.name, [])
                ):
                    unused.append(f"{path.name}: {node.name}({name})")
    assert unused == []


def test_every_dataclass_checks_or_derives_its_fields():
    """A record that only holds values is a ``typing.NamedTuple``: a
    ``@dataclass`` decoration generates and compiles its methods when its
    module is imported, which every command pays before it runs. So every
    dataclass under ``src/`` defines ``__post_init__`` to check or derive
    its fields, but for ``Scenario``, which ``perfbench/gen.py`` rebuilds
    with ``dataclasses.replace``."""
    plain = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
            methods = {item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            if any(d.split(".")[-1] == "dataclass" for d in decorators) and "__post_init__" not in methods:
                plain.append(f"{path.name}: {node.name}")
    assert plain == ["world.py: Scenario"]
