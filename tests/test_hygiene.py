"""Static checks of the package source, standard library only."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hpcheck"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) of every import except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names a package re-exports through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "checker.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_eval_or_exec(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [f"{path.name}:{node.lineno} {node.func.id}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec")]
    assert not calls, f"calls of eval/exec: {calls}"


BENCH = PACKAGE.parent.parent / "bench"


def _names_in(node):
    """Identifiers a node reads: plain names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _defined_name(node):
    """The name a top-level statement defines for the check below: any
    function or class, public or private, and a module constant (an
    UPPER_CASE name, with or without a leading underscore)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        name = targets[0].id
        if name.lstrip("_").isupper():
            return name
    return None


def _methods(node):
    """The non-dunder methods of a top-level class statement."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef)
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def test_public_definitions_are_used():
    # every top-level function, class or constant of the package, and
    # every non-dunder method of a package class, is used by the package
    # or the benchmark outside its own definition, or is exported by
    # __all__
    sources = MODULES + sorted(BENCH.glob("*.py"))
    statements = []  # (path, top-level statement, names it reads)
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        statements.extend((path, node, Counter(_names_in(node)))
                          for node in tree.body)
    reads = sum((names for _, _, names in statements), Counter())
    exported = _exported()
    unused = []
    for path, node, names in statements:
        if path.parent != PACKAGE:
            continue
        name = _defined_name(node)
        if name is not None and name not in exported \
                and reads[name] == names[name]:
            unused.append(f"{path.name}:{node.lineno} {name}")
        for method in _methods(node):
            if reads[method.name] == Counter(_names_in(method))[method.name]:
                unused.append(f"{path.name}:{method.lineno} "
                              f"{node.name}.{method.name}")
    assert not unused, f"defined but unused outside tests: {unused}"
