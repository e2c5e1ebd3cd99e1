"""Every top-level import in the package is used (a stdlib stand-in for pyflakes)."""

import ast
from pathlib import Path

import pytest

import stronglin

PACKAGE = Path(stronglin.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


def _used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # Quoted annotations such as "RunView" name things too.
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_top_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for name in _bound_names(node)
    ]
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"
