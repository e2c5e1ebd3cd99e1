"""Every top-level import in the package, its tests and its benchmark is used
(a stdlib stand-in for pyflakes), and every package definition has a consumer."""

import ast
from pathlib import Path

import pytest

import stronglin

PACKAGE = Path(stronglin.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS + BENCH, ids=lambda p: p.name)
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


# Definitions no report, command or benchmark reaches, each with the
# reason it stays in the package anyway.
UNUSED_ON_PURPOSE: dict[str, str] = {}
SOURCES = MODULES + BENCH


def _named(node):
    """Every name a statement mentions: identifiers, attributes, imported
    names, and string constants, since bench/ rebinds functions by name."""
    names = _used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _is_click_command(node):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_definition_has_a_consumer():
    # A top-level function or class of the package, or a method or
    # property of such a class other than a dunder, must be named by some
    # other statement of src/ or bench/; tests alone do not keep it.
    statements = [
        (path, node) for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    named = [(node, _named(node)) for _path, node in statements]

    def consumed(node, units):
        return any(node.name in names for other, names in units if other is not node)

    unused = []
    for path, node in statements:
        if path.parent != PACKAGE or not isinstance(
            node, (ast.FunctionDef, ast.ClassDef)
        ):
            continue
        if _is_click_command(node) or node.name in UNUSED_ON_PURPOSE:
            continue
        if not consumed(node, named):
            unused.append(f"{path.name}:{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        # A class statement names what its own methods call, so a member
        # counts the other members of its class one by one instead.
        units = [u for u in named if u[0] is not node]
        units += [(sub, _named(sub)) for sub in node.body]
        for member in node.body:
            if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                continue
            if not consumed(member, units):
                unused.append(f"{path.name}:{node.name}.{member.name}")
    assert not unused, f"definitions without a consumer: {', '.join(unused)}"
    defined = {node.name for _path, node in statements if hasattr(node, "name")}
    assert set(UNUSED_ON_PURPOSE) <= defined
