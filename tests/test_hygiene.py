"""Source hygiene: every imported name in the package and the tests is used,
and every module-level constant of the package is read somewhere."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for p in [*ROOT.glob("src/freewalk/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"  # a package's imports are its re-exports
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    """Names the module reads, also inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((n, line) for n, line in _imported(tree).items() if n not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_annotation_only_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> Sequence:\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(source) == [("os", 2)]


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _constants(tree: ast.Module) -> dict[str, int]:
    """Each ALL_CAPS name a module-level assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    names[name.id] = node.lineno
    return names


def _reads(tree: ast.AST) -> set[str]:
    """Names and attributes the module loads, also inside string annotations;
    an import alone is not a read."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads |= _reads(ast.parse(node.value, mode="eval"))
    return reads


def _unread_constants(
    modules: dict[str, str], readers: list[str]
) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of each constant no module or reader loads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set().union(*map(_reads, trees.values()), *(_reads(ast.parse(s)) for s in readers))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _constants(tree).items()
        if name not in read
    )


def test_every_package_constant_is_read():
    modules = {p.name: p.read_text() for p in sorted(ROOT.glob("src/freewalk/*.py"))}
    readers = [p.read_text() for p in sorted(ROOT.glob("tests/*.py"))]
    assert _unread_constants(modules, readers) == []


def test_the_constant_check_sees_unread_and_annotation_only_names():
    module = (
        "LIMIT, _private = 3, 4\n"
        "UNREAD: int = 1\n"
        "BY_ATTRIBUTE = 2\n"
        "IN_ANNOTATION = int\n"
        "lowercase = 5\n"
        "def f(x: 'IN_ANNOTATION') -> int:\n"
        "    return x * LIMIT\n"
    )
    reader = "import m\nfrom m import UNREAD\nprint(m.BY_ATTRIBUTE)\n"
    assert _unread_constants({"m.py": module}, [reader]) == [("m.py", "UNREAD", 2)]
