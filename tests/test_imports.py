"""Every module-level import and private name in the package is used.

No linter ships with the test extra, so this parses each module with
``ast``: a name bound by a module-level import (including one under
``if TYPE_CHECKING:``) must be read somewhere in the module, in its code,
in a string annotation, or in ``__all__``; a private module-level
function, class or constant must be read somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import permball

MODULES = sorted(Path(permball.__file__).parent.glob("*.py"))


def imported_names(tree):
    """Names bound by imports among the module's top-level statements and
    the bodies of its top-level ``if``/``try`` blocks."""
    statements = []
    for node in tree.body:
        statements.append(node)
        if isinstance(node, (ast.If, ast.Try)):
            statements.extend(node.body)
    names = {}
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def annotation_names(node):
    """Names read by an annotation, parsing string annotations too."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from annotation_names(ast.parse(sub.value, mode="eval"))


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .cache import ResultCache\n"
        "import math\n"
        "def f(cache: 'ResultCache | None' = None) -> int:\n"
        "    return 1\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"math"}


def private_definitions(tree):
    """Functions, classes and constants the module defines at its top level
    under a name with one leading underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree):
    """Names read as a loaded name, an attribute, or a ``from`` import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_module_level_name():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert not unread, f"private names never read: {unread}"


def test_unread_private_names_are_found():
    tree = ast.parse(
        "import math\n"
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper():\n"
        "    return _USED + math.pi\n"
        "def _left_over():\n"
        "    return 0\n"
        "class _Dead:\n"
        "    pass\n"
        "value = _helper()\n"
    )
    assert set(private_definitions(tree)) - read_names(tree) == {
        "_UNUSED", "_left_over", "_Dead",
    }
