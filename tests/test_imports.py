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


def test_cache_imports_neither_the_dispatcher_nor_verify():
    # The cache stores counts; checking them is verify's job through the
    # dispatcher, so cache.py must not import either back.
    path = Path(permball.__file__).parent / "cache.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"oracle", "verify"}, names


def test_only_the_cache_changes_the_int_str_digit_limit():
    # The limit is process-wide: cache.py lifts it for one conversion at a
    # time and restores it, so no other module may touch it.
    def names(source):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name

    callers = {
        path.name
        for path in MODULES
        if "set_int_max_str_digits" in names(path.read_text(encoding="utf-8"))
    }
    assert callers == {"cache.py"}, callers


def dotted_names(source):
    """Every attribute chain read in ``source``, as dotted text."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            parts = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                parts.append(node.attr)
            if isinstance(node.value, ast.Name):
                yield ".".join([node.value.id, *reversed(parts)])


COLUMN_SCATTERS = {"np.add.at", "np.bincount", "numpy.add.at", "numpy.bincount"}


def test_qmat_sums_no_column():
    # Every Q is checked to be exactly symmetric when it is built, so its
    # column sums are its row sums; a column scatter has no place there.
    path = Path(permball.__file__).parent / "qmat.py"
    assert not COLUMN_SCATTERS & set(dotted_names(path.read_text(encoding="utf-8")))


def test_column_scatters_are_found():
    source = (
        "import numpy as np\n"
        "np.add.at(s, cols, x)\n"
        "f = np.bincount\n"
        "np.add.reduceat(x, i)\n"
    )
    assert COLUMN_SCATTERS & set(dotted_names(source)) == {"np.add.at", "np.bincount"}


def global_statements(source):
    """The names each ``global`` statement in ``source`` rebinds."""
    return [
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


def test_only_scalar_rebinds_a_module_level_name():
    # Module-level caches are built once and shared as they are (a
    # ``functools.cache``).  scalar.py's log2-factorial table, which it
    # replaced by a longer one as it grew, is gone, so no module rebinds a
    # module-level name any more.
    rebinding = {
        path.name
        for path in MODULES
        if global_statements(path.read_text(encoding="utf-8"))
    }
    assert rebinding == set(), rebinding


def test_global_statements_are_found():
    source = (
        "_CACHE = None\n"
        "def grow():\n"
        "    global _CACHE\n"
        "    def inner():\n"
        "        global _OTHER, _THIRD\n"
        "    _CACHE = 1\n"
        "x = 'global _NOT_CODE'\n"
    )
    assert global_statements(source) == ["_CACHE", "_OTHER", "_THIRD"]
