"""Every module-level import in ``src/repro`` is used by its module.

An import nothing reads costs start-up time and hides what a module
really depends on. Package ``__init__.py`` files are exempt: their
imports are the package's public re-exports. A name counts as used when
the module reads it anywhere (including inside a string annotation) or
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _bound_names(node):
    """``(name, lineno)`` for each name a module-level import binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        ((alias.asname or alias.name).split(".")[0], node.lineno)
        for alias in node.names
    ]


def _module_imports(tree):
    """Imports in the module body, including inside top-level ``if`` and
    ``try`` blocks (optional and ``TYPE_CHECKING`` imports)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _bound_names(node)
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", ()))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_read(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree):
    """The string entries of a module-level ``__all__``."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def unused_imports(path: Path):
    """``(name, lineno)`` of every module-level import ``path`` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _names_read(tree) | _exported(tree)
    return sorted(
        (name, line) for name, line in _module_imports(tree) if name not in used
    )


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT.parent)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x: 'List[int]') -> Dict:\n"
        "    return np.sum(x) * pi\n"
    )
    assert unused_imports(module) == [("os", 2)]
