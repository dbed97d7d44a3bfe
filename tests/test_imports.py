"""Every name that a module of the package imports is read in that module,
and every function and class that a module defines is read in the package
or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jointfold"


def _exports(tree: ast.AST) -> set[str]:
    """The names listed in a module's ``__all__``."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads.  A name listed in
    its ``__all__`` counts as read (a re-export); ``__future__`` imports
    name features, not values."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(imported - read - _exports(tree))


def unread_definitions(sources: list[str]) -> list[str]:
    """The module-level functions and classes of ``sources`` that no source
    reads, as a name or an attribute, and no ``__all__`` lists."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        defined.update(node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        read |= _exports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_scan_sees_imports_reads_and_exports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from x import a, b as c, d\n__all__ = ['d']\nprint(a, os.sep)\n")
    assert unused_imports(source) == ["c", "np"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_definition_scan_sees_reads_attributes_and_exports():
    sources = ["__all__ = ['e']\ndef a(): pass\nclass B: pass\ndef c(): d()\ndef e(): pass\n",
               "import m\ndef d(): m.f()\ndef f(): pass\ndef g(): pass\ng = 1\n"]
    assert unread_definitions(sources) == ["B", "a", "c", "g"]


def test_every_definition_is_read_or_exported():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unread_definitions(sources) == []
