"""Every name that a module of the package imports is read in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jointfold"


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
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_scan_sees_imports_reads_and_exports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from x import a, b as c, d\n__all__ = ['d']\nprint(a, os.sep)\n")
    assert unused_imports(source) == ["c", "np"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
