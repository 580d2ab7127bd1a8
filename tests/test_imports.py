"""Every ``qdnsim`` module other than the package's ``__init__`` uses each
name it imports, so an import left behind by a deletion fails here."""

import ast
from pathlib import Path

import pytest

import qdnsim

MODULES = sorted(path for path in Path(qdnsim.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    assert unused_imports(
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "np.zeros(sep)\n") == ["math", "path"]
    assert unused_imports("from __future__ import annotations\n") == []
