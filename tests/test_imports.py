"""No module of ``ensflow`` imports a name it does not use (no linter is installed to say so)."""

import ast
from pathlib import Path

import pytest

import ensflow

# the package's __init__ imports names only to export them
MODULES = sorted(path for path in Path(ensflow.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s import statements bind and nothing in it reads, in order of import."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(bound) if name not in read]


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport os.path\nfrom math import pi as half\nsys.exit()\n"
    assert unused_imports(source) == ["os", "half"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
