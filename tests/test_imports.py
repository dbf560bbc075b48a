"""No module of ``ensflow`` imports a name it does not use, and the package reads every private name it defines.

No linter is installed to say so.
"""

import ast
from pathlib import Path

import pytest

import ensflow

PACKAGE = sorted(Path(ensflow.__file__).parent.glob("*.py"))
# the package's __init__ imports names only to export them
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level name (``_x``) that no source reads, imports or takes as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            private = (name for name in names if name.startswith("_") and not name.startswith("__"))
            unread += [f"{module}.{name}" for name in private if name not in read]
    return unread


def test_detects_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_x, _y = 1, 2\n__version__ = '1'\ndef _box(): pass\nclass _Kept: pass\ndef f(): return _LIMIT",
        "b": "from a import _x\nimport a\na._Kept()\n_y = 0\n",
    }
    assert unread_private_names(sources) == ["a._y", "a._box", "b._y"]


def test_package_reads_every_private_name():
    assert unread_private_names({path.stem: path.read_text() for path in PACKAGE}) == []
