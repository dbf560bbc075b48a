"""No module of ``ensflow`` imports a name it does not use, the package reads every private name it defines, no
module imports another module's private name or reads one as an attribute, ``timeseries`` and ``gr2m`` import no
other module when they load, only ``timeseries`` imports ``csv``, and only ``reports`` names a report file outside
a docstring.

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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_across_modules(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private name that a module imports from another ``ensflow`` module or reads off one."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = set()  # the names this module binds to ensflow modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ensflow"):
                if node.module in (None, "ensflow"):  # ``from . import gr2m``: each name is a module
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [f"{module}: {alias.name}" for alias in node.names if is_private(alias.name)]
            elif isinstance(node, ast.Import):
                names = [alias for alias in node.names if alias.name.split(".")[0] == "ensflow"]
                modules.update(alias.asname or alias.name.split(".")[0] for alias in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    found.append(f"{module}: {node.attr}")
    return found


def test_detects_a_private_name_across_modules():
    sources = {
        "a": "from .gr2m import _run, step\nfrom . import gr2m as g\nimport numpy as np\ng._forcing()\ng.step()\nnp._x\n",
        "b": "import ensflow.gr2m\nfrom ensflow import calibrate\nensflow.gr2m._run()\ncalibrate._log1m_exp()\n",
        "c": "def f():\n    from .calibrate import _log1m_exp, __doc__\n_z = 1\n_z\n",
    }
    assert private_names_across_modules(sources) == [
        "a: _run", "a: _forcing", "b: _run", "b: _log1m_exp", "c: _log1m_exp",
    ]


def test_no_module_reads_another_modules_private_name():
    assert private_names_across_modules({path.stem: path.read_text() for path in PACKAGE}) == []


def names_read(source: str) -> set[str]:
    """The names ``source`` reads, takes as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_only_gr2m_reads_the_default_routing_store():
    # every simulation starts from gr2m's own stores, so no other module names one
    readers = [path.stem for path in PACKAGE if "DEFAULT_ROUTING_INIT_MM" in names_read(path.read_text())]
    assert readers == ["gr2m"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules outside ``ensflow`` that ``source`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_detects_an_imported_module():
    source = "import os.path, csv as c\ndef f():\n    from json import dumps\nfrom . import gr2m\nfrom .timeseries import x\n"
    assert imported_modules(source) == {"os", "csv", "json"}


def test_only_timeseries_imports_csv():
    # the CSV format is decided once, in timeseries, for the daily files and every report file
    assert [path.stem for path in PACKAGE if "csv" in imported_modules(path.read_text())] == ["timeseries"]


REPORT_FILES = ("metrics.csv", "wisdom.csv", "timing.csv", "failures.csv", "rankings.csv", "summary.json")


def report_files_named(source: str) -> list[str]:
    """The report files whose names ``source``'s string constants hold, f-string parts included, but no docstring."""
    tree = ast.parse(source)
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, documented) and node.body and isinstance(node.body[0], ast.Expr)
    }
    texts = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and id(node) not in docstrings]
    return [name for name in REPORT_FILES if any(isinstance(text, str) and name in text for text in texts)]


def test_detects_a_report_file_name():
    source = (
        '"""Writes metrics.csv."""\nclass A:\n    """Reads wisdom.csv."""\n'
        'def f(out):\n    """Times timing.csv."""\n    "rankings.csv"\n    return f"{out}/summary.json", "x failures.csv"\n'
        "# metrics.csv in a comment\n"
    )
    assert report_files_named(source) == ["failures.csv", "rankings.csv", "summary.json"]


def test_only_reports_names_a_report_file():
    # each report file's name, header and parser are decided once, in reports
    assert [path.stem for path in PACKAGE if report_files_named(path.read_text())] == ["reports"]


def module_level_imports(source: str) -> list[str]:
    """The ``ensflow`` modules that ``source`` imports when it runs, not in a function body, in order."""
    found = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop(0)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ensflow"):
            found += [node.module] if node.module not in (None, "ensflow") else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "ensflow"]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes[:0] = ast.iter_child_nodes(node)
    return found


def test_detects_a_module_level_import():
    source = (
        "import numpy\nfrom .timeseries import x\nif True:\n    import ensflow.gr2m\nfrom . import calibrate\n"
        "class A:\n    from ensflow import evaluate as ev\ndef f():\n    from .calibrate import y\n"
    )
    assert module_level_imports(source) == ["timeseries", "ensflow.gr2m", "calibrate", "evaluate"]


@pytest.mark.parametrize("module", ["timeseries", "gr2m"])
def test_ingest_and_model_import_no_other_module(module):
    # the model stands on plain floats and month counts, ingest on the CSV alone; gr2m's load_kernel imports
    # calibrate in its body, for its sampler's oracle
    path = Path(ensflow.__file__).with_name(f"{module}.py")
    assert module_level_imports(path.read_text()) == []
