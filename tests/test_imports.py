"""Import hygiene: no module of the package, the tests or the tools imports
a name it never references, no package module imports another's underscore
names, and the package imports nothing at run time but the standard library
and numpy.  No package module calls np.roll: model.ring is its one periodic
shift.

No linter is part of the toolchain, so the syntax trees are scanned here.
The package's ``__init__.py`` is left out of the unused-name check: its
imports are re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qclab").glob("*.py"))
MODULES = sorted(
    [path for path in PACKAGE if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nfrom json import dumps, loads as ld\nprint(ld)\n"
    assert unused_imports(source) == ["dumps", "os"]


def test_every_import_is_used():
    unused = {}
    for path in MODULES:
        names = unused_imports(path.read_text())
        if names:
            unused[path.relative_to(ROOT).as_posix()] = names
    assert unused == {}


def private_imports(source: str) -> list[str]:
    """Underscore names imported from another qclab module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "qclab"
        ):
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
    return names


def test_private_imports_are_found():
    source = "from .model import _frozen, stored_energy\nfrom qclab.mesh import _build_custom\n"
    assert private_imports(source) == ["_frozen", "_build_custom"]
    assert private_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_private_name_of_another():
    private = {}
    for path in PACKAGE:
        names = private_imports(path.read_text())
        if names:
            private[path.name] = names
    assert private == {}


def roll_uses(source: str) -> list[int]:
    """Lines that read numpy's roll: np.roll or numpy.roll, or an import of it by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "roll"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                alias.name == "roll" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_roll_uses_are_found():
    source = ("import numpy as np\nfrom numpy import roll\n"
              "a = np.roll(x, 1)\nb = np.rollaxis(x, 1)\nc = ring(x, 1)  # not np.roll\n")
    assert roll_uses(source) == [2, 3]


def test_no_package_module_calls_np_roll():
    # on K-sized arrays np.roll's Python-level dispatch costs several times
    # the two-slice concatenation that model.ring performs, with the same bits
    uses = {path.name: roll_uses(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign[top] = path.name
    assert foreign == {}


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = ("import sys, qclab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_import_builds_no_table_and_no_parser():
    # the formatter's tables and the argument parser are built on first use
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = ("from qclab import cli; print([f.cache_info().currsize for f in "
             "(cli._exponent_tables, cli._text_tables, cli._build_parser)])")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0]\n"
