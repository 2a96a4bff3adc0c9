"""Import hygiene: no module imports a name it never references.

No linter is part of the toolchain, so the syntax trees are scanned here.
The package's ``__init__.py`` is left out: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [path for path in (ROOT / "src" / "qclab").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
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
