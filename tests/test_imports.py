"""The engine imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import stablechar

_PACKAGE = Path(stablechar.__file__).resolve().parent


def _imported_modules(tree):
    """The top-level name of every module an import statement of ``tree``
    names, at any depth (imports inside functions included); relative
    imports name the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "stablechar" if node.level else node.module.partition(".")[0]


def test_engine_imports_only_the_standard_library():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            assert name == "stablechar" or name in sys.stdlib_module_names, (path.name, name)


def test_the_import_scan_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import numpy\n    from .x import y\n")
    assert list(_imported_modules(tree)) == ["numpy", "stablechar"]
