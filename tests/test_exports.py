"""Every exported name of the package resolves."""

import ast
import importlib
import pathlib

import pytest

import irsplit

PACKAGE = pathlib.Path(irsplit.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"irsplit.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    """Each name ``irsplit/__init__.py`` imports from a submodule is
    defined there, read from the source so a stale name cannot hide."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"irsplit.{node.module}")
        missing += [f"{node.module}.{alias.name}" for alias in node.names
                    if not hasattr(module, alias.name)]
        missing += [alias.name for alias in node.names
                    if not hasattr(irsplit, alias.asname or alias.name)]
    assert missing == []
