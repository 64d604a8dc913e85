"""Every name the package exports exists, so a deleted name left in an export
list fails here and not only in a star import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import delsync

MODULES = sorted(m.name for m in pkgutil.iter_modules(delsync.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"delsync.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(delsync.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"delsync.{module}"), name), f"{module}.{name}"
        assert hasattr(delsync, name), name
