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


# Imported but not called: bench/tracing.py rebinds these names in the module,
# and its tracer stops with an error when a name it traces is gone.
REBOUND_ONLY = {"recovery": {"make_syndrome", "multi_decode"}}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    """Each name a module imports is used there or exported by its ``__all__``.

    The package's own imports are its exports, which the test above checks.
    """
    tree = ast.parse((Path(delsync.__file__).parent / f"{name}.py").read_text())
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = next(
        (
            set(ast.literal_eval(node.value))
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ),
        set(),
    )
    unused = imported - used - exported - REBOUND_ONLY.get(name, set())
    assert unused == set(), f"{name} imports {sorted(unused)} and never uses them"
