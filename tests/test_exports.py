"""Import surface: every exported name resolves, and the package re-exports
only names its modules list in __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import csdetect

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(csdetect.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"csdetect.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_package_reexports_are_public_names():
    tree = ast.parse(Path(csdetect.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"csdetect.{module_name}")
        assert attr in module.__all__, f"{module_name}.{attr}"
        assert getattr(csdetect, attr) is getattr(module, attr)
