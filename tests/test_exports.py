"""Every exported name resolves, so a deleted function cannot stay listed as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cpvortex

MODULES = sorted(m.name for m in pkgutil.iter_modules(cpvortex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cpvortex.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(cpvortex.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported
    assert [x for x in imported if not hasattr(cpvortex, x)] == []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "errors":
            module = importlib.import_module(f"cpvortex.{node.module}")
            assert [a.name for a in node.names if a.name not in module.__all__] == []
