"""Every exported name resolves: each module's __all__ and the package's imports.

Nothing star-imports echosep, so a stale __all__ entry would otherwise go
unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import echosep

MODULES = ("stft", "model", "optimizer", "scenegen", "metrics", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"echosep.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_is_the_modules_object():
    tree = ast.parse(Path(echosep.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"echosep.{node.module}")
        for alias in node.names:
            assert getattr(echosep, alias.name) is getattr(module, alias.name), alias.name
