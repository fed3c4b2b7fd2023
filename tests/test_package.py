"""The package surface: every public name loads lazily from its submodule."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import bitalias
from bitalias.cli import main
from bitalias.simulate import ALIAS_PROFILES

PUBLIC_NAMES = 61


class TestLazyExports:
    def test_every_name_is_its_submodules_object(self):
        assert len(bitalias.__all__) == PUBLIC_NAMES
        assert bitalias.__all__ == sorted(bitalias.__all__)
        for name in bitalias.__all__:
            module = importlib.import_module(f"bitalias.{bitalias._MODULE_OF[name]}")
            assert getattr(bitalias, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bitalias import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == bitalias.__all__

    def test_dir_lists_every_name(self):
        listed = dir(bitalias)
        assert set(bitalias.__all__) <= set(listed)
        assert "__version__" in listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            getattr(bitalias, "no_such_name")
        assert not hasattr(bitalias, "CSV_HEADER")


def test_simulate_help_names_every_profile(capsys):
    # The parser names the profiles without importing simulate.
    assert main(["simulate", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert re.search(r"profile \(([^)]*)\)", text).group(1) == ", ".join(sorted(ALIAS_PROFILES))


def test_names_the_benchmark_uses_exist():
    # perfbench/layers.py replaces these (module, name) pairs by timing
    # wrappers, and its summary fails on a layer that is never measured;
    # layers.py and generate.py import public names from the package
    perfbench = Path(__file__).parents[1] / "perfbench"
    trees = {name: ast.parse((perfbench / name).read_text())
             for name in ("layers.py", "generate.py")}
    wrapped = next(ast.literal_eval(node.value) for node in trees["layers.py"].body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "WRAPPED")
    assert len(wrapped) > 10
    for module_name, name, _ in wrapped:
        assert callable(getattr(importlib.import_module(f"bitalias.{module_name}"), name))
    for file, tree in trees.items():
        imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.module == "bitalias" for alias in node.names]
        assert imported and set(imported) <= set(bitalias.__all__), file
