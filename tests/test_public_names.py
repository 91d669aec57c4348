"""Every public name of the package resolves.

Tools outside the package find its layers by name: a profiler may wrap
each function listed in a module's ``__all__`` and the law table's map
methods, and read the table's ``kind`` and ``mask``.  A name deleted from
a module but left in its ``__all__`` would break them without failing
any import.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import redlab
from redlab.detect import OffsetLawTable

MODULES = sorted(info.name for info in pkgutil.iter_modules(redlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"redlab.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_package_import_resolves_to_a_listed_name():
    tree = ast.parse(Path(redlab.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imports) > 30
    for module_name, attr in imports:
        module = importlib.import_module(f"redlab.{module_name}")
        assert attr in module.__all__, f"redlab.{module_name}.{attr} is not in __all__"
        assert getattr(redlab, attr) is getattr(module, attr)


def test_law_table_exposes_its_map_methods_and_fields():
    for method in ("cdf_map", "quantile_map", "fallback_counts", "live_mask"):
        assert callable(OffsetLawTable.__dict__[method])
    fields = [f.name for f in dataclasses.fields(OffsetLawTable)]
    assert fields == ["kind", "p0", "p1", "scale", "mask", "evaluated"]


@pytest.mark.parametrize(
    "module, name",
    [
        ("background", "white_noise_eigenvalue_blocks"),
        ("background", "white_noise_eigenvalues"),
        ("grid", "inertia"),
        ("denoise", "reconstruction_bound"),
        ("grid", "centered_coords"),
        ("background", "COV_SIDE_CAP"),
        ("background", "white_noise_law"),
        ("grid", "PatchDomain.coords"),
        ("detect", "OffsetLawTable.detect_by_threshold"),
    ],
)
def test_test_only_oracles_live_under_tests(module, name):
    owner = importlib.import_module(f"redlab.{module}")
    *path, attr = name.split(".")
    for step in path:  # a method: look it up on its class
        owner = getattr(owner, step)
    assert not hasattr(owner, attr)
    assert not hasattr(redlab, attr)
