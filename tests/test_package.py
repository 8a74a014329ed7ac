"""The package's top-level names load their submodule on first use.

Resolution is checked in a fresh child, where no submodule is loaded yet,
so every name goes through the package's ``__getattr__``.
"""
import importlib
import subprocess
import sys

import pytest

import rdspill
from rdspill import cli

FRESH_SURFACE = """
import importlib, sys
import rdspill
namespace = {}
exec("from rdspill import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(rdspill.__all__)
for module, names in rdspill._EXPORTS.items():
    owner = importlib.import_module(f"rdspill.{module}")
    for name in names:
        assert namespace[name] is getattr(owner, name) is getattr(rdspill, name), name
print("ok")
"""


def test_star_import_binds_every_name_to_its_submodule_object():
    proc = subprocess.run([sys.executable, "-c", FRESH_SURFACE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_all_is_the_table_and_every_entry_points_into_rdspill():
    assert rdspill.__all__ == [name for names in rdspill._EXPORTS.values()
                               for name in names]
    assert len(set(rdspill.__all__)) == len(rdspill.__all__)
    for module, names in rdspill._EXPORTS.items():
        owner = importlib.import_module(f"rdspill.{module}")
        assert owner.__name__ == f"rdspill.{module}"
        for name in names:
            assert getattr(rdspill, name) is getattr(owner, name), name


def test_dir_lists_every_name():
    assert set(rdspill.__all__) <= set(dir(rdspill))
    assert "__version__" in dir(rdspill)


@pytest.mark.parametrize("module", [rdspill, cli], ids=["rdspill", "cli"])
def test_an_unknown_name_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute "
                                             "'no_such_name'"):
        module.no_such_name


def test_submodule_imports_through_the_package_still_work():
    proc = subprocess.run(
        [sys.executable, "-c", "from rdspill import cli, experiments; "
                               "print(cli.__name__, experiments.__name__)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rdspill.cli rdspill.experiments\n"
