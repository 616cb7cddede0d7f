"""The public surface: every exported name resolves, and the package
re-exports only names that their defining modules export."""

import importlib
import pkgutil

import pytest

import psilab

MODULES = ["psilab"] + sorted(f"psilab.{info.name}"
                              for info in pkgutil.iter_modules(psilab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate names"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_are_module_exports():
    homes = {name: importlib.import_module(getattr(psilab, name).__module__)
             for name in psilab.__all__}
    assert [f"{name} ({home.__name__})" for name, home in homes.items()
            if name not in home.__all__] == []
