"""The public surface: every exported name resolves, and the package
re-exports only names that their defining modules export; the README's
configuration table lists every config key once."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import psilab
from psilab.config import DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"

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


def leaf_keys(table, prefix=""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_config_table_lists_the_default_keys():
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert sorted(rows) == sorted(leaf_keys(DEFAULTS))
