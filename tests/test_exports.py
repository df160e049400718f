import importlib
import pkgutil

import pytest

import qacsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(qacsim.__path__) if not info.name.startswith("_"))


def test_every_public_module_is_listed():
    assert MODULES == ["classical", "decode", "dynamics", "errors", "master_equation", "perturb", "problem", "topology"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qacsim.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"qacsim.{name}.__all__ lists missing {export!r}"
