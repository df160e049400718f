import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"qacsim.{name}")
    defined = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module.__name__
    }
    missing = defined - set(getattr(module, "__all__", ()))
    assert not missing, f"qacsim.{name} defines {sorted(missing)} outside __all__"
