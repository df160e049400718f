import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(qacsim.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_no_unused_imports(path):
    # no linter is at hand: a name imported by a module must be used in it or
    # re-exported through its __all__
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("qacsim" if path.stem == "__init__" else f"qacsim.{path.stem}")
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


@pytest.mark.parametrize("path", sorted(Path(qacsim.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_no_environment_switches(path):
    # behaviour is set by arguments only: no module imports os, so none can
    # read os.environ or os.getenv and keep a removed path behind a flag
    tree = ast.parse(path.read_text())
    imports_os = any(
        (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "os" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os")
        for node in ast.walk(tree)
    )
    reads_environment = any(
        isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb", "getenvb")
        for node in ast.walk(tree)
    )
    assert not imports_os, f"{path.name} imports os"
    assert not reads_environment, f"{path.name} reads the environment"
