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


def unbounded_caches(source: str) -> list[int]:
    """Lines of ``source`` that use functools.cache or lru_cache(maxsize=None)."""
    tree = ast.parse(source)

    def is_lru_cache(func):
        return (isinstance(func, ast.Name) and func.id == "lru_cache") or (
            isinstance(func, ast.Attribute) and func.attr == "lru_cache")

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and is_lru_cache(node.func) and (
                any(is_none(arg) for arg in node.args[:1])
                or any(k.arg == "maxsize" and is_none(k.value) for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_unbounded_cache_detector():
    assert unbounded_caches("from functools import lru_cache\n@lru_cache(maxsize=16)\ndef f(): pass") == []
    assert unbounded_caches("from functools import cache") == [1]
    assert unbounded_caches("import functools\n@functools.cache\ndef f(): pass") == [2]
    assert unbounded_caches("import functools\n@functools.lru_cache(None)\ndef f(): pass") == [2]
    assert unbounded_caches("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass") == [2]


@pytest.mark.parametrize("path", sorted(Path(qacsim.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_caches_are_bounded(path):
    # an unbounded cache holds every argument and result for the life of the
    # process; bounded ones keep peak memory within the benchmark's bound
    lines = unbounded_caches(path.read_text())
    assert not lines, f"{path.name} uses an unbounded cache at lines {lines}"



def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private function, class or
    constant of ``sources`` ({module: source}) whose name no module loads,
    imports or reads as an attribute.  A definition's references to itself
    do not count, so a function only its own recursion calls is unused."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
            defined += [(module, name) for name in sorted(own) if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None and name not in own:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_dead_name_detector():
    assert unreferenced_privates({"a": "def _f(): pass\ndef g(): return _f()"}) == []
    assert unreferenced_privates({"a": "def _f(): pass\ndef g(): pass"}) == ["a._f"]
    assert unreferenced_privates({"a": "def _f(n): return _f(n - 1)"}) == ["a._f"]
    assert unreferenced_privates({"a": "class _C: pass\n_K: int = 2\n_L = 3\nx = _L"}) == ["a._C", "a._K"]
    assert unreferenced_privates({"a": "_K = 1", "b": "from .a import _K"}) == []
    assert unreferenced_privates({"a": "def _f(): pass", "b": "from . import a\na._f()"}) == []
    # dunders are not private names, and a name in a string is no reference
    assert unreferenced_privates({"a": "__all__ = ['_f']\ndef _f(): pass"}) == ["a._f"]


def test_no_dead_private_names():
    # a removed code path is deleted, not left behind: every module-level
    # private name of the package is referenced somewhere in it
    paths = sorted(Path(qacsim.__file__).parent.glob("*.py"))
    dead = unreferenced_privates({path.stem: path.read_text() for path in paths})
    assert not dead, f"private names referenced nowhere in qacsim: {dead}"
