"""Every module of the package uses each name it imports at its top
level. No linter runs in this project, so this is the unused-import
check; a package `__init__.py` is skipped. The package surfaces import
each public name from its submodule on first access."""

import ast
import subprocess
import sys
from pathlib import Path

import dqspec
from helpers import child_env

PACKAGE = Path(dqspec.__file__).resolve().parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, of every top-level import but `__future__`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a name listed in __all__ is exported, which is a use
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return used


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert unused == []


SURFACE_CHECK = """
import sys
from types import ModuleType

import dqspec
import dqspec.lang

# a submodule that no public name has loaded yet, inside and outside the tables
assert not {"dqspec.engine", "dqspec.lang.ast", "dqspec.lang.lexer"} & set(sys.modules)
from dqspec import engine
from dqspec.lang import ast, lexer

assert (engine, ast, lexer) == tuple(sys.modules[f"dqspec.{m}"] for m in ("engine", "lang.ast", "lang.lexer"))

for package in (dqspec, dqspec.lang):
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        if isinstance(value, ModuleType):
            assert sys.modules[f"{package.__name__}.{name}"] is value, name
        else:
            # the defining submodule, which the lazy table must agree with
            home = sys.modules[value.__module__]
            assert home.__name__.startswith(package.__name__ + "."), name
            assert getattr(home, name) is value, name
    try:
        package.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError(f"{package.__name__}.no_such_name resolved")
    star = {}
    exec(f"from {package.__name__} import *", star)
    assert set(package.__all__) <= set(star), package
"""


def test_lazy_surfaces_resolve_to_their_submodules():
    # a fresh process, so that every name is resolved on first access
    proc = subprocess.run(
        [sys.executable, "-c", SURFACE_CHECK], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
