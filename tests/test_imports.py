"""Every module of the package uses each name it imports at its top
level. No linter runs in this project, so this is the unused-import
check; a package `__init__.py` imports to re-export and is skipped."""

import ast
from pathlib import Path

import dqspec

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
