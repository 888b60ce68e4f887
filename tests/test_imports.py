"""Every name that a module of `oamch` imports, or binds privately, at module level is used there.

No linter is part of the test run, so this test parses each module and
stands in for one on unused imports and unused private names.
`oamch/__init__.py` imports only to re-export: there every imported name
must be listed in `__all__` instead.  Imports inside functions are loaded
on demand and are not checked.  A private name has one leading underscore
(not a dunder) and is bound by a top-level `def`, `class` or assignment.
"""

import ast
from pathlib import Path

import pytest

import oamch

SOURCES = sorted(Path(oamch.__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    """The names bound by the module's top-level imports, `from __future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """The literal `__all__` of the module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = _imported_names(tree)
    if path.name == "__init__.py":
        assert imported - _exported_names(tree) == set()
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == set()


def _private_names(tree: ast.Module) -> set[str]:
    """The single-underscore names bound by a top-level `def`, `class` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert _private_names(tree) - loaded == set()
