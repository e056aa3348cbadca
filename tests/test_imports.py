"""One home per name: every module of hsk but ``__init__`` imports a
name from the module that defines it, only when it reads that name, and
lists in ``__all__`` only what it defines itself."""

import ast
import pathlib
import sys

import pytest

import hsk

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from hskbench.tracer import FUNCTIONS  # noqa: E402

ROOT = pathlib.Path(hsk.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(ROOT.glob("*.py")) if path.name != "__init__.py"}


def _defined(tree):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _relative_imports(tree):
    return [(node.module, alias) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_binds_a_name_it_does_not_read(module):
    """A relative import that the module never reads is a re-export.  The
    one allowance is the names the benchmark's tracer looks up on a module
    that does not define them."""
    tree = TREES[module]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    traced = {attr for mod, attr, *_ in FUNCTIONS if mod == module and attr not in _defined(tree)}
    unread = [alias.asname or alias.name for _, alias in _relative_imports(tree)
              if (alias.asname or alias.name) not in read | traced]
    assert unread == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_names_are_imported_from_their_home(module):
    defined = {name: _defined(tree) for name, tree in TREES.items()}
    elsewhere = [(source, alias.name) for source, alias in _relative_imports(TREES[module])
                 if source is not None and alias.name not in defined[source]]
    assert elsewhere == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_all_lists_only_what_the_module_defines(module):
    tree = TREES[module]
    listed = [elt.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              for elt in node.value.elts]
    assert [name for name in listed if name not in _defined(tree)] == []

