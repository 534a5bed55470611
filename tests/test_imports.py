"""Every name a ``raft`` module imports, and every private name (``_x``) it
defines at its top level, is read in that module.

``__init__.py`` is left out of the import check: it imports names only to
re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "raft"
ALL_MODULES = sorted(path.name for path in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


def names_read(tree: ast.AST) -> set[str]:
    """The names the module's expressions read, quoted annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "EncoderKind"
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return read


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements (at any depth) that no other
    expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - names_read(tree))


def unread_private_names(source: str) -> list[str]:
    """The private names (one leading underscore) that the module's top-level
    assignments, functions and classes bind and that no expression of the
    module reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(n.id for t in node.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - names_read(tree))


def test_unused_imports_finds_unread_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "def f() -> 'Path':\n    from pathlib import Path, PurePath\n    return d(np.e)\n")
    assert unused_imports(source) == ["PurePath", "b", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unread_private_names_finds_dead_definitions():
    source = ("_A = 1\n_B, c = 2, 3\n_C: int = 4\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "def _g(_h):\n    return 'x'\n"
              "class _K:\n    _attr = 5\n"
              "def public(x: '_K'):\n    _local = _f()\n    return _local\n")
    assert unread_private_names(source) == ["_B", "_C", "_g"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_reads_every_private_name(module):
    assert unread_private_names((SRC / module).read_text(encoding="utf-8")) == []
