"""Every name a ``raft`` module imports is used in that module.

``__init__.py`` is left out: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "raft"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements (at any depth) that no other
    expression of the module reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "EncoderKind"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(imported - used)


def test_unused_imports_finds_unread_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "def f() -> 'Path':\n    from pathlib import Path, PurePath\n    return d(np.e)\n")
    assert unused_imports(source) == ["PurePath", "b", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
