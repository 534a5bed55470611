"""Every name a ``raft`` module imports, and every private name (``_x``) it
defines at its top level, is read in that module, and no module imports
another's private name.  Only ``dataset.py`` chooses a memory layout:
``FeatureSet`` stores every matrix column-major.
The search core, ``cli.search``, touches no file: only the driver
(``cli.py``), the data layer (``dataset.py``) and the fixtures
(``synthetic.py``) read or write one.  Only ``cli.prepare`` constructs the
parts a search is built from: its ``EvalContext`` and its policy.  The modules'
imports of each other form an acyclic graph, in which ``transform`` does not
import ``clustering``, ``evaluator`` does not import ``neural_core`` and
``synthetic`` imports ``dataset`` alone.  ``__init__.py`` holds its docstring
and nothing else, so importing a module loads only the modules it imports:
the layer rules hold at run time as well as in the source.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "raft"
ALL_MODULES = sorted(path.name for path in SRC.glob("*.py"))


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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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
    private = {name for name in defined if is_private(name)}
    return sorted(private - names_read(tree))


def test_unused_imports_finds_unread_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "def f() -> 'Path':\n    from pathlib import Path, PurePath\n    return d(np.e)\n")
    assert unused_imports(source) == ["PurePath", "b", "os"]


@pytest.mark.parametrize("module", ALL_MODULES)
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


def private_imports(source: str) -> list[str]:
    """The private names the module takes from the package's other modules,
    as ``module.name``: ``from .m import _x``, or ``m._x`` after
    ``from . import m``."""
    tree = ast.parse(source)
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.update(f"{node.module}.{alias.name}" for alias in node.names
                             if is_private(alias.name))
            else:
                modules.update(alias.asname or alias.name for alias in node.names)
    found.update(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and is_private(node.attr))
    return sorted(found)


def test_private_imports_finds_each_form():
    source = ("from .a import _b, c\nfrom . import d as e, f\nfrom os import _exit\n"
              "from .g import __version__\nx = e._h + f.i + f.__doc__ + y._z + _b\n")
    assert private_imports(source) == ["a._b", "e._h"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_imports_another_modules_private_name(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []


def called_name(call: ast.Call) -> str:
    """The name a call is made by: ``f`` for ``f(x)`` and for ``a.b.f(x)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def layout_calls(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each call that chooses a memory layout:
    ``ascontiguousarray``, ``asfortranarray``, or any call given ``order=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = called_name(node)
            if name in ("ascontiguousarray", "asfortranarray"):
                found.append((node.lineno, name))
            found += [(node.lineno, "order=") for kw in node.keywords if kw.arg == "order"]
    return sorted(found)


def test_layout_calls_finds_every_layout_choice():
    source = ("import numpy as np\nfrom numpy import asfortranarray\n"
              "a = np.ascontiguousarray(x)\nb = asfortranarray(x)\n"
              "c = np.array(x, order='F').ravel()\nd = x.copy()\ne = sorted(x, key=len)\n")
    assert layout_calls(source) == [(3, "ascontiguousarray"), (4, "asfortranarray"),
                                    (5, "order=")]


@pytest.mark.parametrize("module", [name for name in ALL_MODULES if name != "dataset.py"])
def test_only_dataset_chooses_a_memory_layout(module):
    assert layout_calls((SRC / module).read_text(encoding="utf-8")) == []


# The parts a search is built from; only cli.prepare constructs them.
SEARCH_PARTS = ("EvalContext", "RandomPolicy", "ActorCriticPolicy")


def constructions(source: str) -> list[tuple[str, str]]:
    """The (top-level definition, class) of each call that constructs one of
    SEARCH_PARTS, by bare name or as an attribute; a call outside every
    definition is under ``<module>``."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        found += [(owner, called_name(call)) for call in ast.walk(node)
                  if isinstance(call, ast.Call) and called_name(call) in SEARCH_PARTS]
    return sorted(found)


def test_constructions_finds_each_form():
    source = ("from . import agents\nfrom .agents import RandomPolicy\n"
              "x = EvalContext(m, s, f, c)\n"
              "def prepare(t, r):\n    return RandomPolicy(r), agents.ActorCriticPolicy(t, r)\n"
              "class K:\n    def f(self):\n        return RandomPolicy, EvalContextual(1)\n")
    assert constructions(source) == [("<module>", "EvalContext"),
                                     ("prepare", "ActorCriticPolicy"),
                                     ("prepare", "RandomPolicy")]


def test_only_prepare_builds_a_search():
    found = [(module, *part) for module in ALL_MODULES
             for part in constructions((SRC / module).read_text(encoding="utf-8"))]
    assert found == [("cli.py", "prepare", "ActorCriticPolicy"),
                     ("cli.py", "prepare", "EvalContext"), ("cli.py", "prepare", "RandomPolicy")]


# Calls that read or write a file, by bare name or as a method.
IO_CALLS = ("load_csv", "write_csv", "write_trace", "write_outputs", "open", "read_text",
            "write_text")
IO_MODULES = ("cli.py", "dataset.py", "synthetic.py")


def io_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """The (line, name) of each call under ``tree`` made by one of IO_CALLS."""
    return sorted((node.lineno, called_name(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and called_name(node) in IO_CALLS)


def test_io_calls_finds_every_call_form():
    source = ("from raft import cli, dataset\nfrom raft.dataset import load_csv\n"
              "a = load_csv(p, 'y')\nb = dataset.write_csv(fs, p)\nc = open(p)\n"
              "d = p.open('w')\ne = p.read_text()\nf = p.write_text('x')\n"
              "cli.write_trace(t, p)\ng = write_outputs(r, c)\n"
              "h = opener(p)\ni = p.exists()\nj = open\nk = p.opened\n")
    assert io_calls(ast.parse(source)) == [
        (3, "load_csv"), (4, "write_csv"), (5, "open"), (6, "open"), (7, "read_text"),
        (8, "write_text"), (9, "write_trace"), (10, "write_outputs")]


def test_the_search_core_touches_no_file():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert io_calls(functions["search"]) == []
    assert [name for _, name in io_calls(functions["run_search"])] == ["load_csv"]


@pytest.mark.parametrize("module", [name for name in ALL_MODULES if name not in IO_MODULES])
def test_only_the_driver_and_the_data_layer_touch_files(module):
    assert io_calls(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


# (importer, imported) module pairs that must stay apart: a feature crossing
# takes views, not clusters, and the forest needs no network code
FORBIDDEN_IMPORTS = (("transform", "clustering"), ("evaluator", "neural_core"))
# importer -> the only package modules it may import: a fixture is a space
# and nothing of the search
ALLOWED_IMPORTS = {"synthetic": {"dataset"}}


def package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each module's relative imports (``from .x import y``, ``from . import x``)
    of the package's other modules, by module name."""
    graph = {}
    for name, source in sources.items():
        graph[name] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[name].update([node.module] if node.module else
                                   [alias.name for alias in node.names])
    return graph


def layer_faults(graph: dict[str, set[str]]) -> list[str]:
    """Each forbidden import in ``graph``, each import outside an importer's
    allowance, and one import cycle if it has any."""
    faults = [f"{a} imports {b}" for a, b in FORBIDDEN_IMPORTS if b in graph.get(a, ())]
    faults += [f"{a} imports {b}" for a, allowed in ALLOWED_IMPORTS.items()
               for b in sorted(graph.get(a, set()) - allowed)]
    done: set[str] = set()

    def cycle_from(name: str, path: list[str]) -> list[str]:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        for imported in sorted(graph.get(name, ())):
            found = cycle_from(imported, path + [name])
            if found:
                return found
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = cycle_from(name, [])
        if cycle:
            return faults + ["cycle " + " -> ".join(cycle)]
    return faults


def module_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}


def test_layer_faults_finds_forbidden_imports_and_cycles():
    sources = module_sources()
    sources["transform"] += "\nfrom .clustering import ClusterSet\n"
    sources["evaluator"] += "\nfrom . import neural_core\n"
    sources["dataset"] += "\nfrom .cli import main\n"  # cli imports dataset
    faults = layer_faults(package_imports(sources))
    assert faults[:2] == ["transform imports clustering", "evaluator imports neural_core"]
    assert len(faults) == 3 and faults[2].startswith("cycle ")
    cycle = faults[2].removeprefix("cycle ").split(" -> ")
    assert cycle[0] == cycle[-1] and "dataset" in cycle and "cli" in cycle


def test_layer_faults_finds_each_import_the_fixtures_may_not_make():
    source = ("import numpy as np\nfrom pathlib import Path\nfrom .dataset import FeatureSet\n"
              "from . import cli, evaluator as ev\nfrom .transform import dedup\n")
    graph = package_imports({"synthetic": source})
    assert graph == {"synthetic": {"dataset", "cli", "evaluator", "transform"}}
    assert layer_faults(graph) == ["synthetic imports cli", "synthetic imports evaluator",
                                   "synthetic imports transform"]


def test_the_layer_graph_is_acyclic_and_keeps_its_rules():
    assert layer_faults(package_imports(module_sources())) == []


def test_the_package_init_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_importing_the_fixtures_loads_the_data_layer_alone():
    probe = ("import sys\nbefore = set(sys.modules)\nimport raft.synthetic\n"
             "print(*sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'raft'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["raft", "raft.dataset", "raft.synthetic"]
