"""Every name a ``raft`` module imports, and every private name (``_x``) it
defines at its top level, is read in that module, and no module imports
another's private name.  Every public name a module defines at its top level,
and every public method of its classes, is read by the program: the package,
``tools/`` or the benchmark, not the tests alone.  Every parameter default and
dataclass field default outside the fixtures is overridden by some call in the
program: a value no caller varies is a constant.  Every ``TrainConfig``
field is set by keyword in some program call, not only through
``parse_config``'s ``**``.  Only ``dataset.py``
chooses a memory layout: ``FeatureSet`` stores every matrix column-major.
The search core, ``cli.search``, touches no file: only the driver
(``cli.py``), the data layer (``dataset.py``) and the fixtures
(``synthetic.py``) read or write one.  Only ``cli.prepare`` constructs the
parts a search is built from: its ``EvalContext`` and its policy.  The modules'
imports of each other form an acyclic graph, in which ``transform`` does not
import ``clustering``, ``evaluator`` does not import ``neural_core`` and
``synthetic`` imports ``dataset`` alone.  ``__init__.py`` holds its docstring
and nothing else, so importing a module loads only the modules it imports:
the layer rules hold at run time as well as in the source.  No ``unique`` call
in the package or ``tools/`` asks for the distinct values alone, and a run
never imports ``numpy.ma``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from raft.synthetic import product_sign_classification, squared_sum_regression, write_fixture

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "raft"
ALL_MODULES = sorted(path.name for path in SRC.glob("*.py"))
# the program's sources; the benchmark's test_bench.py is a test
PROGRAM = [*SRC.glob("*.py"), *(ROOT / "tools").glob("*.py"),
           *(path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_"))]


def annotations(tree: ast.AST) -> list[ast.expr]:
    """Every annotation under ``tree``: of a function's arguments and return,
    and of an annotated assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found += [arg.annotation for arg in (*args.posonlyargs, *args.args, args.vararg,
                                                 *args.kwonlyargs, args.kwarg)
                      if arg is not None and arg.annotation is not None]
            found += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def names_read(tree: ast.AST) -> set[str]:
    """The names the module's expressions read, quoted annotations included;
    any other string, a docstring say, reads nothing."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "EncoderKind", whole or in part
                read |= names_read(ast.parse(node.value, mode="eval"))
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


def top_level_names(tree: ast.Module) -> set[str]:
    """The names the module's top-level assignments, functions and classes bind."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(n.id for t in node.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return defined


def unread_private_names(source: str) -> list[str]:
    """The private names (one leading underscore) that the module's top-level
    assignments, functions and classes bind and that no expression of the
    module reads."""
    tree = ast.parse(source)
    private = {name for name in top_level_names(tree) if is_private(name)}
    return sorted(private - names_read(tree))


def unread_public_names(source: str, readers: list[str]) -> list[str]:
    """The public names that the module binds at its top level, and the public
    methods of its top-level classes, that no expression of ``readers`` reads,
    by name or as an attribute."""
    tree = ast.parse(source)
    methods = {item.name for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    public = {name for name in top_level_names(tree) | methods if not name.startswith("_")}
    read = set()
    for reader in map(ast.parse, readers):
        read |= names_read(reader)
        read.update(node.attr for node in ast.walk(reader)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(public - read)


def test_unused_imports_finds_unread_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "def f() -> 'Path':\n    from pathlib import Path, PurePath\n    return d(np.e)\n")
    assert unused_imports(source) == ["PurePath", "b", "os"]
    # a string that is no annotation, a docstring say, reads nothing
    source = ('"""Mapping"""\nimport os\nfrom typing import Mapping, Sequence\n'
              "from a import B, C\nx: 'list[B]' = []\n"
              "def f(y: 'Sequence[int]', *z: 'C') -> None:\n    return 'os.sep'\n")
    assert unused_imports(source) == ["Mapping", "os"]


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


def test_unread_public_names_finds_dead_definitions():
    source = ("A = 1\n_b = 2\ndef f():\n    return A\ndef g():\n    pass\n"
              "class K:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
              "    def _p(self):\n        pass\n    def __len__(self):\n        return 0\n")
    reader = "from mod import K, f, g\nf()\nK().m()\n"
    assert unread_public_names(source, [source, reader]) == ["g", "n"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_the_program_reads_every_public_name(module):
    readers = [path.read_text(encoding="utf-8") for path in PROGRAM]
    assert unread_public_names((SRC / module).read_text(encoding="utf-8"), readers) == []


def called_name(call: ast.Call) -> str:
    """The name a call is made by: ``f`` for ``f(x)`` and for ``a.b.f(x)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def is_dataclass(node: ast.ClassDef) -> bool:
    return any((called_name(d) if isinstance(d, ast.Call) else
                getattr(d, "attr", getattr(d, "id", ""))) == "dataclass"
               for d in node.decorator_list)


def field_defaults(node: ast.ClassDef) -> list[tuple[str, str, int]]:
    """(class, field, position in the constructor) of each field default of a
    dataclass: a plain value, or ``field`` given a default or a factory.  A
    field left out of the constructor (``init=False``) is skipped and takes
    no position."""
    found, position = [], 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        has_default = item.value is not None
        if isinstance(item.value, ast.Call) and called_name(item.value) == "field":
            given = {kw.arg: kw.value for kw in item.value.keywords}
            if isinstance(given.get("init"), ast.Constant) and given["init"].value is False:
                continue
            has_default = "default" in given or "default_factory" in given
        if has_default:
            found.append((node.name, item.target.id, position))
        position += 1
    return found


def parameter_defaults(source: str) -> list[tuple[str, str, str, int | None]]:
    """(owner, called name, parameter, position in a call) of each parameter
    default of the module's functions and methods, and of each field default
    of its dataclasses.  A method is called by its name, with ``self`` or
    ``cls`` unwritten, ``__init__`` and a dataclass by the class name; a
    keyword-only parameter has no position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            found += [(name, name, f, at) for name, f, at in field_defaults(node)]
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(node, ast.ClassDef)
            called = node.name if method and item.name == "__init__" else item.name
            owner = f"{node.name}.{item.name}" if method else item.name
            args = item.args
            positional = [arg.arg for arg in (*args.posonlyargs, *args.args)][method:]
            first = len(positional) - len(args.defaults)
            found += [(owner, called, name, at)
                      for at, name in enumerate(positional) if at >= first]
            found += [(owner, called, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def overrides(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, by position, or
    possibly, through ``*`` or ``**``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


# the console entry point calls main() with no arguments
EXEMPT_DEFAULTS = {("main", "argv")}


def unoverridden_defaults(source: str, readers: list[str]) -> list[str]:
    """The ``owner.parameter`` of each default of ``parameter_defaults`` that
    no call in ``readers`` made by the same name overrides."""
    calls = [node for reader in map(ast.parse, readers) for node in ast.walk(reader)
             if isinstance(node, ast.Call)]
    return sorted(f"{owner}.{parameter}" for owner, called, parameter, at
                  in parameter_defaults(source)
                  if (called, parameter) not in EXEMPT_DEFAULTS
                  and not any(called_name(c) == called and overrides(c, parameter, at)
                              for c in calls))


def test_unoverridden_defaults_finds_each_form():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "def g(u=1):\n    def inner(v=0):\n        pass\n"
              "def main(argv=None):\n    pass\n"
              "class K:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=1, z=2):\n        pass\n    def n(self, w=0):\n        pass\n"
              "@dataclass(frozen=True)\nclass C:\n    p: int\n    q: int = 1\n"
              "    r: list = field(default_factory=list)\n    s: int = field(init=False, default=0)\n"
              "    t: int = 2\n    u: int = field(default=3)\n")
    reader = ("f(0, 5)\nf(0, d=4)\ng()\nK(1)\nK().m(*rest)\nK().n()\nC(0, 1, [])\n"
              "C(p=0, t=2)\nmain()\npkg.f(**given)\n")
    assert unoverridden_defaults(source, [source, reader]) == ["C.u", "K.n.w", "g.u", "inner.v"]
    # a call by another function's name overrides nothing; a keyword-only
    # parameter is passed by keyword alone
    assert unoverridden_defaults(source, ["h(0, 5)\nf(0, 1, 2, 3)\n"]) == [
        "C.q", "C.r", "C.t", "C.u", "K.__init__.x", "K.m.y", "K.m.z", "K.n.w",
        "f.c", "f.d", "g.u", "inner.v"]


@pytest.mark.parametrize("module", [name for name in ALL_MODULES if name != "synthetic.py"])
def test_the_program_overrides_every_default(module):
    readers = [path.read_text(encoding="utf-8") for path in PROGRAM]
    assert unoverridden_defaults((SRC / module).read_text(encoding="utf-8"), readers) == []


def unset_fields(source: str, name: str, readers: list[str]) -> list[str]:
    """The fields of ``source``'s dataclass ``name`` that no call by that name
    in ``readers`` sets by keyword: a position or a ``**`` mapping sets none."""
    (node,) = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == name]
    calls = [ast.Call(call.func, [], [kw for kw in call.keywords if kw.arg])
             for reader in map(ast.parse, readers) for call in ast.walk(reader)
             if isinstance(call, ast.Call) and called_name(call) == name]
    return [f for _, f, _ in field_defaults(node)
            if not any(overrides(call, f, None) for call in calls)]


def test_unset_fields_counts_keywords_alone():
    source = "@dataclass\nclass C:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n"
    reader = "C(5, b=1)\nC(**given)\nC(*rest)\nD(c=3)\n"
    assert unset_fields(source, "C", [source, reader]) == ["a", "c"]


def test_every_train_config_field_is_set_by_keyword_in_the_program():
    # a key only parse_config sets is a value no program varies (ROADMAP item
    # 16).  RunConfig is exempt: its fields name the input, how to read it
    # (task, impute) and the outputs, which only a command line gives
    readers = [path.read_text(encoding="utf-8") for path in PROGRAM]
    source = (SRC / "agents.py").read_text(encoding="utf-8")
    assert unset_fields(source, "TrainConfig", readers) == []


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
# and nothing of the search; a policy reads spaces, nets and states, and
# nothing of clustering, MI or generation
ALLOWED_IMPORTS = {"synthetic": {"dataset"},
                   "agents": {"dataset", "neural_core", "state_repr"}}


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
    sources["transform"] += "\nfrom .clustering import adaptive_cluster\n"
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


def fresh_process(probe: str) -> str:
    """The standard output of ``probe`` run by a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout


def raft_modules_loaded_by(module: str) -> list[str]:
    """The ``raft`` modules a fresh interpreter loads to import ``module``."""
    return fresh_process(
        f"import sys\nbefore = set(sys.modules)\nimport {module}\n"
        "print(*sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'raft'))"
    ).split()


def test_importing_the_fixtures_loads_the_data_layer_alone():
    assert raft_modules_loaded_by("raft.synthetic") == ["raft", "raft.dataset", "raft.synthetic"]


def test_importing_the_policies_loads_data_nets_and_states_alone():
    assert raft_modules_loaded_by("raft.agents") == [
        "raft", "raft.agents", "raft.dataset", "raft.neural_core", "raft.state_repr"]


# The outputs a ``unique`` call may ask for besides the distinct values.
UNIQUE_OUTPUTS = ("return_index", "return_inverse", "return_counts")


def plain_unique_calls(source: str) -> list[int]:
    """The line of each ``unique`` call that asks for none of UNIQUE_OUTPUTS,
    by keyword or by position: numpy then asks whether its input is masked,
    which imports ``numpy.ma`` (about 1.5 MiB)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and called_name(node) == "unique":
            flags = [*node.args[1:4], *(kw.value for kw in node.keywords
                                        if kw.arg in UNIQUE_OUTPUTS)]
            if all(isinstance(f, ast.Constant) and f.value is False for f in flags):
                found.append(node.lineno)
    return sorted(found)


def test_plain_unique_calls_finds_each_form():
    source = ("import numpy as np\nfrom numpy import unique\n"
              "a = np.unique(x)\nb = unique(x)\nc = np.unique(x, return_inverse=True)\n"
              "d = np.unique(x, return_counts=False)\ne = np.unique(x, False, True)\n"
              "f = np.unique(x, axis=0)\ng = np.unique(x, return_index=flag)\n"
              "h = np.uniques(x)\n")
    assert plain_unique_calls(source) == [3, 4, 6, 8]


@pytest.mark.parametrize("path", [*SRC.glob("*.py"), *(ROOT / "tools").glob("*.py")],
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unique_call_asks_for_the_distinct_values_alone(path):
    assert plain_unique_calls(path.read_text(encoding="utf-8")) == []


def test_a_run_never_imports_the_masked_array_module(tmp_path):
    """A learned regression run, a learned run with every encoder and a random
    classification run, each writing its report (which fits a forest), leave
    ``numpy.ma`` unloaded."""
    reg = write_fixture(squared_sum_regression(m=120, n_distractors=2, seed=1),
                        tmp_path / "reg.csv")
    clf = write_fixture(product_sign_classification(120, 6, 1), tmp_path / "clf.csv")
    runs = {"regression": [str(reg), "y"], "all-encoders": [str(clf), "label", "--encoder", "all"],
            "random": [str(clf), "label", "--bench"]}
    probe = ("import json, sys\nfrom raft import cli\nloaded = {}\n"
             f"for name, (path, target, *flags) in {runs!r}.items():\n"
             "    code = cli.main(['run', '--input', path, '--target', target, *flags,\n"
             f"                     '--out', {str(tmp_path / 'out')!r} + name,\n"
             "                     '--episodes', '1', '--steps', '2'])\n"
             "    loaded[name] = [code, 'numpy.ma' in sys.modules]\n"
             "print(json.dumps(loaded))\n")
    loaded = json.loads(fresh_process(probe).splitlines()[-1])
    assert loaded == {name: [0, False] for name in runs}
