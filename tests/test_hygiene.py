"""Source hygiene: every imported name in the package and the tests is used,
every module-level constant of the package is read somewhere, every
function of the package runs under some command, and summaries have one
serializer."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import freewalk
from freewalk import simulator
from freewalk.cli import EXIT_OK, EXIT_STATISTICAL, EXIT_VALIDATION, main
from freewalk.core import compile_kernel
from freewalk.instances import instance_k3_k3
from freewalk.oracle import word_index

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for p in [*ROOT.glob("src/freewalk/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"  # a package's imports are its re-exports
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    """Names the module reads, also inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((n, line) for n, line in _imported(tree).items() if n not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_annotation_only_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> Sequence:\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(source) == [("os", 2)]


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _constants(tree: ast.Module) -> dict[str, int]:
    """Each ALL_CAPS name a module-level assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    names[name.id] = node.lineno
    return names


def _reads(tree: ast.AST) -> set[str]:
    """Names and attributes the module loads, also inside string annotations;
    an import alone is not a read."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads |= _reads(ast.parse(node.value, mode="eval"))
    return reads


def _unread_constants(
    modules: dict[str, str], readers: list[str]
) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of each constant no module or reader loads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set().union(*map(_reads, trees.values()), *(_reads(ast.parse(s)) for s in readers))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _constants(tree).items()
        if name not in read
    )


def test_every_package_constant_is_read():
    modules = {p.name: p.read_text() for p in sorted(ROOT.glob("src/freewalk/*.py"))}
    readers = [p.read_text() for p in sorted(ROOT.glob("tests/*.py"))]
    assert _unread_constants(modules, readers) == []


def test_the_constant_check_sees_unread_and_annotation_only_names():
    module = (
        "LIMIT, _private = 3, 4\n"
        "UNREAD: int = 1\n"
        "BY_ATTRIBUTE = 2\n"
        "IN_ANNOTATION = int\n"
        "lowercase = 5\n"
        "def f(x: 'IN_ANNOTATION') -> int:\n"
        "    return x * LIMIT\n"
    )
    reader = "import m\nfrom m import UNREAD\nprint(m.BY_ATTRIBUTE)\n"
    assert _unread_constants({"m.py": module}, [reader]) == [("m.py", "UNREAD", 2)]


# the types whose summary layout is not their fields, each with its reason;
# every other summary is its dataclass written field by field by cli.emit_json
OWN_LAYOUT_ALLOWED = {
    "WalkConfig": "the config schema behind digest()",
    "ValidationReport": "its derived ok",
    "GenFunContext": "xi as a pair and 'i:v' letter keys",
    "SigmaEstimates": "sigma_*_sq keys for the fields callers read as lambda_sq",
}


def _own_layouts(source: str) -> list[str]:
    """Each class of the source that defines a ``to_json_dict`` method."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
            for item in node.body
        )
    )


def test_summaries_have_one_serializer():
    own = {
        name
        for path in ROOT.glob("src/freewalk/*.py")
        for name in _own_layouts(path.read_text())
    }
    assert sorted(own - set(OWN_LAYOUT_ALLOWED)) == []


def test_the_serializer_check_sees_methods_not_functions():
    source = (
        "def to_json_dict(x):\n"
        "    return {}\n"
        "class Report:\n"
        "    def to_json_dict(self):\n"
        "        return {}\n"
        "class Plain:\n"
        "    def to_rows(self):\n"
        "        return {}\n"
    )
    assert _own_layouts(source) == ["Report"]


# the one module of the package that computes each per-letter reward; every
# other module reads genfun.letter_rewards.  Tests and perfbench/ keep their
# own references, as the criteria compare the package against them
REWARD_SOURCES = {"letter_dl": "genfun.py", "distances_from_root": "core.py"}


def _method_callers(sources: dict[str, str], method: str) -> set[str]:
    """The names of the sources that call ``<object>.<method>(...)``."""
    return {
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    }


@pytest.mark.parametrize("method", sorted(REWARD_SOURCES))
def test_one_module_computes_each_letter_reward(method):
    sources = {p.name: p.read_text() for p in ROOT.glob("src/freewalk/*.py")}
    assert _method_callers(sources, method) == {REWARD_SOURCES[method]}


def test_the_caller_check_sees_method_calls_only():
    sources = {
        "call.py": "ctx.letter_dl(1, 'a')\n",
        "read.py": "f = ctx.letter_dl\n",
        "function.py": "letter_dl(1, 'a')\n",
    }
    assert _method_callers(sources, "letter_dl") == {"call.py"}


def _calls_of(source: str, dotted: str) -> int:
    """How many calls of the dotted name, ``np.linalg.inv`` say, the source makes."""
    return sum(
        isinstance(node, ast.Call) and ast.unparse(node.func) == dotted
        for node in ast.walk(ast.parse(source))
    )


def test_one_matrix_inversion():
    """Every factor resolvent is ``genfun.factor_resolvent``'s one batched inverse."""
    sources = [p.read_text() for p in ROOT.glob("src/freewalk/*.py")]
    assert sum(_calls_of(source, "np.linalg.inv") for source in sources) == 1


def test_the_call_count_sees_calls_only():
    source = "a = np.linalg.inv(m)\nf = np.linalg.inv\nb = inv(m) + np.linalg.inv(m[0])\n"
    assert _calls_of(source, "np.linalg.inv") == 2


def _block_passes(source: str) -> list[str]:
    """The callee of each ``np.bincount(...)`` and ``<object>.reward(...)``
    call of the source: passes over a pool's blocks."""
    return sorted(
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            ast.unparse(node.func) == "np.bincount"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "reward"
        )
    )


def test_estimators_read_blocks_through_the_walk_summary():
    """Every per-walk sum is ``BlockPool.walk_summary``'s, built once per pool."""
    assert _block_passes((ROOT / "src/freewalk/estimators.py").read_text()) == []


def test_the_block_pass_check_sees_calls_only():
    source = (
        "s = np.bincount(pool.walk)\n"
        "f = np.bincount\n"
        "r = pool.reward\n"
        "x = pool.reward(0) + reward(1) + bincount(w)\n"
    )
    assert _block_passes(source) == ["np.bincount", "pool.reward"]


def _exported(c_source: str) -> set[str]:
    """The functions a C source defines without ``static``: a definition
    starts at column 0 with its return type."""
    head = re.compile(r"^(?!static\b|typedef\b)(?:[A-Za-z_]\w*[\s*]+)+([A-Za-z_]\w*)\s*\(", re.M)
    return set(head.findall(c_source))


def _undeclared(c_source: str, py_source: str) -> list[str]:
    """``name.argtypes`` and ``name.restype`` of each exported function of
    the C source that ``_step_library`` in the Python source does not set."""
    loader = next(
        node
        for node in ast.walk(ast.parse(py_source))
        if isinstance(node, ast.FunctionDef) and node.name == "_step_library"
    )
    declared = {
        (target.value.attr, target.attr)
        for node in ast.walk(loader)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute)
    }
    return sorted(
        f"{name}.{attr}"
        for name in _exported(c_source)
        for attr in ("argtypes", "restype")
        if (name, attr) not in declared
    )


def test_every_kernel_function_has_a_declared_abi():
    """ctypes would pass undeclared arguments as C ints and read an int back."""
    c_source = (ROOT / "src/freewalk/step_kernel.c").read_text()
    assert _exported(c_source) == {"fill_uniforms", "step_span", "join_rows"}
    assert _undeclared(c_source, (ROOT / "src/freewalk/simulator.py").read_text()) == []


def test_the_abi_check_sees_missing_declarations():
    c_source = (
        "typedef struct {\n    int a;\n} pair;\n"
        "static inline int helper(int x)\n{\n    return x;\n}\n"
        "int64_t sum(const int64_t *a,\n            int64_t n)\n{\n    for (;;)\n        helper(n);\n}\n"
        "void *touch(void)\n{\n}\n"
    )
    py_source = (
        "def _step_library():\n"
        "    lib.sum.argtypes = [ptr, i64]\n"
        "    lib.sum.restype = i64\n"
        "    lib.touch.argtypes = []\n"
        "    lib.helper.restype = None\n"
        "def other():\n"
        "    lib.touch.restype = ptr\n"
    )
    assert _exported(c_source) == {"sum", "touch"}
    assert _undeclared(c_source, py_source) == ["touch.restype"]


# functions no command reaches, each kept because the benchmark (``perfbench/``)
# calls or wraps it by name, or an acceptance criterion reads it
UNREACHED_ALLOWED = {
    "core.py:step_distribution": "spans.WordCounter counts enumeration work by BFS over it",
    "core.py:CompiledKernel.decode": "step_distribution's successor words",
    "core.py:CompiledKernel.successors": "step_distribution's successor codes",
    "oracle.py:return_probability_proxy": "a boundary of the span table in spans.py",
    "estimators.py:truncate_pool": "a boundary of the span table in spans.py",
    "genfun.py:renewal_increment_gf": "the reference F'(1) of checks.py",
    "simulator.py:stream_uniforms": "a boundary of the span table in spans.py",
    "simulator.py:BlockPool.d_ent": "criterion 8 of test_acceptance.py bounds it per block",
}

# each command on both shapes at small sizes, plus a config file
COMMANDS = [
    [*command, "--config", shape]
    for shape in ("K3xK3", "PathxK3")
    for command in (
        ["validate"],
        ["genfun"],
        ["oracle-check", "--order", "4"],
        ["simulate", "--n", "400", "--M", "10", "--buffer", "50"],
        ["clt", "--n", "200", "--M", "40"],
        ["diagnostics", "--n", "400", "--M", "40", "--buffer", "50"],
        ["sweep", "--grid", "0.4,0.5,0.6", "--n", "400", "--M", "20", "--buffer", "50"],
    )
] + [["validate", "--config", str(ROOT / "configs" / "k3xk3.json")]]


def _functions(source: str) -> dict[int, str]:
    """Each function the source defines, methods and nested ones too, by the
    first line of its code object (its first decorator) with its dotted name."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def _reached(run) -> set[tuple[Path, int]]:
    """``(file, first line)`` of every Python function called while ``run`` runs."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def _unreached(paths: list[Path], reached: set[tuple[Path, int]]) -> list[str]:
    """``file:name`` of each function of ``paths`` that ``reached`` misses."""
    return sorted(
        f"{path.name}:{name}"
        for path in paths
        for line, name in _functions(path.read_text()).items()
        if (path.resolve(), line) not in reached
    )


def test_every_package_function_runs_under_a_command(tmp_path, monkeypatch, capsys):
    # sys.setprofile sees the calling thread only, not the simulator's worker threads
    monkeypatch.setenv("FREEWALK_WORKERS", "1")
    compile_kernel.cache_clear()  # a kernel built by an earlier test skips its build
    word_index.cache_clear()
    # an empty kernel cache: the first simulation builds the step kernel
    monkeypatch.setattr(simulator, "_CACHE_DIR", tmp_path / "__pycache__")
    simulator._step_library.cache_clear()
    # an invalid config without a loop witness: the witness search and the
    # validation failure message
    doc = instance_k3_k3().to_json_dict()
    del doc["loop_witness"]
    doc["alpha"] = 1.5
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    codes = []

    def run():
        for i, argv in enumerate(COMMANDS):
            codes.append(main([*argv, "--out", str(tmp_path / str(i))]))
        codes.append(main(["genfun", "--config", str(invalid), "--out", str(tmp_path)]))

    reached = _reached(run)
    assert set(codes[:-1]) <= {EXIT_OK, EXIT_STATISTICAL} and codes[-1] == EXIT_VALIDATION
    package = sorted(Path(freewalk.__file__).parent.glob("*.py"))
    assert _unreached(package, reached) == sorted(UNREACHED_ALLOWED)


def test_the_reach_check_sees_uncalled_functions_and_methods(tmp_path):
    source = (
        "import functools\n"
        "def called():\n"
        "    return helper() + Box().size\n"
        "def helper():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "def never():\n"
        "    def never_inner():\n"
        "        return 0\n"
        "    return never_inner()\n"
        "@functools.lru_cache\n"
        "def cached():\n"
        "    return 2\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return cached()\n"
        "    def unused(self):\n"
        "        return 3\n"
    )
    path = tmp_path / "toy.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    reached = _reached(toy.called)
    assert _unreached([path], reached) == [
        "toy.py:Box.unused",
        "toy.py:never",
        "toy.py:never.never_inner",
    ]
