"""Source hygiene: every imported name in the package and the tests is used,
every module-level constant of the package is read somewhere, every
function of the package runs under some command, summaries have one
serializer, and the package starts no thread and reads no environment."""

import ast
import ctypes
import importlib.util
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
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


THREAD_MODULES = {"concurrent", "threading"}
ENVIRONMENT_READS = {"environ", "environb", "getenv"}


def _threads_and_environment(source: str) -> list[tuple[str, int]]:
    """Each import of a thread module and each read of the process
    environment through ``os``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            if node.module == "os":
                modules += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT_READS]
        elif (
            isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            modules = [f"os.{node.attr}"]
        else:
            continue
        found += [
            (m, node.lineno) for m in modules
            if m.split(".")[0] in THREAD_MODULES or m.startswith("os.")
        ]
    return sorted(found)


def test_batches_run_on_the_calling_thread_whatever_the_environment():
    """Every walk owns a counter-based stream, so a batch is stepped on the
    calling thread, and no setting outside a command's arguments reaches it."""
    for path in ROOT.glob("src/freewalk/*.py"):
        assert _threads_and_environment(path.read_text()) == [], path.name


def test_the_thread_check_sees_imports_and_environment_reads():
    source = (
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from os import getenv, replace\n"
        "import threading_tools, concurrent_log\n"
        "from .threading import lock\n"
        "def f():\n"
        "    import threading as t\n"
        "    os.replace('a', 'b')\n"
        "    return os.environ.get('X'), 'os.environ', env.environ\n"
    )
    assert _threads_and_environment(source) == [
        ("concurrent.futures", 2),
        ("os.environ", 9),
        ("os.getenv", 3),
        ("threading", 1),
        ("threading", 7),
    ]


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


# the ctypes type of each C scalar type, and the dtype of each C element
# type an array parameter points to; ``void *`` elements make a table of addresses
_C_SCALARS = {
    "void": None, "int32_t": ctypes.c_int32, "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64, "double": ctypes.c_double,
}
_C_ELEMENTS = {
    "int8_t": np.int8, "int16_t": np.int16, "int32_t": np.int32, "int64_t": np.int64,
    "uint8_t": np.uint8, "uint64_t": np.uint64, "double": np.float64, "void *": np.uintp,
}


def _prototypes(c_source: str) -> dict[str, tuple[str, list[str]]]:
    """The return type and the parameter types of each exported function,
    spaced as ``const int64_t *``."""
    head = re.compile(
        r"^(?!static\b|typedef\b)([A-Za-z_][\w\s*]*?)\b([A-Za-z_]\w*)\s*\(([^)]*)\)", re.M
    )
    return {
        name: (_spaced(ret), [_spaced(re.sub(r"\w+$", "", p.strip())) for p in params.split(",")])
        for ret, name, params in head.findall(c_source)
    }


def _spaced(c_type: str) -> str:
    return " ".join(c_type.replace("*", " * ").split())


def _accepts(argtype, array: np.ndarray) -> bool:
    try:
        argtype.from_param(array)
    except TypeError:
        return False
    return True


def _argtype_mismatch(argtype, c_type: str) -> Optional[str]:
    """How a declared argtype differs from its C parameter type: a scalar's
    ctypes type, or an array's dtype, contiguity and writeability, each read
    off what the declaration accepts."""
    if not c_type.endswith("*"):
        return None if argtype is _C_SCALARS[c_type] else f"{argtype} for {c_type}"
    element = c_type[:-1].strip()
    writes = "const" not in element.rsplit("*", 1)[-1].split()  # the pointee's own qualifier
    dtype = _C_ELEMENTS["void *" if "*" in element else element.removeprefix("const ")]
    good = np.zeros(4, dtype)
    read_only = good.copy()
    read_only.flags.writeable = False
    if not _accepts(argtype, good) or _accepts(argtype, good.astype(np.float32)):
        return f"not an array of {np.dtype(dtype)} for {c_type}"
    if _accepts(argtype, good[::2]):
        return f"accepts a non-contiguous array for {c_type}"
    if _accepts(argtype, read_only) == writes:
        return f"{'accepts a read-only' if writes else 'requires a writeable'} array for {c_type}"
    return None


def _abi_mismatches(c_source: str, lib) -> list[str]:
    """Each way the library's declarations differ from the C prototypes."""
    out = []
    for name, (ret, params) in _prototypes(c_source).items():
        fn = getattr(lib, name)
        if fn.restype is not _C_SCALARS[ret]:
            out.append(f"{name} returns {fn.restype} for {ret}")
        if fn.argtypes is None or len(fn.argtypes) != len(params):
            declared = None if fn.argtypes is None else len(fn.argtypes)
            out.append(f"{name} declares {declared} of {len(params)} arguments")
            continue
        for i, (argtype, c_type) in enumerate(zip(fn.argtypes, params)):
            if (mismatch := _argtype_mismatch(argtype, c_type)) is not None:
                out.append(f"{name} argument {i}: {mismatch}")
    return out


def test_every_kernel_function_has_a_declared_abi():
    """ctypes would pass undeclared arguments as C ints and read an int back,
    and a bare address would let any array through.  Each exported function
    declares its C prototype's parameter count and scalar types, and each
    array parameter as a contiguous array of its element's dtype, writeable
    exactly where the parameter is not ``const``."""
    c_source = (ROOT / "src/freewalk/step_kernel.c").read_text()
    assert set(_prototypes(c_source)) == {
        "fill_uniforms", "step_span", "decompose_walks", "decompose_blocks", "walk_summary",
        "join_rows",
    }
    assert _prototypes(c_source)["join_rows"][1][3] == "const void * const *"
    assert _abi_mismatches(c_source, simulator._step_library()) == []


def test_the_abi_check_sees_missing_declarations():
    c_source = (
        "typedef struct {\n    int a;\n} pair;\n"
        "static inline int helper(int x)\n{\n    return x;\n}\n"
        "int64_t sum(const int64_t *a,\n            int64_t n)\n{\n"
        "    for (;;)\n        helper(n);\n}\n"
        "void touch(double *out)\n{\n}\n"
    )
    in_i64 = np.ctypeslib.ndpointer(np.int64, flags="C")
    lib = SimpleNamespace(
        sum=SimpleNamespace(argtypes=[in_i64, ctypes.c_int64], restype=ctypes.c_int64),
        touch=SimpleNamespace(argtypes=None, restype=ctypes.c_int),  # ctypes' defaults
    )
    assert set(_prototypes(c_source)) == {"sum", "touch"}  # no typedef, no static function
    assert _abi_mismatches(c_source, lib) == [
        "touch returns <class 'ctypes.c_int'> for void",
        "touch declares None of 1 arguments",
    ]


def test_the_abi_check_sees_a_mutated_declaration():
    """The library's own declarations, each mutated once: a ``const`` array
    declared writeable, an output declared read-only, another dtype, a bare
    address, a narrower scalar and a missing argument."""
    c_source = (ROOT / "src/freewalk/step_kernel.c").read_text()
    lib = simulator._step_library()
    ndpointer = np.ctypeslib.ndpointer
    mutations = {
        ("walk_summary", 1): ndpointer(np.int64, flags="C,W"),
        ("walk_summary", 10): ndpointer(np.float64, flags="C"),
        ("decompose_walks", 2): ndpointer(np.int32, flags="C"),
        ("fill_uniforms", 3): ctypes.c_void_p,
        ("step_span", 9): ctypes.c_int64,
        ("join_rows", 3): ndpointer(np.uintp),
    }
    for (name, i), argtype in mutations.items():
        argtypes = list(getattr(lib, name).argtypes)
        argtypes[i] = argtype
        mutated = SimpleNamespace(**{
            other: getattr(lib, other) for other in _prototypes(c_source) if other != name
        })
        restype = getattr(lib, name).restype
        setattr(mutated, name, SimpleNamespace(argtypes=argtypes, restype=restype))
        [mismatch] = _abi_mismatches(c_source, mutated)
        assert mismatch.startswith(f"{name} argument {i}: "), mismatch
    short = SimpleNamespace(**{name: getattr(lib, name) for name in _prototypes(c_source)})
    short.decompose_blocks = SimpleNamespace(
        argtypes=lib.decompose_blocks.argtypes[:-1], restype=None
    )
    assert _abi_mismatches(c_source, short) == ["decompose_blocks declares 10 of 11 arguments"]


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
    "simulator.py:BlockPool.d_at": "criterion 8 of test_acceptance.py checks that it telescopes",
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
