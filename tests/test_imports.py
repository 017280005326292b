"""Imports of the package: every imported name is used, every dataclass
field is read somewhere, every qmemsim name the demos use exists, and
neither importing the CLI, nor simulating, nor fitting loads scipy.  One
module cuts and routes the propagation windows, no function writes
module-level state or keeps a parameter it never reads, cli.py turns no
ParameterError into a ConfigError, and every function, class and method
of the package is named by the program, the demos or the benchmark.

No linter ships with the test environment, so these AST scans stand in for
the unused-import and unused-field checks.  A name listed in the module's
``__all__`` counts as used (re-exports).
"""

import ast
import collections
import importlib
import inspect
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qmemsim
from qmemsim import config

ROOT = pathlib.Path(__file__).parents[1]
MODULES = sorted(pathlib.Path(qmemsim.__file__).parent.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# every place that may read a field of the package's dataclasses
READERS = [path for top in ("src", "tests", "demos", "perfbench")
           for path in sorted((ROOT / top).rglob("*.py"))]


def _imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _dataclass_fields(tree):
    """(class, field, line) for each annotated field of a @dataclass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass" for d in node.decorator_list):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


def _write_only_fields(module, readers):
    """Dataclass fields of the module tree that no reader tree loads as an
    attribute (by name: any `x.<field>` read counts)."""
    loaded = {node.attr for tree in readers for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name} (line {line})"
            for cls, name, line in _dataclass_fields(module)
            if name not in loaded]


def test_every_dataclass_field_is_read():
    # a field that is stored and never read is state nothing uses
    readers = [ast.parse(path.read_text(), filename=str(path))
               for path in READERS]
    unread = [f"{path.name}: {field}" for path in MODULES
              for field in _write_only_fields(ast.parse(path.read_text()),
                                              readers)]
    assert not unread, f"dataclass fields that are never read: {unread}"


def test_field_check_flags_write_only_fields():
    module = ast.parse("from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\n"
                       "class A:\n"
                       "    read: int\n"
                       "    stored: int = 0\n"
                       "    LIMIT = 1\n")
    user = ast.parse("a = A(1, stored=2)\n"
                     "a.stored = 3\n"
                     "print(a.read, A.LIMIT)\n")
    assert _write_only_fields(module, [module, user]) == ["A.stored (line 5)"]


def _import_target(module, name):
    """What `from module import name` binds, or None if it does not exist."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _missing_qmemsim_names(tree):
    """qmemsim names the script imports, or reads as module.attr, that the
    package does not define."""
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "qmemsim":
            for alias in node.names:
                target = _import_target(node.module, alias.name)
                if target is None:
                    missing.append(
                        f"{node.module}.{alias.name} (line {node.lineno})")
                elif inspect.ismodule(target):
                    modules[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "qmemsim":
                    continue
                try:
                    target = importlib.import_module(alias.name)
                except ModuleNotFoundError:
                    missing.append(f"{alias.name} (line {node.lineno})")
                    continue
                modules[alias.asname or "qmemsim"] = (
                    target if alias.asname else qmemsim)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules \
                and not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr} "
                           f"(line {node.lineno})")
    return missing


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uses_existing_names(path):
    # Tier-1 runs no demo, so a renamed or deleted public name would
    # otherwise break a demo unnoticed
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = _missing_qmemsim_names(tree)
    assert not missing, f"{path.name} uses names qmemsim lacks: {missing}"


def test_demo_name_check_flags_missing_names():
    tree = ast.parse("from qmemsim import protocol\n"
                     "from qmemsim.lindblad import Trajectory, propagate\n"
                     "import qmemsim.tomography as tg\n"
                     "protocol.run_memory_protocol\n"
                     "protocol.reference_ground_population\n"
                     "tg.chi_from_channel_fn\n")
    assert _missing_qmemsim_names(tree) == [
        "qmemsim.lindblad.Trajectory (line 2)",
        "qmemsim.protocol.reference_ground_population (line 5)",
        "qmemsim.tomography.chi_from_channel_fn (line 6)",
    ]


def test_cli_import_loads_no_scipy():
    # CLI start-up (and `qmemsim validate`) does not pay for scipy
    code = ("import sys, qmemsim.cli; print([m for m in "
            "('scipy.optimize', 'scipy.stats') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_simulation_path_loads_no_scipy():
    # the propagators are numpy-only: importing scipy.linalg or
    # scipy.sparse alone takes a process to 49-55 MB resident, against
    # about 35 MB for a whole simulating run
    code = """
import sys
from qmemsim.device import QUBIT_CHANNEL, DeviceParams
import numpy as np
from qmemsim import qsys
from qmemsim.lindblad import build_model, evolve, propagate
from qmemsim.pulses import PulseSegment, PulseSequence
from qmemsim.qsys import SubsystemDims
p = DeviceParams()
seg = PulseSegment(QUBIT_CHANNEL, 100.0, p.angular().w_q, plateau=0.01)
m = build_model(p, SubsystemDims(2, 2, 1)).with_sequence(PulseSequence((seg,)))
state = evolve(m, qsys.basis_state(m.dims), (0.0, seg.end), 1e-4)[-1]
propagate([m], state.reshape(-1, 1), (seg.end, seg.end + 1.0), 1e-4)
kets = build_model(p, SubsystemDims(2, 2, 1),
                   noiseless=True).with_sequence(PulseSequence((seg,)))
propagate([kets] * 2, np.eye(4)[:, :2], (0.0, seg.end), 1e-4)
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_fitting_loads_no_scipy(tmp_path):
    # the fitters solve their least squares with numpy alone, from the
    # library and through `qmemsim run --experiment fit`
    data = tmp_path / "decay.csv"
    xs = np.linspace(0.0, 20.0, 21)
    np.savetxt(data, np.column_stack([xs, np.exp(-xs / 6.44)]), delimiter=",",
               header="x,y", comments="")
    cfg = tmp_path / "sample.cfg"
    config.write_sample_config(cfg)
    code = f"""
import sys
import numpy as np
from qmemsim import analysis, cli
x = np.linspace(0.05, 1.0, 12)
analysis.fit_exponential(x, 0.9 * np.exp(-x / 0.3) + 0.05)
analysis.fit_decaying_cosine(x, np.exp(-x) * np.cos(12.0 * x) + 0.5)
analysis.fit_lorentzian(x, 1.0 / (1.0 + 4.0 * (x - 0.5) ** 2 / 0.1**2))
analysis.fit_leakage(x, 1.0 - analysis.leakage_population(x, 0.5, 80.0))
assert cli.main(["run", "--config", {str(cfg)!r}, "--experiment", "fit",
                 "--input", {str(data)!r},
                 "--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unused_parameters(tree, scope):
    """"<scope>.<function>: <parameter>" for each parameter of each function
    or lambda in the tree that its body (nested functions included) never
    loads: positional, keyword-only, *args and **kwargs alike, but self and
    cls.  scope names the tree; a nested definition is named by the chain
    of functions and classes around it."""
    for node in ast.iter_child_nodes(tree):
        name = scope
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            name = f"{scope}.{getattr(node, 'name', '<lambda>')}"
        if isinstance(node, FUNCTIONS):
            a = node.args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from (f"{name}: {arg.arg}" for arg in params if arg
                        and arg.arg not in loaded | {"self", "cls"})
        yield from _unused_parameters(node, name)


def test_every_parameter_is_used():
    # a parameter the function never reads is an input every caller must
    # pass for nothing, and one more thing a reader must rule out
    unused = [entry for path in MODULES
              for entry in _unused_parameters(ast.parse(path.read_text()),
                                              path.stem)]
    assert not unused, f"parameters their function never reads: {unused}"


def test_parameter_check_flags_unused_parameters():
    tree = ast.parse("def f(a, b, /, c, *args, d, e=1, **kwargs):\n"
                     "    return a + d\n"
                     "class Box:\n"
                     "    def read(self, key, spare):\n"
                     "        return key\n"
                     "    @classmethod\n"
                     "    def make(cls, size, default=lambda x, y: x):\n"
                     "        def inner(z):\n"
                     "            return size\n"
                     "        return inner\n")
    assert list(_unused_parameters(tree, "toy")) == [
        "toy.f: b", "toy.f: c", "toy.f: args", "toy.f: e", "toy.f: kwargs",
        "toy.Box.read: spare", "toy.Box.make: default",
        "toy.Box.make.<lambda>: y", "toy.Box.make.inner: z"]


def _function_imports(tree, scope=None):
    """(function, line) of each import statement in a function's body,
    named by the innermost function around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and scope:
            yield scope, node.lineno
        inner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _function_imports(node, inner)


def test_no_function_imports():
    # a module's dependencies are its top-level imports; an import inside
    # a function hides one, or an import cycle, and a test that replaces a
    # name must then know when the function looks it up
    found = [f"{path.name}: {name} (line {line})" for path in MODULES
             for name, line in _function_imports(ast.parse(path.read_text()))]
    assert not found, f"imports inside functions: {found}"


def test_function_import_check_flags_imports():
    tree = ast.parse("import math\n"
                     "def f():\n"
                     "    import os\n"
                     "    def g():\n"
                     "        from . import lindblad\n"
                     "    return os, g\n"
                     "class A:\n"
                     "    import json\n"
                     "    def m(self):\n"
                     "        from .x import y\n"
                     "if math:\n"
                     "    import sys\n")
    assert list(_function_imports(tree)) == [("f", 3), ("g", 5), ("m", 10)]


ROUTING = ("carrier_frame", "active_terms", "max_step")


def _routing_calls(tree):
    """(name, line) of each call of a routing method in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name in ROUTING:
                yield name, node.lineno


def test_only_lindblad_routes_windows():
    # lindblad.propagate decides each window's route and step; a second
    # module that asks carrier_frame, active_terms or max_step is a second
    # runner in the making
    calls = [f"{path.name}: {name} (line {line})" for path in MODULES
             if path.name != "lindblad.py"
             for name, line in _routing_calls(ast.parse(path.read_text()))]
    assert not calls, f"routing outside lindblad.py: {calls}"


def test_routing_check_flags_calls():
    tree = ast.parse("frame = model.carrier_frame(t0, t1)\n"
                     "if not active_terms(t0, t1):\n"
                     "    pass\n"
                     "model.carrier_frame\n"
                     "max_step(t0, t1)\n")
    calls = sorted(_routing_calls(tree), key=lambda call: call[1])
    assert calls == [("carrier_frame", 1), ("active_terms", 2),
                     ("max_step", 5)]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree):
    """(name, line) of each private name of another module that the tree
    reads: `module._name` of a module it imports, or `from module import
    _name`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom) and _private(alias.name):
                    yield f"{node.module or '.'}.{alias.name}", node.lineno
                if isinstance(node, ast.Import) or not node.module:
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and getattr(node.value, "id", None) in modules:
            yield f"{node.value.id}.{node.attr}", node.lineno


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own to change; a second module that
    # reads one depends on what its owner may rename or drop unseen
    reads = [f"{path.name}: {name} (line {line})" for path in MODULES
             for name, line in _private_reads(ast.parse(path.read_text()))]
    assert not reads, f"private names read across modules: {reads}"


def test_private_name_check_flags_reads():
    tree = ast.parse("import numpy as np\n"
                     "from . import __version__, pulses\n"
                     "from .lindblad import _block_expm, propagate\n"
                     "pulses._probe_transfers(base)\n"
                     "pulses.probe_transfers(base)\n"
                     "np._core\n"
                     "self._cache = obj._field\n"
                     "def _own():\n"
                     "    return _own, pulses.__name__\n")
    assert sorted(_private_reads(tree), key=lambda read: read[1]) == [
        ("lindblad._block_expm", 3), ("pulses._probe_transfers", 4),
        ("np._core", 6)]


# what a handler that catches a ParameterError names: it, its package base
# or any exception (cli.py's ValueError handlers wrap numpy and argparse)
CATCH_PARAMETER_ERROR = {"ParameterError", "QmemError", "Exception",
                         "BaseException"}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _usage_conversions(tree):
    """Line of each `raise ConfigError` in an except handler that catches a
    ParameterError."""
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        kinds = getattr(handler.type, "elts", [handler.type])
        if handler.type and not {_name(k) for k in kinds} & CATCH_PARAMETER_ERROR:
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and _name(
                    getattr(node.exc, "func", node.exc)) == "ConfigError":
                yield node.lineno


def test_cli_converts_no_parameter_error():
    # cli.main reports a ParameterError as a usage error itself; a handler
    # that re-raises one as a ConfigError restates the library's check
    path = pathlib.Path(qmemsim.__file__).parent / "cli.py"
    lines = list(_usage_conversions(ast.parse(path.read_text())))
    assert not lines, f"cli.py converts a ParameterError on lines {lines}"


def test_conversion_check_flags_handlers():
    tree = ast.parse("def _usage(check):\n"
                     "    try:\n"
                     "        return check()\n"
                     "    except ParameterError as exc:\n"
                     "        raise ConfigError(str(exc)) from exc\n"
                     "try:\n"
                     "    f()\n"
                     "except (OSError, errors.QmemError):\n"
                     "    raise errors.ConfigError('x')\n"
                     "except ValueError:\n"
                     "    raise ConfigError('cannot parse')\n"
                     "except ParameterError as exc:\n"
                     "    raise ParameterError(f'--input: {exc}')\n"
                     "except:\n"
                     "    raise ConfigError\n")
    assert sorted(_usage_conversions(tree)) == [5, 9, 15]


# a window's support: the table restricted to it, and the conjugate halves
# that a window of Hermitian columns cuts it to and mirrors back
SUPPORT = ("restricted", "kept", "mirrored", "partner")
# lindblad's support frame, and the table, which builds the halves
SUPPORT_OWNERS = ("_on_support", "LiouvilleTable")


def _support_reads(tree, module):
    """"<module>: <name> in <owner> (line n)" for each read of a SUPPORT
    attribute (a call of `restricted` reads it too) outside lindblad.py's
    SUPPORT_OWNERS; owner is the top-level function or class around it."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        if module == "lindblad.py" and owner in SUPPORT_OWNERS:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in SUPPORT \
                    and isinstance(node.ctx, ast.Load):
                yield f"{module}: {node.attr} in {owner} (line {node.lineno})"


def test_only_the_support_frame_restricts_windows():
    # lindblad._on_support restricts each window to its support and
    # mirrors the conjugate halves back, around both routes; a route or
    # module that does either is a second frame in the making
    reads = [read for path in MODULES
             for read in _support_reads(ast.parse(path.read_text()), path.name)]
    assert not reads, f"support read outside lindblad._on_support: {reads}"


def test_support_check_flags_reads():
    toy = ("def _on_support(table, x):\n"
           "    return table.restricted(x, table.kept)\n"
           "def _exact(table, x):\n"
           "    idx, sub, y = table.restricted(x)\n"
           "    out[table.mirrored] = out[table.partner].conj()\n"
           "class LiouvilleTable:\n"
           "    def __init__(self):\n"
           "        self.kept = self.partner\n"
           "keep = table.kept\n")
    outside = ["restricted in _exact (line 4)", "mirrored in _exact (line 5)",
               "partner in _exact (line 5)", "kept in None (line 9)"]
    assert sorted(_support_reads(ast.parse(toy), "lindblad.py")) == sorted(
        f"lindblad.py: {read}" for read in outside)
    inside = ["restricted in _on_support (line 2)", "kept in _on_support (line 2)",
              "partner in LiouvilleTable (line 8)"]
    assert sorted(_support_reads(ast.parse(toy), "pulses.py")) == sorted(
        f"pulses.py: {read}" for read in outside + inside)


def _ramp_reads(tree):
    """Lines that read a `.ramp` attribute, other than `self.ramp`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "ramp" \
                and isinstance(node.ctx, ast.Load) \
                and getattr(node.value, "id", None) != "self":
            yield node.lineno


def test_only_lindblad_cuts_windows():
    # lindblad.propagate cuts each span at its segments' ramp ends; a
    # second module that reads a segment's ramp rebuilds those edges
    reads = [f"{path.name} (line {line})" for path in MODULES
             if path.name != "lindblad.py"
             for line in _ramp_reads(ast.parse(path.read_text()))]
    assert not reads, f"segment ramps read outside lindblad.py: {reads}"


def test_ramp_check_flags_reads():
    tree = ast.parse("edges = (s.start, s.start + s.ramp)\n"
                     "up = self.ramp\n"
                     "seg.ramp = 1.0\n"
                     "ramp = seg.ramps\n"
                     "t = segments[0].ramp\n")
    assert sorted(_ramp_reads(tree)) == [1, 5]



# method calls that change a list, dict or set in place
MUTATORS = ("append", "extend", "insert", "update", "setdefault", "pop",
            "popitem", "clear", "add", "discard", "remove")


def _module_names(tree):
    """Names the module binds by assignment at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names |= {n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name)}
    return names


def _module_state_writes(tree):
    """(name, line) of each write to module-level state inside a function:
    a `global` statement, an item or attribute store into a module-level
    name, or a MUTATORS call on one.  A name the function binds is its
    own."""
    shared = _module_names(tree)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        own = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        own |= {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield "global " + ", ".join(node.names), node.lineno
                continue
            if isinstance(node, (ast.Subscript, ast.Attribute)) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                base = node.func.value
            else:
                continue
            if isinstance(base, ast.Name) and base.id in shared - own:
                yield base.id, node.lineno


def test_no_function_writes_module_state():
    # state kept between calls is hidden from the caller, grows unbounded
    # and is inherited by forked --jobs workers: what a call reuses, such
    # as a calibration, its caller passes
    writes = [f"{path.name}: {name} (line {line})" for path in MODULES
              for name, line in sorted(set(_module_state_writes(
                  ast.parse(path.read_text()))))]
    assert not writes, f"functions that write module-level state: {writes}"


def test_module_state_check_flags_writes():
    tree = ast.parse("CACHE = {}\n"
                     "ITEMS: list = []\n"
                     "LIMIT = 1\n"
                     "def f(key, value):\n"
                     "    global LIMIT\n"
                     "    CACHE[key] = value\n"
                     "    ITEMS.append(value)\n"
                     "    CACHE.setdefault(key, value)\n"
                     "def g(CACHE):\n"
                     "    CACHE[0] = 1\n"
                     "    ITEMS = {}\n"
                     "    ITEMS.update(a=1)\n"
                     "    return CACHE.get(0), LIMIT\n")
    assert sorted(_module_state_writes(tree)) == [
        ("CACHE", 6), ("CACHE", 8), ("ITEMS", 7), ("global LIMIT", 5)]


# names with no caller in src/, demos/ or perfbench/, kept on purpose
UNCALLED_ON_PURPOSE = {
    "qsys.check_physical":
        "the density-matrix invariant check, run by test_qsys and "
        "test_tomography, for callers that hand states between windows",
    "config.device_params_to_config":
        "the inverse of the config parser, whose round trip the config "
        "tests pin",
}


def _definitions(tree):
    """(class or None, node) for each module-level function and class, and
    each method or property of those classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item


def _named_modules(tree):
    """Last components of the modules the tree imports, and of the names
    it imports from them (`from . import qsys` names qsys)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
    return names


def _references(tree):
    """How often the tree names each thing: ".x" for an attribute x, "x"
    for a bare or an imported name x."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs["." + node.attr] += 1
        elif isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def _unreferenced(modules, others):
    """Definitions of the modules ({name: tree}) that nothing references
    outside their own body: a function or class by a name, an attribute or
    an import anywhere in modules or others, a method or property by an
    attribute in its own module or one that imports it, so that
    `table.apply` does not count for a method apply of an unrelated
    class."""
    trees = [(name, tree) for name, tree in modules.items()]
    trees += [(None, tree) for tree in others]
    scopes = [_named_modules(tree) | {name} for name, tree in trees]
    refs = [_references(tree) for _, tree in trees]
    found = []
    for module, tree in modules.items():
        for cls, node in _definitions(tree):
            keys = ["." + node.name] + ([node.name] if cls is None else [])
            own = _references(node)
            if not any(counts[key] > (own[key] if name == module else 0)
                       for (name, _), scope, counts in zip(trees, scopes, refs)
                       if cls is None or module in scope for key in keys):
                name = ".".join(filter(None, (module, cls, node.name)))
                found.append(f"{name} (line {node.lineno})")
    return found


def test_src_keeps_only_what_the_program_calls():
    # a helper that only tests call is code the program carries for them:
    # a test checks it with plain numpy or the general call instead
    modules = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    others = [ast.parse(path.read_text())
              for top in ("demos", "perfbench")
              for path in sorted((ROOT / top).rglob("*.py"))]
    unused = [entry for entry in _unreferenced(modules, others)
              if entry.split(" ")[0] not in UNCALLED_ON_PURPOSE]
    assert not unused, f"names nothing in src/, demos/ or perfbench/ uses: {unused}"


def test_reference_check_flags_unused_names():
    toy = ast.parse("def used():\n"
                    "    pass\n"
                    "def unused():\n"
                    "    pass\n"
                    "def recursive():\n"
                    "    return recursive()\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "    def read(self):\n"
                    "        return self.helper()\n"
                    "    def helper(self):\n"
                    "        pass\n"
                    "    @property\n"
                    "    def size(self):\n"
                    "        pass\n"
                    "    def apply(self):\n"
                    "        pass\n")
    user = ast.parse("from .toy import Box, used\n"
                     "used(Box().read())\n")
    # `apply` and `size` of an object of a module that never names toy
    other = ast.parse("from . import table\n"
                      "table.Table().apply(table.size)\n")
    assert _unreferenced({"toy": toy, "user": user}, [other]) == [
        "toy.unused (line 3)", "toy.recursive (line 5)",
        "toy.Box.size (line 15)", "toy.Box.apply (line 17)"]
