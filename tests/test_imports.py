"""Imports of the package: every imported name is used, importing the CLI
loads no scipy, and neither does simulating.

No linter ships with the test environment, so this AST scan stands in for
the unused-import check.  A name listed in the module's ``__all__`` counts
as used (re-exports).
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import qmemsim

MODULES = sorted(pathlib.Path(qmemsim.__file__).parent.glob("*.py"))


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


def test_cli_import_loads_no_scipy():
    # scipy is imported where the fitters run, so CLI start-up (and
    # `qmemsim validate`) does not pay for it
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
from qmemsim.device import DeviceParams
from qmemsim.lindblad import StaticPropagator, build_model, evolve
from qmemsim.pulses import QUBIT_CHANNEL, PulseSegment, PulseSequence
from qmemsim.qsys import SubsystemDims
p = DeviceParams()
seg = PulseSegment(QUBIT_CHANNEL, 100.0, p.angular().w_q, plateau=0.01)
m = build_model(p, SubsystemDims(2, 2, 1), PulseSequence((seg,)))
state = evolve(m, m.basis_state(), (0.0, seg.end), 1e-4).final_state
StaticPropagator(m).propagate(state, (seg.end, seg.end + 1.0))
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
