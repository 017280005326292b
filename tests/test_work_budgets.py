"""Work budgets: exact counts of the work each gated experiment does.

Wall times in a shared sandbox cannot resolve a change under about 25%,
but these counts are exact and the same on every rerun and at any BLAS
thread count.  Each bound is the count of the current code: a change that
lowers a count lowers its bound with it, and one that raises a count says
why.
"""

import collections

import pytest

from qmemsim import lindblad, protocol
from qmemsim.device import DeviceParams
from qmemsim.protocol import ProtocolOptions

# experiment: (LiouvilleTable.apply calls, tables built, matrices
# exponentiated by _block_expm, propagate calls)
BUDGETS = {
    "fock_decay_experiment": (4512, 16, 231, 12),
    "z_fidelity_sweep": (4512, 13, 317, 11),
    "qpt_experiment": (4512, 13, 76, 11),
}


@pytest.fixture
def work(monkeypatch):
    """A Counter of the work done while the test runs; propagate is counted
    in lindblad and in protocol, which imports it by name."""
    counts = collections.Counter()
    table = lindblad.LiouvilleTable
    apply, init = table.apply, table.__init__
    block_expm, propagate = lindblad._block_expm, lindblad.propagate

    def counted_apply(self, *args, **kw):
        counts["apply"] += 1
        return apply(self, *args, **kw)

    def counted_init(self, *args, **kw):
        counts["tables"] += 1
        init(self, *args, **kw)

    def counted_expm(gen):
        counts["expm"] += len(gen)
        return block_expm(gen)

    def counted_propagate(*args):
        counts["propagate"] += 1
        return propagate(*args)

    monkeypatch.setattr(table, "apply", counted_apply)
    monkeypatch.setattr(table, "__init__", counted_init)
    monkeypatch.setattr(lindblad, "_block_expm", counted_expm)
    for module in (lindblad, protocol):
        monkeypatch.setattr(module, "propagate", counted_propagate)
    return counts


@pytest.mark.parametrize("experiment", BUDGETS)
def test_experiment_stays_within_its_work_budget(work, experiment):
    getattr(protocol, experiment)(DeviceParams(), options=ProtocolOptions())
    done = tuple(work[key] for key in ("apply", "tables", "expm", "propagate"))
    assert all(n > 0 for n in done), done
    assert all(n <= bound for n, bound in zip(done, BUDGETS[experiment])), (
        f"{experiment} did (applies, tables, expm matrices, propagate calls) "
        f"= {done}, over its budget {BUDGETS[experiment]}")
