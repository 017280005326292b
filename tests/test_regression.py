"""Headline numbers of the default device, pinned.

The values were computed when idle windows were integrated by RK4 at a
2 ns step.  Idle windows now propagate exactly, and the numbers must not
move beyond the error of that old step: 1e-6 absolute on p_g and F_Z, 1e-6
relative on the fitted T1_s.  (RK4 at 2 ns misplaces p_g at 3 us by about
4e-8, so a tolerance near 1e-10 would pin the old integrator's error.)
The process-tomography numbers, the path through memory_channel and
tomography, were computed with exact idle windows and keep the same 1e-6
absolute tolerance.
"""

import numpy as np
import pytest

from qmemsim import protocol
from qmemsim.device import DeviceParams
from qmemsim.protocol import ProtocolOptions

PG_DELAY_0 = 0.8718085918487671
PG_DELAY_3 = 0.5853658699929732
PG_DELAY_16 = 0.13628753865375082
T1_S = 6.6865439669511115
F_Z_ANCHOR = 0.8907417313616952
F_QPT = 0.8377641747174885
F_QPT_RAW = 0.02616519079730076
# |chi| in the Pauli basis (I, X, Y, Z), row by row
ABS_CHI = [
    0.02616519079730076, 1.4593422980264882e-05, 5.123337293605421e-05,
    0.027559767677777368,
    1.459342298026488e-05, 0.06848738175578087, 0.004683108852409733,
    5.148186364646875e-05,
    5.1233372936054206e-05, 0.00468310885240973, 0.06849055233764521,
    7.01363924088666e-06,
    0.02755976767777737, 5.148186364646875e-05, 7.01363924088666e-06,
    0.8368568751092732,
]


def test_ground_population_at_zero_delay(default_cal):
    p_g = protocol.run_memory_protocol(DeviceParams(), 0.0, 0.0,
                                       ProtocolOptions(), default_cal)
    assert p_g == pytest.approx(PG_DELAY_0, rel=0, abs=1e-6)


def test_fock_populations_at_3_and_16_us(fock_record):
    assert fock_record.xs[0] == 3.0 and fock_record.xs[-1] == 16.0
    assert fock_record.ys[0] == pytest.approx(PG_DELAY_3, rel=0, abs=1e-6)
    assert fock_record.ys[-1] == pytest.approx(PG_DELAY_16, rel=0, abs=1e-6)
    assert np.all(np.diff(fock_record.ys) < 0)


def test_fitted_fock_lifetime(fock_record):
    assert fock_record.fits["T1_s"].params["T"] == pytest.approx(T1_S, rel=1e-6)


def test_z_fidelity_at_anchor_point(anchor_z_point):
    assert anchor_z_point[1] == pytest.approx(F_Z_ANCHOR, rel=0, abs=1e-6)


def test_process_tomography_at_default_options():
    rec = protocol.qpt_experiment(DeviceParams(), ProtocolOptions())
    out = rec.fits["process_fidelity"]
    assert out["f_qpt"] == pytest.approx(F_QPT, rel=0, abs=1e-6)
    assert out["f_qpt_raw"] == pytest.approx(F_QPT_RAW, rel=0, abs=1e-6)
    assert np.ravel(rec.extra["chi"]["abs"]) == pytest.approx(ABS_CHI, rel=0,
                                                              abs=1e-6)
