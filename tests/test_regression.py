"""Headline numbers of the default device, pinned.

The values were computed when idle windows were integrated by RK4 at a
2 ns step.  Idle windows now propagate exactly, and the numbers must not
move beyond the error of that old step: 1e-6 absolute on p_g and F_Z, 1e-6
relative on the fitted T1_s.  (RK4 at 2 ns misplaces p_g at 3 us by about
4e-8, so a tolerance near 1e-10 would pin the old integrator's error.)
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


def test_ground_population_at_zero_delay():
    p_g = protocol.run_memory_protocol(DeviceParams(), 0.0, 0.0, ProtocolOptions())
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
