"""Session fixtures shared by the test modules, so each default-device
experiment, and the default device's calibration, runs once per session."""

import pytest

from qmemsim import protocol
from qmemsim.device import DeviceParams
from qmemsim.protocol import ProtocolOptions, WorkingPoint
from qmemsim.units import TWO_PI


@pytest.fixture(scope="session")
def default_cal():
    """The default device's qubit and sideband pi pulses at the default
    options (ProtocolCalibration), for the cal= of the functions that take
    one; the calibration depends on neither dt_pulse nor noiseless."""
    return protocol.get_calibration(DeviceParams(), ProtocolOptions())


@pytest.fixture(scope="session")
def fock_record():
    """Fock decay at the default delays, device and options."""
    return protocol.fock_decay_experiment(DeviceParams(), options=ProtocolOptions())


@pytest.fixture(scope="session")
def anchor_z_point():
    """(t_p, F_Z, F_Z_corr) at the 6 GHz sideband drive, the working point
    whose protocol length sits near the 0.37 us anchor."""
    rec = protocol.z_fidelity_sweep(DeviceParams(), [WorkingPoint(TWO_PI * 6.0e3)],
                                    ProtocolOptions())
    return rec.xs[0], rec.ys[0], rec.columns["f_z_corr"][0]
