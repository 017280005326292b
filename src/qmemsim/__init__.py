"""Pulse-level simulator for a transmon coupled to the readout and storage
modes of a single 3D cavity, with a two-photon blue-sideband memory protocol.

Subpackages
-----------
qsys        operators, states and tensor algebra for the three-part system
device      device parameters and closed-form derived quantities
pulses      flat-top Gaussian envelopes, protocol sequences, pi calibration
lindblad    rotating-frame model construction and master-equation integration
protocol    end-to-end memory experiments (decay, Ramsey, ringdown, Z fidelity)
analysis    deterministic curve fitting
tomography  single-qubit state/process tomography and process fidelity
config      unit-suffixed configuration files
cli         command-line entry point

Unit conventions (used everywhere inside the package): angular frequencies in
rad/us, times in us.  All configuration inputs are linear frequencies
(GHz/MHz/kHz) and are converted once at the boundary.
"""

import os

# before numpy loads: a second BLAS thread only spins on these small products
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import qsys, device, pulses, lindblad, protocol, analysis, tomography

__all__ = [
    "qsys",
    "device",
    "pulses",
    "lindblad",
    "protocol",
    "analysis",
    "tomography",
    "__version__",
]
