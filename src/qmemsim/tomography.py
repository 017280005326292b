"""Single-qubit state and process tomography of the memory channel.

Conventions: the computational basis is (|g>, |e>) with <Z> = +1 for |g>.
The chi matrix is expressed in the Pauli basis (I, X, Y, Z):

    E(rho) = sum_mn chi[m, n] P_m rho P_n.

Process fidelity against the ideal (identity) channel is the II element of
chi.  The memory protocol imparts a deterministic frame phase, so the
fidelity is also reported after optimizing a single Z rotation, whose
optimum is closed-form (fidelity_with_z_optimization).

A chi matrix is a plain (4, 4) complex ndarray, which qsys.check_physical
checks; the system process_tomography inverts is built once, at import.
"""

import math

import numpy as np

from .errors import FitError

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)

# standard four-state tomography input set
INPUT_STATES = tuple(np.outer(k, k.conj())
                     for k in (KET_G, KET_E, KET_PLUS, KET_PLUS_I))

# row (k, i, j), column (m, n): (P_m rho_k P_n)[i, j]; condition number 3.2
_CHI_SYSTEM = np.einsum("mab,kbc,ncd->kadmn", PAULIS, INPUT_STATES,
                        PAULIS).reshape(16, 16)


def state_tomography(bloch):
    """Reconstruct rho = (I + xX + yY + zZ)/2 from the Bloch vector
    (x, y, z) of measured Pauli expectations.  Bloch vectors outside the
    unit ball (measurement noise) are radially projected back onto the
    sphere.
    """
    r = np.asarray(bloch, dtype=float)
    norm = np.linalg.norm(r)
    if norm > 1.0:
        r = r / norm
    return 0.5 * (I2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)


def _physicality_projection(chi):
    """Hermitize, clip negative eigenvalues and renormalize the trace."""
    chi = 0.5 * (chi + chi.conj().T)
    w, v = np.linalg.eigh(chi)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0:
        raise FitError("chi projection failed: all eigenvalues clipped")
    chi = (v * w) @ v.conj().T
    return chi / np.trace(chi)


def process_tomography(outputs):
    """Linear-inversion chi matrix of a channel from its outputs on the 4
    inputs.

    outputs[k] is the (possibly trace-deficient) 2x2 output of
    INPUT_STATES[k].  The 16 linear equations sum_mn chi_mn P_m rho_k P_n =
    E(rho_k) are solved directly (Chuang & Nielsen, J. Mod. Opt. 44, 2455
    (1997)), then the result is projected onto the physical (Hermitian,
    positive, unit-trace) cone, a (4, 4) complex ndarray.  Deterministic.
    """
    chi = np.linalg.solve(_CHI_SYSTEM,
                          np.asarray(outputs, dtype=complex).reshape(16))
    return _physicality_projection(chi.reshape(4, 4))


def process_fidelity(chi):
    """F = trace(chi @ chi_ideal) for the ideal identity channel: the II
    element of chi."""
    return float(np.real(chi[0, 0]))


def fidelity_with_z_optimization(chi):
    """Best identity-process fidelity over a single Z-rotation of the output,
    as (theta_best, fidelity).

    For Rz(theta) applied after the channel the fidelity is the sinusoid
    (c00 + c33)/2 + (c00 - c33)/2 cos(theta) + c30 sin(theta), with
    c00 = Re chi_II, c33 = Re chi_ZZ and c30 = Im chi_ZI, whose maximum is
    closed-form.  Never smaller than the raw fidelity c00.
    """
    c00, c33 = float(chi[0, 0].real), float(chi[3, 3].real)
    c30 = float(chi[3, 0].imag)
    theta = math.atan2(c30, 0.5 * (c00 - c33)) % (2.0 * math.pi)
    return theta, 0.5 * (c00 + c33) + math.hypot(0.5 * (c00 - c33), c30)


def chi_export_dict(chi):
    """JSON-ready real/imaginary parts plus |chi_ij| rows for CSV plotting."""
    return {
        "basis": ["I", "X", "Y", "Z"],
        "real": np.real(chi).tolist(),
        "imag": np.imag(chi).tolist(),
        "abs": np.abs(chi).tolist(),
    }
