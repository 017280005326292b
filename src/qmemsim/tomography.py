"""Single-qubit state and process tomography of the memory channel.

Conventions: the computational basis is (|g>, |e>) with <Z> = +1 for |g>.
The chi matrix is expressed in the Pauli basis (I, X, Y, Z):

    E(rho) = sum_mn chi[m, n] P_m rho P_n.

Process fidelity against the ideal (identity) channel is the II element of
chi.  The memory protocol imparts a deterministic frame phase, so the
fidelity is also reported after optimizing a single Z rotation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

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


@dataclass
class ChiMatrix:
    """Process matrix in the Pauli basis."""

    entries: np.ndarray

    HERM_TOL = 1e-10
    TRACE_TOL = 1e-8
    EIG_TOL = -1e-9

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (4, 4):
            raise DimensionError("chi matrix must be 4x4")

    def validate(self):
        if np.max(np.abs(self.entries - self.entries.conj().T)) > self.HERM_TOL:
            raise DimensionError("chi is not Hermitian within tolerance")
        if abs(np.trace(self.entries) - 1.0) > self.TRACE_TOL:
            raise DimensionError("chi trace is not 1 within tolerance")
        if np.min(np.linalg.eigvalsh(self.entries)) < self.EIG_TOL:
            raise DimensionError("chi has a negative eigenvalue beyond tolerance")
        return self


def _physicality_projection(chi):
    """Hermitize, clip negative eigenvalues and renormalize the trace."""
    chi = 0.5 * (chi + chi.conj().T)
    w, v = np.linalg.eigh(chi)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0:
        raise ParameterError("chi projection failed: all eigenvalues clipped")
    chi = (v * w) @ v.conj().T
    return chi / np.trace(chi)


def process_tomography(outputs):
    """Linear-inversion chi matrix of a channel from its outputs on the 4
    inputs.

    outputs[k] is the (possibly trace-deficient) 2x2 output of
    INPUT_STATES[k].  The 16 linear equations sum_mn chi_mn P_m rho_k P_n =
    E(rho_k) are solved directly (Chuang & Nielsen, J. Mod. Opt. 44, 2455
    (1997)), then the result is projected onto the physical (Hermitian,
    positive, unit-trace) cone.  Deterministic.
    """
    # row (k, i, j), column (m, n): (P_m rho_k P_n)[i, j]
    a_mat = np.einsum("mab,kbc,ncd->kadmn", PAULIS, INPUT_STATES,
                      PAULIS).reshape(16, 16)
    b_vec = np.asarray(outputs, dtype=complex).reshape(16)
    try:
        chi_vec = np.linalg.solve(a_mat, b_vec)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"chi reconstruction is singular: {exc}") from exc
    return ChiMatrix(_physicality_projection(chi_vec.reshape(4, 4)))


def process_fidelity(chi: ChiMatrix):
    """F = trace(chi @ chi_ideal) for the ideal identity channel: the II
    element of chi."""
    return float(np.real(chi.entries[0, 0]))


Z_SCAN_RESOLUTION = 1e-3  # rad


def fidelity_with_z_optimization(chi: ChiMatrix):
    """Best identity-process fidelity over a single Z-rotation of the output.

    For Rz(theta) applied after the channel, the fidelity is a sinusoid in
    theta; it is scanned at Z_SCAN_RESOLUTION and the maximum returned as
    (theta_best, fidelity).  Never smaller than the raw fidelity (theta=0 is
    in the scan).
    """
    thetas = np.arange(0.0, 2.0 * math.pi, Z_SCAN_RESOLUTION)
    # tr(Rz(th) K)/2 components in the Pauli basis: cos(th/2) on I, -i sin on Z
    c = np.cos(0.5 * thetas)
    s = np.sin(0.5 * thetas)
    chi_m = chi.entries
    f = (c**2 * np.real(chi_m[0, 0]) + s**2 * np.real(chi_m[3, 3])
         + 2.0 * c * s * np.imag(chi_m[3, 0]))
    k = int(np.argmax(f))
    return float(thetas[k]), float(f[k])


def chi_export_dict(chi: ChiMatrix):
    """JSON-ready real/imaginary parts plus |chi_ij| rows for CSV plotting."""
    return {
        "basis": ["I", "X", "Y", "Z"],
        "real": np.real(chi.entries).tolist(),
        "imag": np.imag(chi.entries).tolist(),
        "abs": np.abs(chi.entries).tolist(),
    }
