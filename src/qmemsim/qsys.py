"""Hilbert-space plumbing for the composite transmon/storage/readout system.

Tensor order is fixed everywhere as transmon (x) storage (x) readout.  All
operators are dense complex numpy arrays, and a state is a plain (d, d)
complex density matrix; check_physical asserts its invariants and ptrace
reduces it to one subsystem.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# subsystem slots, in the fixed tensor order
TRANSMON, STORAGE, READOUT = 0, 1, 2

DIM_CAP = 512


@dataclass(frozen=True)
class SubsystemDims:
    """Truncation of the three ladders.

    Defaults: three transmon levels (the third is needed to see leakage),
    five storage photons and two readout photons.  The protocol occupies at
    most one photon, so the headroom exposes leakage and truncation error.
    """

    n_transmon: int = 3
    n_storage: int = 5
    n_readout: int = 2

    def __post_init__(self):
        if self.n_transmon < 2 or self.n_storage < 2 or self.n_readout < 1:
            raise DimensionError(
                "need >= 2 transmon levels, >= 2 storage photons, "
                f">= 1 readout photon, got {self.as_tuple()}"
            )
        if not 4 <= self.total <= DIM_CAP:
            raise DimensionError(
                f"total dimension {self.total} outside [4, {DIM_CAP}]")

    @property
    def total(self):
        return self.n_transmon * self.n_storage * self.n_readout

    def as_tuple(self):
        return (self.n_transmon, self.n_storage, self.n_readout)

    def dim_of(self, slot):
        return self.as_tuple()[slot]

    def index(self, nt, ns, nr):
        """Flat basis index of the product state |nt, ns, nr>."""
        if not (0 <= nt < self.n_transmon and 0 <= ns < self.n_storage
                and 0 <= nr < self.n_readout):
            raise DimensionError(f"state ({nt},{ns},{nr}) outside {self.as_tuple()}")
        return (nt * self.n_storage + ns) * self.n_readout + nr

    def labels(self):
        """Arrays (n_t, n_s, n_r) giving the quantum numbers of each flat index."""
        grid = np.indices(self.as_tuple()).reshape(3, -1)
        return grid[0], grid[1], grid[2]


def annihilation(dim):
    """Bosonic annihilation operator: entry (n-1, n) = sqrt(n)."""
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def creation(dim):
    return annihilation(dim).conj().T


def number_op(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def identity(dim):
    return np.eye(dim, dtype=complex)


def transmon_hamiltonian(levels, omega_q, alpha):
    """Duffing ladder: E_n = n*omega_q + n(n-1)/2 * alpha, E_0 = 0.

    Frequencies are angular (rad/us); alpha is negative for a transmon.
    """
    if levels < 2:
        raise DimensionError(f"transmon needs >= 2 levels, got {levels}")
    n = np.arange(levels, dtype=float)
    return np.diag(n * omega_q + 0.5 * n * (n - 1) * alpha).astype(complex)


def tensor_embed(op, slot, dims):
    """Kronecker-embed a single-subsystem operator, identities elsewhere."""
    op = np.asarray(op, dtype=complex)
    d = dims.dim_of(slot)
    if op.shape != (d, d):
        raise DimensionError(
            f"operator shape {op.shape} does not match slot {slot} (dim {d})"
        )
    f0, f1, f2 = (identity(dims.dim_of(s)) if s != slot else op
                  for s in range(3))
    # kron(kron(f0, f1), f2), element for element, as one broadcast product
    out = (f0[:, None, None, :, None, None] * f1[None, :, None, None, :, None]
           * f2[None, None, :, None, None, :])
    return out.reshape(dims.total, dims.total)


def check_physical(m, name):
    """Raise DimensionError, naming m as name, unless m is a density
    matrix: trace 1 within 1e-8, Hermitian within 1e-10, and no eigenvalue
    of its Hermitian part below -1e-9."""
    tr = np.trace(m)
    if abs(tr - 1.0) > 1e-8:
        raise DimensionError(f"trace({name}) = {tr}, not 1 within 1e-8")
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise DimensionError(f"{name} is not Hermitian within 1e-10")
    if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -1e-9:
        raise DimensionError(f"{name} has an eigenvalue below -1e-9")


def ptrace(rho, dims, slot):
    """Reduced density matrix of subsystem slot: trace out the other two."""
    t = dims.as_tuple()
    subscripts = ("iabjab->ij", "aibajb->ij", "abiabj->ij")[slot]
    return np.einsum(subscripts, rho.reshape(t + t))


def basis_state(dims, nt=0, ns=0, nr=0):
    """Pure product basis state |nt, ns, nr><...| as a density matrix."""
    rho = np.zeros((dims.total, dims.total), dtype=complex)
    rho[dims.index(nt, ns, nr), dims.index(nt, ns, nr)] = 1.0
    return rho

