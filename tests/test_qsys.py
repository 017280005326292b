import numpy as np
import pytest

from qmemsim import qsys
from qmemsim.errors import DimensionError
from qmemsim.units import GHZ, MHZ


def test_annihilation_dim2():
    assert np.array_equal(qsys.annihilation(2), [[0, 1], [0, 0]])


def test_annihilation_sqrt_rule():
    a = qsys.annihilation(3)
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert a[0, 1] == 1.0
    assert np.count_nonzero(a) == 2


def test_number_operator_from_ladder():
    a = qsys.annihilation(4)
    assert np.allclose(a.conj().T @ a, np.diag([0, 1, 2, 3]))


def test_annihilation_rejects_scalar_space():
    with pytest.raises(DimensionError):
        qsys.annihilation(1)


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_commutator_on_untruncated_block(dim):
    a = qsys.annihilation(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    # all rows except the top truncated level satisfy [a, a_dag] = 1
    block = comm[: dim - 1, : dim - 1]
    assert np.max(np.abs(block - np.eye(dim - 1))) < 1e-12


def test_transmon_two_level_limit():
    w = 2.0
    h = qsys.transmon_hamiltonian(2, w, -0.3)
    assert np.allclose(h, np.diag([0.0, w]))


def test_transmon_e2_from_sample_values():
    # 2 * 6.234 GHz - 0.185 GHz = 12.283 GHz for the second excited level
    h = qsys.transmon_hamiltonian(3, 6.234 * GHZ, -185.0 * MHZ)
    assert h[2, 2].real / GHZ == pytest.approx(12.283, abs=1e-12)


def test_transmon_harmonic_at_zero_anharmonicity():
    w = 1.7
    h = qsys.transmon_hamiltonian(3, w, 0.0)
    assert np.allclose(h, np.diag([0.0, w, 2 * w]))


def test_dims_invariants():
    dims = qsys.SubsystemDims()
    assert dims.total == 30
    with pytest.raises(DimensionError):
        qsys.SubsystemDims(1, 5, 2)
    with pytest.raises(DimensionError):
        qsys.SubsystemDims(8, 9, 8)  # 576 > default cap


def test_tensor_embed_identity():
    dims = qsys.SubsystemDims(2, 3, 2)
    out = qsys.tensor_embed(np.eye(3), qsys.STORAGE, dims)
    assert np.allclose(out, np.eye(dims.total))


def test_tensor_embed_storage_ladder_by_hand():
    dims = qsys.SubsystemDims(2, 2, 1)
    a_s = qsys.tensor_embed(qsys.annihilation(2), qsys.STORAGE, dims)
    expected = np.zeros((4, 4))
    expected[dims.index(0, 0, 0), dims.index(0, 1, 0)] = 1.0
    expected[dims.index(1, 0, 0), dims.index(1, 1, 0)] = 1.0
    assert np.allclose(a_s, expected)


def test_tensor_embed_slots_commute():
    dims = qsys.SubsystemDims(3, 4, 2)
    a = qsys.tensor_embed(qsys.annihilation(3), qsys.TRANSMON, dims)
    b = qsys.tensor_embed(qsys.annihilation(4), qsys.STORAGE, dims)
    assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_tensor_embed_preserves_hermiticity_and_spectrum():
    dims = qsys.SubsystemDims(2, 3, 2)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = m + m.conj().T
    emb = qsys.tensor_embed(herm, qsys.STORAGE, dims)
    assert np.max(np.abs(emb - emb.conj().T)) < 1e-12
    mult = dims.total // 3
    expected = np.sort(np.repeat(np.linalg.eigvalsh(herm), mult))
    assert np.allclose(np.sort(np.linalg.eigvalsh(emb)), expected)


def test_tensor_embed_dimension_mismatch():
    dims = qsys.SubsystemDims(2, 3, 2)
    with pytest.raises(DimensionError):
        qsys.tensor_embed(np.eye(4), qsys.STORAGE, dims)


def test_state_invariants_enforced():
    dims = qsys.SubsystemDims(2, 2, 1)
    good = qsys.basis_state(dims, 0, 0, 0)
    qsys.check_physical(good, "rho")

    with pytest.raises(DimensionError):
        qsys.check_physical(1.5 * good.copy(), "rho")

    herm = good.copy()
    herm[0, 1] = 0.1
    with pytest.raises(DimensionError):
        qsys.check_physical(herm, "rho")

    neg = good.copy()
    neg[1, 1] = -1e-6
    neg[0, 0] = 1.0 + 1e-6
    with pytest.raises(DimensionError):
        qsys.check_physical(neg, "rho")


def test_expectation_trivial_cases():
    # the transmon number of basis states and of their mixture
    dims = qsys.SubsystemDims(2, 2, 2)
    n_t = qsys.tensor_embed(np.diag([0.0, 1.0]), qsys.TRANSMON, dims)

    ground = qsys.basis_state(dims, 0, 0, 0)
    assert np.trace(ground @ n_t) == pytest.approx(0.0)

    excited = qsys.basis_state(dims, 1, 0, 0)
    assert np.trace(excited @ n_t).real == pytest.approx(1.0)

    mixed = 0.5 * (ground + excited)
    assert np.trace(mixed @ n_t).real == pytest.approx(0.5)


def test_partial_traces():
    dims = qsys.SubsystemDims(2, 3, 2)
    state = qsys.basis_state(dims, 1, 2, 0)
    rho_t = qsys.ptrace(state, dims, qsys.TRANSMON)
    rho_s = qsys.ptrace(state, dims, qsys.STORAGE)
    assert rho_t[1, 1].real == pytest.approx(1.0)
    assert rho_s[2, 2].real == pytest.approx(1.0)
    assert np.trace(rho_t).real == pytest.approx(1.0)

    # a product of three distinct mixed states reduces to each factor, on
    # every slot, the readout's included
    rng = np.random.default_rng(7)
    factors = []
    for n in dims.as_tuple():
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        factors.append(m @ m.conj().T / np.trace(m @ m.conj().T))
    product = np.kron(np.kron(*factors[:2]), factors[2])
    for slot, factor in enumerate(factors):
        assert np.allclose(qsys.ptrace(product, dims, slot), factor,
                           atol=1e-14)
