import math

import numpy as np
import pytest

from qmemsim import tomography as tg
from qmemsim.errors import DimensionError
from qmemsim.qsys import check_physical


def amplitude_damping_channel(p):
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)

    def channel(rho):
        return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T

    return channel, (k0, k1)


def chi_from_kraus(kraus_ops):
    """Brute-force oracle: chi_mn = sum_k c_km c_kn* with K_k = sum_m c_km
    P_m, c_km = tr(P_m^dag K_k) / 2."""
    chi = np.zeros((4, 4), dtype=complex)
    for k in kraus_ops:
        k = np.asarray(k, dtype=complex)
        c = np.array([np.trace(p.conj().T @ k) / 2.0 for p in tg.PAULIS])
        chi += np.outer(c, c.conj())
    return chi


def outputs(channel):
    """The channel's outputs on the four tomography inputs, in order."""
    return [channel(rho) for rho in tg.INPUT_STATES]


def apply_chi(chi, rho):
    """The channel of a chi matrix on a 2x2 rho: sum_mn chi_mn P_m rho P_n."""
    return sum(chi[m, n] * (tg.PAULIS[m] @ rho @ tg.PAULIS[n])
               for m in range(4) for n in range(4))


def test_state_tomography_cardinal_points():
    rho = tg.state_tomography([0, 0, 1])
    assert np.allclose(rho, np.diag([1.0, 0.0]))

    rho = tg.state_tomography([1, 0, 0])
    plus = np.full((2, 2), 0.5)
    assert np.allclose(rho, plus)


def test_state_tomography_projects_noisy_bloch_vector():
    rho = tg.state_tomography([0, 0, 1.06])
    # projected radially to the Bloch sphere surface
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() >= -1e-12
    target = np.diag([1.0, 0.0])
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - target)))
    assert dist < 0.03


def test_identity_channel_chi():
    chi = tg.process_tomography(tg.INPUT_STATES)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert chi.shape == (4, 4) and chi.dtype == complex
    assert np.max(np.abs(chi - expected)) < 1e-10
    assert tg.process_fidelity(chi) == pytest.approx(1.0, abs=1e-10)
    check_physical(chi, "chi")


def test_depolarizing_channel_chi():
    def depolarize(rho):
        return np.trace(rho) * np.eye(2) / 2.0

    chi = tg.process_tomography(outputs(depolarize))
    assert np.max(np.abs(chi - np.eye(4) / 4.0)) < 1e-10
    assert tg.process_fidelity(chi) == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("p", [0.1, 0.35, 0.8])
def test_amplitude_damping_matches_kraus_oracle(p):
    channel, kraus = amplitude_damping_channel(p)
    chi = tg.process_tomography(outputs(channel))
    oracle = chi_from_kraus(kraus)
    assert np.max(np.abs(chi - oracle)) < 1e-8


def test_chi_matches_the_elementwise_system_bit_for_bit():
    # the system of the 16 equations, row (k, i, j) and column (m, n),
    # filled entry by entry: its entries are exact, so chi is the same to
    # the bit
    channel, _ = amplitude_damping_channel(0.35)
    outs = outputs(channel)
    a_mat = np.zeros((16, 16), dtype=complex)
    b_vec = np.zeros(16, dtype=complex)
    row = 0
    for rho, out in zip(tg.INPUT_STATES, outs):
        for i in range(2):
            for j in range(2):
                for m in range(4):
                    for n in range(4):
                        a_mat[row, 4 * m + n] = \
                            (tg.PAULIS[m] @ rho @ tg.PAULIS[n])[i, j]
                b_vec[row] = out[i, j]
                row += 1
    chi = tg._physicality_projection(
        np.linalg.solve(a_mat, b_vec).reshape(4, 4))
    assert np.array_equal(tg.process_tomography(outs), chi)


def test_chi_system_is_well_conditioned():
    # the inputs span the 2x2 operators, so the system is never singular
    # and process_tomography solves it with no handler
    assert np.linalg.cond(tg._CHI_SYSTEM) < 4.0


def test_unitary_channel_is_rank_one():
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=complex)
    chi = tg.process_tomography(outputs(lambda rho: u @ rho @ u.conj().T))
    evals = np.linalg.eigvalsh(chi)
    assert evals[-1] == pytest.approx(1.0, abs=1e-10)
    assert evals[-2] < 1e-8


def test_composition_with_identity():
    channel, _ = amplitude_damping_channel(0.3)
    chi_direct = tg.process_tomography(outputs(channel))
    chi_composed = tg.process_tomography(
        outputs(lambda rho: channel(1.0 * rho)))
    assert np.max(np.abs(chi_direct - chi_composed)) < 1e-10


def test_process_fidelity_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi_raw = m @ m.conj().T
        chi = chi_raw / np.trace(chi_raw)
        f = tg.process_fidelity(chi)
        assert f <= 1.0 + 1e-9
    # equality for the identity channel
    ident = tg.process_tomography(tg.INPUT_STATES)
    assert tg.process_fidelity(ident) == pytest.approx(1.0, abs=1e-9)


def test_z_rotation_never_decreases_fidelity():
    channel, _ = amplitude_damping_channel(0.25)
    rz = np.diag([np.exp(-0.4j), np.exp(0.4j)])
    chi = tg.process_tomography(
        outputs(lambda rho: rz @ channel(rho) @ rz.conj().T))
    raw = tg.process_fidelity(chi)
    _, best = tg.fidelity_with_z_optimization(chi)
    assert best >= raw - 1e-12
    # the optimization should recover the rotation-free fidelity
    chi_plain = tg.process_tomography(outputs(channel))
    assert best == pytest.approx(tg.process_fidelity(chi_plain), abs=1e-4)


def test_apply_z_rotation_matches_scan():
    channel, _ = amplitude_damping_channel(0.25)
    rz = np.diag([np.exp(-0.4j), np.exp(0.4j)])
    chi = tg.process_tomography(
        outputs(lambda rho: rz @ channel(rho) @ rz.conj().T))
    theta, best = tg.fidelity_with_z_optimization(chi)
    rz_theta = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    rotated = tg.process_tomography(outputs(
        lambda rho: rz_theta @ apply_chi(chi, rho) @ rz_theta.conj().T))
    assert tg.process_fidelity(rotated) == pytest.approx(best, abs=1e-6)


def random_chi(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    chi = m @ m.conj().T
    return chi / np.trace(chi)


def test_closed_form_z_optimum_beats_a_fine_scan():
    # on random physical chi matrices no angle of a 1e-5 rad grid beats the
    # closed-form optimum, and rotating the process by it reaches its value
    rng = np.random.default_rng(11)
    thetas = np.arange(0.0, 2.0 * math.pi, 1e-5)
    c, s = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    for _ in range(8):
        chi = random_chi(rng)
        theta, best = tg.fidelity_with_z_optimization(chi)
        assert 0.0 <= theta <= 2.0 * math.pi
        scan = (c**2 * chi[0, 0].real + s**2 * chi[3, 3].real
                + 2.0 * c * s * chi[3, 0].imag)
        assert scan.max() <= best + 1e-15
        assert best >= tg.process_fidelity(chi)
        rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        rotated = tg.process_tomography(outputs(
            lambda rho: rz @ apply_chi(chi, rho) @ rz.conj().T))
        assert tg.process_fidelity(rotated) == pytest.approx(best, abs=1e-12)


def test_chi_validate_refuses_a_process_that_is_not_physical():
    good = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    check_physical(good, "chi")
    skew = good.copy()
    skew[0, 1] = 0.01
    bad_trace = np.diag([0.7, 0.1, 0.1, 0.2])
    negative = np.diag([0.8, 0.1, 0.1 + 1e-6, -1e-6])
    for entries in (skew, bad_trace, negative):
        with pytest.raises(DimensionError):
            check_physical(entries, "chi")


def test_chi_export_dict_shape():
    chi = tg.process_tomography(tg.INPUT_STATES)
    d = tg.chi_export_dict(chi)
    assert d["basis"] == ["I", "X", "Y", "Z"]
    assert np.asarray(d["abs"]).shape == (4, 4)
