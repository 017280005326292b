import dataclasses
import math

import numpy as np
import pytest

from qmemsim import analysis, lindblad, qsys
from qmemsim.device import DeviceParams, dispersive_shift_estimate
from qmemsim.errors import IntegrationError, ParameterError, StepSizeError
from qmemsim.lindblad import (StaticPropagator, build_model,
                              effective_bsb_check, evolve)
from qmemsim.pulses import PulseSegment, PulseSequence, QUBIT_CHANNEL
from qmemsim.qsys import SubsystemDims
from qmemsim.units import GHZ, MHZ, TWO_PI


def decoupled_params(**kw):
    return DeviceParams(g=1e-12, p_e=0.0, **kw)


# small, slow instance on which lab-frame evolution is integrable
SLOW_PARAMS = DeviceParams(omega_ro=0.021, omega_s=0.034, omega_q=0.027,
                           alpha=-3.0, g=0.4, chi_ro=0.1, chi_s=0.1,
                           kappa_ro=0.05, kappa_s=0.02, t1_q=40.0, t2_q=60.0,
                           p_e=0.0)


def random_density_matrix(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_build_model_channel_set():
    p = DeviceParams()
    m = build_model(p, SubsystemDims(), None)
    names = {c.name: c.rate for c in m.channels}
    a = p.angular()
    assert names["storage-decay"] == pytest.approx(a.k_s)
    assert names["readout-decay"] == pytest.approx(a.k_ro)
    assert names["qubit-decay"] == pytest.approx(1.0 / a.t1_q)
    assert names["qubit-thermal"] == pytest.approx(a.p_e / a.t1_q)
    assert "qubit-dephasing" in names
    assert qsys.is_hermitian(m.drift, 1e-9)


def test_drift_generator_preserves_trace():
    p = DeviceParams()
    m = build_model(p, SubsystemDims(), None)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    traj = evolve(m, rho, (0.0, 0.05), 1e-3)
    assert abs(np.trace(traj.final_state.rho) - 1.0) < 1e-10


def test_decoupled_excited_state_decays_at_t1():
    p = decoupled_params()
    m = build_model(p, SubsystemDims(), None)
    rho0 = m.basis_state(1, 0, 0)
    obs = {"pe": m.label_projector(nt=1)}
    traj = evolve(m, rho0, (0.0, 3.0), 1e-3, observables=obs, sample_dt=0.1)
    expected = np.exp(-traj.times / p.t1_q)
    assert np.max(np.abs(traj.real("pe") - expected) / expected) < 1e-3


def test_drift_dispersive_shift_consistent_with_estimator():
    p = DeviceParams()
    dims = SubsystemDims()
    shift = lindblad.storage_shift_from_drift(p, dims)
    a = p.angular()
    est = 2.0 * dispersive_shift_estimate(a.g, a.w_q - a.w_s, a.alpha)
    assert abs(shift - est) / abs(est) < 0.15


def test_thermal_steady_state():
    p = DeviceParams(t2_q=2.0 * 1.32)  # no extra dephasing channel
    m = build_model(p, SubsystemDims(2, 2, 1), None)
    keep = {"qubit-decay", "qubit-thermal"}
    m.channels = [c for c in m.channels if c.name in keep]
    rho0 = m.basis_state(0, 0, 0)
    traj = evolve(m, rho0, (0.0, 12.0), 2e-3,
                  observables={"pe": m.label_projector(nt=1)}, sample_dt=1.0)
    p_inf = traj.real("pe")[-1]
    assert abs(p_inf - p.p_e) / p.p_e < 0.05


def test_analytic_decay_of_fock_state():
    p = decoupled_params()
    m = build_model(p, SubsystemDims(), None)
    m.channels = [c for c in m.channels if c.name == "storage-decay"]
    k_s = p.angular().k_s
    rho0 = m.basis_state(0, 1, 0)
    span = 5.0 / k_s
    traj = evolve(m, rho0, (0.0, span), 2e-3,
                  observables={"n": m.number_op(1)}, sample_dt=span / 50)
    assert np.max(np.abs(traj.real("n") - np.exp(-k_s * traj.times))) < 1e-4


def test_resonant_rabi_analytic():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)
    amp = TWO_PI * 20.0
    seg = PulseSegment(QUBIT_CHANNEL, amp, p.angular().w_q, plateau=0.12,
                       rise=1e-4, start=0.0)
    m = build_model(p, dims, PulseSequence((seg,)), noiseless=True)
    traj = evolve(m, m.basis_state(0, 0, 0), (0.0, 0.1), 5e-6,
                  observables={"pe": m.label_projector(nt=1)}, sample_dt=1e-3)
    # the short ramp advances the rotation by its pulse area; folding it into
    # the time origin leaves the square-pulse law sin^2(Omega t / 2)
    t0_eff = seg.ramp - 0.5 * (seg.equivalent_width() - seg.plateau)
    mask = traj.times > seg.ramp
    expected = np.sin(0.5 * amp * (traj.times[mask] - t0_eff)) ** 2
    assert np.max(np.abs(traj.real("pe")[mask] - expected)) < 1e-4


def test_ramsey_t2_closed_form():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)
    m = build_model(p, dims, None)
    i_g, i_e = dims.index(0, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[i_g, i_g] = rho[i_e, i_e] = 0.5
    rho[i_g, i_e] = rho[i_e, i_g] = 0.5
    coh_op = np.zeros((4, 4), dtype=complex)
    coh_op[i_g, i_e] = 1.0
    traj = evolve(m, rho, (0.0, 5.0), 2e-3,
                  observables={"coh": coh_op}, sample_dt=0.1)
    fit = analysis.fit_exponential(traj.times, 2.0 * np.abs(traj.expectations["coh"]))
    t2 = 1.0 / (0.5 / p.t1_q + 1.0 / 43.8197)
    assert fit.params["T"] == pytest.approx(t2, rel=0.02)


def test_step_size_error_reports_required_dt():
    p = DeviceParams()
    m = build_model(p, SubsystemDims(2, 2, 1), None, frame="bare")
    with pytest.raises(StepSizeError) as err:
        evolve(m, m.basis_state(0, 0, 0), (0.0, 0.01), 1e-3)
    assert "require dt" in str(err.value)


def test_trace_divergence_detected():
    p = decoupled_params(kappa_ro=1e4)  # kappa dt >> 1 destabilizes RK4
    m = build_model(p, SubsystemDims(2, 2, 2), None, frame="lab")
    rho0 = m.basis_state(0, 0, 1)
    with pytest.raises(IntegrationError):
        evolve(m, rho0, (0.0, 2.0), 1e-3, sample_dt=0.05)


def test_purity_and_positivity_along_trajectory():
    p = DeviceParams()
    m = build_model(p, SubsystemDims(), None)
    rho0 = m.basis_state(1, 1, 0)
    traj = evolve(m, rho0, (0.0, 2.0), 1e-3, store_states=True, sample_dt=0.1)
    for state in traj.states:
        assert state.purity() <= 1.0 + 1e-9
        assert np.min(np.linalg.eigvalsh(state.rho)) >= -1e-9


def test_purity_monotone_for_dephasing():
    p = DeviceParams()
    dims = SubsystemDims(2, 2, 1)
    m = build_model(p, dims, None)
    m.channels = [c for c in m.channels if c.name == "qubit-dephasing"]
    i_g, i_e = dims.index(0, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[i_g, i_g] = rho[i_e, i_e] = 0.5
    rho[i_g, i_e] = rho[i_e, i_g] = 0.5
    traj = evolve(m, rho, (0.0, 20.0), 5e-3, store_states=True, sample_dt=1.0)
    purities = np.array([s.purity() for s in traj.states])
    assert np.all(np.diff(purities) <= 1e-12)


def test_step_halving_fourth_order():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)

    def max_err(dt):
        m = build_model(p, dims, None)
        m.channels = [c for c in m.channels if c.name == "qubit-decay"]
        # rescale to kappa*dt ~ 0.3 so the truncation error is visible
        m.channels = [lindblad.CollapseChannel(m.channels[0].op, 1.5, "decay")]
        traj = evolve(m, m.basis_state(1, 0, 0), (0.0, 2.0), dt,
                      observables={"pe": m.label_projector(nt=1)},
                      sample_dt=0.25)
        return np.max(np.abs(traj.real("pe") - np.exp(-1.5 * traj.times)))

    ratio = max_err(0.2) / max_err(0.1)
    assert 12.0 <= ratio <= 20.0


def test_frame_invariance_small_system():
    # both the bare rotating frame and the lab frame are integrable on the
    # slow instance: eigenstate populations must agree
    p = SLOW_PARAMS
    dims = SubsystemDims(2, 2, 2)
    t_end = 0.8

    rho0 = None
    pops = {}
    for frame in ("bare", "lab"):
        m = build_model(p, dims, None, frame=frame)
        if rho0 is None:
            v = np.zeros(dims.total, dtype=complex)
            v[dims.index(0, 0, 0)] = 1.0
            v[dims.index(1, 1, 0)] = 1.0
            v[dims.index(0, 0, 1)] = 0.5
            rho0 = qsys.pure_state(dims, v)
        traj = evolve(m, rho0, (0.0, t_end), 2e-5)
        lab_state = m.to_lab_frame(traj.final_state, t_end)
        h0 = build_model(p, dims, None, frame="lab").drift
        _, vecs = np.linalg.eigh(h0)
        pops[frame] = np.real(np.diag(vecs.conj().T @ lab_state.rho @ vecs))

    assert np.max(np.abs(pops["bare"] - pops["lab"])) < 1e-6


def test_effective_bsb_ratio_and_quadratic_scaling():
    p = DeviceParams()
    chk = effective_bsb_check(p, TWO_PI * 2.0e3)
    assert 0.8 <= chk.ratio <= 1.25
    assert chk.contrast >= 0.2
    chk2 = effective_bsb_check(p, TWO_PI * 4.0e3)
    assert chk2.measured_rate / chk.measured_rate == pytest.approx(4.0, rel=0.02)


def test_effective_bsb_requires_dispersive_regime():
    p = DeviceParams(g=900.0)
    with pytest.raises(ParameterError):
        effective_bsb_check(p, TWO_PI * 2.0e3)


def test_trajectory_csv_export(tmp_path):
    p = decoupled_params()
    m = build_model(p, SubsystemDims(2, 2, 1), None)
    traj = evolve(m, m.basis_state(1, 0, 0), (0.0, 0.5), 1e-3,
                  observables={"pe": m.label_projector(nt=1)}, sample_dt=0.1)
    path = tmp_path / "traj.csv"
    lindblad.export_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_us,observable_name,value"
    assert len(lines) == 1 + len(traj.times)
    assert lines[1].split(",")[1] == "pe"


# ---------------------------------------------------------------------------
# exact propagation of static windows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_static():
    return StaticPropagator(build_model(DeviceParams(), SubsystemDims(), None))


def test_static_blocks_partition_liouville_space(default_static):
    blocks = [idx for idx, _ in default_static.blocks]
    elements = np.concatenate([idx.ravel() for idx in blocks])
    assert np.array_equal(np.sort(elements), np.arange(30 * 30))
    # dispersive frame: one block per label difference of (i, j)
    assert sum(idx.shape[0] for idx in blocks) == 135
    assert max(idx.shape[1] for idx in blocks) == 30


def test_static_propagation_conserves_trace_over_16_us(default_static):
    rho = random_density_matrix(30, 0)
    out = default_static.propagate(rho, (0.0, 16.0))[-1].rho
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_static_propagator_is_a_semigroup(default_static):
    rho = random_density_matrix(30, 1)
    mid = default_static.propagate(rho, (0.0, 0.7))[-1]
    split = default_static.propagate(mid, (0.7, 16.0))[-1].rho
    whole = default_static.propagate(rho, (0.0, 16.0))[-1].rho
    assert np.max(np.abs(split - whole)) < 1e-12


def test_static_propagation_keeps_positivity(default_static):
    states = default_static.propagate(random_density_matrix(30, 2),
                                      (0.0, 16.0), steps=8)
    assert len(states) == 9
    for state in states:
        assert np.min(np.linalg.eigvalsh(state.rho)) >= -1e-12


def test_static_propagation_matches_fine_rk4():
    # three transmon levels keep the fast |f> coherences (~1.2e3 rad/us)
    m = build_model(DeviceParams(), SubsystemDims(3, 2, 1), None)
    rho = random_density_matrix(6, 3)
    exact = StaticPropagator(m).propagate(rho, (0.0, 0.2))[-1].rho
    rk4 = evolve(m, rho, (0.0, 0.2), 5e-6).final_state.rho
    assert np.max(np.abs(exact - rk4)) < 1e-9


def test_static_propagation_dense_lab_drift_is_one_block():
    dims = SubsystemDims(2, 2, 1)
    m = build_model(SLOW_PARAMS, dims, None, frame="lab")
    x = np.random.default_rng(4).normal(size=(4, 4))
    m = dataclasses.replace(m, drift=m.drift + 10.0 * (x + x.T))
    static = StaticPropagator(m)
    assert [idx.shape for idx, _ in static.blocks] == [(1, 16)]
    rho = random_density_matrix(4, 5)
    exact = static.propagate(rho, (0.0, 0.2))[-1].rho
    rk4 = evolve(m, rho, (0.0, 0.2), 1e-5).final_state.rho
    assert np.max(np.abs(exact - rk4)) < 1e-9


def test_static_propagation_refuses_active_terms():
    p = DeviceParams()
    drive = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                         plateau=0.05, start=0.0)
    silent = PulseSegment(QUBIT_CHANNEL, 0.0, p.angular().w_q, plateau=0.05,
                          start=drive.end)
    m = build_model(p, SubsystemDims(2, 2, 1), PulseSequence((drive, silent)))
    static = StaticPropagator(m)
    with pytest.raises(ParameterError):
        static.propagate(m.basis_state(), (0.0, 0.01))
    # a zero-amplitude segment contributes no term: its window is static
    out = static.propagate(m.basis_state(), (silent.start, silent.end))[-1]
    assert np.real(np.trace(out.rho)) == pytest.approx(1.0, abs=1e-12)
