import math

import numpy as np
import pytest

from qmemsim import pulses, qsys
from qmemsim.device import DeviceParams, bsb_effective_rate
from qmemsim.errors import (CalibrationError, IntegrationError, ParameterError,
                            StepSizeError)
from qmemsim.lindblad import (build_model, dressed_frequencies, evolve_kets,
                              two_photon_resonance)
from qmemsim.protocol import ProtocolOptions, simulate_sequence
from qmemsim.pulses import (PulseSegment, PulseSequence, ProtocolCalibration,
                            QUBIT_CHANNEL, build_memory_sequence,
                            calibrate_pi_pulse)
from qmemsim.qsys import SubsystemDims
from qmemsim.units import TWO_PI


def seg(amplitude=10.0, plateau=0.1, rise=0.02, start=0.0, **kw):
    return PulseSegment(QUBIT_CHANNEL, amplitude, 100.0, plateau=plateau,
                        rise=rise, start=start, **kw)


def test_envelope_plateau_is_exact():
    s = seg()
    ts = np.linspace(s.start + s.ramp, s.start + s.ramp + s.plateau, 11)
    assert np.allclose(s.envelope_at(ts), s.amplitude)


def test_envelope_zero_well_before_start():
    s = seg()
    # with the truncated ramp the envelope vanishes identically outside,
    # far below the 4e-6 Gaussian-tail bound at 5 sigma before the rise
    assert s.envelope_at(s.start - 5 * s.sigma) < 4e-6 * s.amplitude
    assert s.envelope_at(s.start - 1e-9) == 0.0
    assert s.envelope_at(s.end + 1e-9) == 0.0


def test_envelope_bounded_and_peaks_at_joins():
    s = seg()
    ts = np.linspace(s.start - 0.05, s.end + 0.05, 20001)
    env = s.envelope_at(ts)
    assert np.all(env <= s.amplitude + 1e-12)
    assert s.envelope_at(s.start + s.ramp) == pytest.approx(s.amplitude)
    assert s.envelope_at(s.end - s.ramp) == pytest.approx(s.amplitude)


def test_envelope_continuity():
    s = seg()
    probes = [s.start, s.start + s.ramp, s.end - s.ramp, s.end,
              s.start + 0.5 * s.ramp]
    d = 1e-6
    for t in probes:
        jump = abs(s.envelope_at(t + d) - s.envelope_at(t - d))
        assert jump < 1e-3 * s.amplitude


def test_area_additive_in_plateau():
    s1, s2 = seg(plateau=0.1), seg(plateau=0.1 + 0.037)
    assert s2.area() - s1.area() == pytest.approx(s1.amplitude * 0.037, rel=1e-12)


def test_area_against_quadrature():
    s = seg(amplitude=7.0, plateau=0.08, rise=0.02)
    ts = np.linspace(s.start, s.end, 400001)
    env = s.envelope_at(ts)
    area_num = np.trapezoid(env, ts)
    sq_num = np.trapezoid(env**2, ts)
    assert s.area() == pytest.approx(area_num, rel=1e-8)
    assert s.squared_area() == pytest.approx(sq_num, rel=1e-8)


def test_segment_validation():
    with pytest.raises(ParameterError):
        PulseSegment(QUBIT_CHANNEL, -1.0, 100.0)
    with pytest.raises(ParameterError):
        PulseSegment(QUBIT_CHANNEL, 1.0, 100.0, rise=0.0)
    with pytest.raises(ParameterError):
        PulseSegment("nonsense", 1.0, 100.0)


def test_sequence_rejects_overlap():
    a = seg(start=0.0, plateau=0.1)
    b = seg(start=0.05, plateau=0.1)
    with pytest.raises(ParameterError):
        PulseSequence((a, b))


def test_sequence_duration_and_json_round_trip():
    a = seg(start=0.0, plateau=0.1, label="one")
    b = seg(start=0.2, plateau=0.05, label="two")
    sq = PulseSequence((a, b), readout_time=b.end)
    assert sq.total_duration == pytest.approx(b.end)


@pytest.fixture(scope="module")
def sample_calibration():
    p = DeviceParams()
    dims = SubsystemDims()
    q = calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, TWO_PI * 20.0)
    b = calibrate_pi_pulse(p, dims, "bsb", TWO_PI * 5.1e3)
    return p, dims, ProtocolCalibration(qubit=q, bsb=b)


def test_memory_sequence_layout(sample_calibration):
    p, dims, cal = sample_calibration
    sq = build_memory_sequence(p, 0.3, 0.5, cal)
    labels = [s.label for s in sq.segments]
    assert labels == ["prep", "bsb-store", "qubit-pi-store",
                      "qubit-pi-retrieve", "bsb-retrieve"]
    # the delay separates the two halves
    store_end = sq.labeled("qubit-pi-store")[0].end
    retrieve_start = sq.labeled("qubit-pi-retrieve")[0].start
    assert retrieve_start - store_end == pytest.approx(0.5)
    assert sq.readout_time == pytest.approx(sq.end)


def test_memory_sequence_mirror_symmetry(sample_calibration):
    p, dims, cal = sample_calibration
    sq = build_memory_sequence(p, 0.0, 0.0, cal)
    ops = [s for s in sq.segments if s.label != "prep"]
    half = len(ops) // 2
    for a, b in zip(ops[:half], reversed(ops[half:])):
        assert a.duration == pytest.approx(b.duration)
        assert a.amplitude == pytest.approx(b.amplitude)
        assert a.carrier == pytest.approx(b.carrier)


def test_memory_sequence_zero_angle_omits_prep(sample_calibration):
    p, dims, cal = sample_calibration
    sq = build_memory_sequence(p, 0.0, 0.0, cal)
    assert not sq.labeled("prep")
    assert sq.memory_duration == pytest.approx(sq.total_duration)


def test_memory_sequence_pi_multiplier(sample_calibration):
    p, dims, cal = sample_calibration
    sq1 = build_memory_sequence(p, 0.0, 0.0, cal, qubit_pi_multiplier=1)
    sq3 = build_memory_sequence(p, 0.0, 0.0, cal, qubit_pi_multiplier=3)
    area1 = sq1.labeled("qubit-pi-store")[0].area()
    area3 = sq3.labeled("qubit-pi-store")[0].area()
    assert area3 / area1 == pytest.approx(3.0, rel=1e-9)
    assert sq3.memory_duration > sq1.memory_duration
    with pytest.raises(ParameterError):
        build_memory_sequence(p, 0.0, 0.0, cal, qubit_pi_multiplier=2)


def test_memory_sequence_requires_calibration():
    with pytest.raises(CalibrationError):
        build_memory_sequence(DeviceParams(), 0.0, 0.0, None)


def test_qubit_calibration_matches_rabi_formula():
    # decoupled two-level qubit, resonant drive: pi time = pi / amplitude
    p = DeviceParams(g=1e-9)
    dims = SubsystemDims(2, 2, 1)
    amp = TWO_PI * 25.0
    cal = calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, amp, rise=2e-4)
    assert cal.pi_time == pytest.approx(math.pi / amp, rel=0.01)
    assert cal.transfer > 0.999


def test_bsb_calibration_matches_effective_rate(sample_calibration):
    p, dims, cal = sample_calibration
    omega_eff = bsb_effective_rate(p, cal.bsb.amplitude, carrier=cal.bsb.carrier)
    assert cal.bsb.pi_time == pytest.approx(math.pi / (2 * omega_eff), rel=0.20)
    assert cal.bsb.transfer > 0.99


def test_bsb_calibration_quadratic_scaling(sample_calibration):
    p, dims, cal = sample_calibration
    cal2 = calibrate_pi_pulse(p, dims, "bsb", 2.0 * cal.bsb.amplitude)
    ratio = cal.bsb.pi_time / cal2.pi_time
    assert 3.4 < ratio < 4.6


def test_calibration_deterministic(sample_calibration):
    p, dims, cal = sample_calibration
    again = calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, cal.qubit.amplitude)
    assert again.plateau == cal.qubit.plateau
    assert again.carrier == cal.qubit.carrier


def test_calibration_rejects_too_strong_drive():
    p = DeviceParams()
    dims = SubsystemDims(2, 2, 1)
    # pi width shorter than the fixed ramps cannot be reached
    with pytest.raises(CalibrationError):
        calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, TWO_PI * 200.0)


def test_calibration_flags_weak_transfer(monkeypatch):
    monkeypatch.setattr(pulses, "_probe_transfers",
                        lambda p, dims, segments, *a: np.full(len(segments), 0.3))
    with pytest.raises(CalibrationError):
        calibrate_pi_pulse(DeviceParams(), SubsystemDims(2, 2, 1),
                           QUBIT_CHANNEL, TWO_PI * 20.0)


# --- ket probes --------------------------------------------------------------

G, E1 = (0, 0, 0), (1, 1, 0)


def rho_transfer(p, dims, segment, frame, dt, initial, target):
    """The probe's transfer from a density matrix run through the same
    windows as the probe's ket, by simulate_sequence: RK4 ramps at dt and
    an exact plateau."""
    options = ProtocolOptions(dims=dims, frame=frame, dt_pulse=dt,
                              noiseless=True)
    _, state = simulate_sequence(p, PulseSequence((segment,)), options,
                                 rho0=qsys.basis_state(dims, *initial))
    i = dims.index(*target)
    return state.rho[i, i].real


def test_ket_probes_match_density_matrix_evolution():
    p, dims = DeviceParams(), SubsystemDims()
    qubit = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0,
                         dressed_frequencies(p, dims)[0], plateau=0.002)
    bsb = PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3,
                       two_photon_resonance(p, dims), plateau=0.1)
    for segment, target, dt in ((qubit, (1, 0, 0), 1e-4), (bsb, E1, 5e-4)):
        got = pulses._probe_transfers(p, dims, [segment], "dispersive", dt,
                                      G, target)
        ref = rho_transfer(p, dims, segment, "dispersive", dt, G, target)
        assert ref > 0.5
        assert got[0] == pytest.approx(ref, rel=0, abs=1e-9)

    # in the bare frame the exchange couplings are always-active terms
    dims = SubsystemDims(3, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                           plateau=0.005)
    model = build_model(p, dims, PulseSequence((segment,)), frame="bare")
    assert any(term.kind == "coupling" for term in model.terms)
    dt = 0.5 * model.max_step()
    got = pulses._probe_transfers(p, dims, [segment], "bare", dt, G, (1, 0, 0))
    ref = rho_transfer(p, dims, segment, "bare", dt, G, (1, 0, 0))
    assert ref > 0.1
    assert got[0] == pytest.approx(ref, rel=0, abs=1e-9)


def test_exact_probe_plateaus_match_fine_rk4():
    # ramps at a fine step and the plateau exact, against RK4 at that step
    # across the whole probe: a qubit and a sideband probe in the dispersive
    # frame, and a qubit probe in the bare frame with its always-on
    # couplings, at 1/32 of its step bound (at half of it, RK4 is
    # 1.5e-9 off on the plateau)
    p, dims, small = DeviceParams(), SubsystemDims(), SubsystemDims(3, 2, 1)
    cases = [
        (dims, "dispersive", (1, 0, 0), 2.5e-5,
         PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0,
                      dressed_frequencies(p, dims)[0], plateau=0.002)),
        (dims, "dispersive", E1, 2.5e-5,
         PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3,
                      two_photon_resonance(p, dims), plateau=0.1)),
        (small, "bare", (1, 0, 0), None,
         PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                      plateau=0.005, rise=0.001)),
    ]
    for dims, frame, target, dt, segment in cases:
        model = build_model(p, dims, PulseSequence((segment,)), frame=frame,
                            noiseless=True)
        plateau = (segment.start + segment.ramp, segment.end - segment.ramp)
        assert model.carrier_frame(*plateau) is not None
        dt = dt or model.max_step() / 32.0
        got = pulses._probe_transfers(p, dims, [segment], frame, dt, G, target)
        psi = evolve_kets([model], [(segment.start, segment.end)],
                          np.eye(dims.total)[dims.index(*G)], dt)
        want = abs(psi[dims.index(*target), 0]) ** 2
        assert want > 0.1
        assert abs(got[0] - want) <= 1e-12

    # the lab frame admits no such frame: its probes step RK4 throughout
    p = DeviceParams(omega_ro=0.021, omega_s=0.034, omega_q=0.027, alpha=-3.0,
                     g=0.4, chi_ro=0.1, chi_s=0.1, kappa_ro=0.05,
                     kappa_s=0.02, t1_q=40.0, t2_q=60.0, p_e=0.0)
    dims = SubsystemDims(2, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 2.0, p.angular().w_q,
                           plateau=0.05, rise=0.01)
    model = build_model(p, dims, PulseSequence((segment,)), frame="lab",
                        noiseless=True)
    got = pulses._probe_transfers(p, dims, [segment], "lab", 1e-4, G, (1, 0, 0))
    psi = evolve_kets([model], [(segment.start, segment.end)],
                      np.eye(dims.total)[dims.index(*G)], 1e-4)
    assert got[0] == abs(psi[dims.index(1, 0, 0), 0]) ** 2 > 0.01


def test_ket_batch_columns_are_independent():
    # qubit and sideband probes of different plateaus and carriers step as
    # two batches; each final ket is the same to the bit as the probe alone
    p, dims = DeviceParams(), SubsystemDims()
    w_q, w_b = dressed_frequencies(p, dims)[0], two_photon_resonance(p, dims)
    segments = [
        PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, w_q - 9.0, plateau=0.0),
        PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3, w_b + 3.0, plateau=0.04),
        PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, w_q + 4.0, plateau=0.03),
        PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3, w_b, plateau=0.0),
    ]
    models = [build_model(p, dims, PulseSequence((segment,)), noiseless=True)
              for segment in segments]
    spans = [(segment.start, segment.end) for segment in segments]
    psi0 = np.eye(dims.total)[dims.index(*G)]
    batch = evolve_kets(models, spans, psi0, 1e-4)
    for i, (model, span) in enumerate(zip(models, spans)):
        alone = evolve_kets([model], [span], psi0, 1e-4)
        assert np.array_equal(batch[:, i], alone[:, 0])
    transfers = np.abs(batch[[dims.index(1, 0, 0), dims.index(*E1)]]) ** 2
    assert transfers.max(axis=0).min() > 1e-3


def test_ket_probes_reject_noise_and_coarse_steps():
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                           plateau=0.005)
    psi0 = np.eye(dims.total)[0]
    noisy = build_model(p, dims, PulseSequence((segment,)))
    with pytest.raises(ParameterError):
        evolve_kets([noisy], [(segment.start, segment.end)], psi0, 1e-4)
    bare = build_model(p, dims, PulseSequence((segment,)), frame="bare",
                       noiseless=True)
    with pytest.raises(StepSizeError):
        evolve_kets([bare], [(segment.start, segment.end)], psi0,
                    2.0 * bare.max_step())
    # undriven lab frame: no step bound, and w_q dt >> 1 destabilizes RK4
    lab = build_model(p, dims, None, frame="lab", noiseless=True)
    with pytest.raises(IntegrationError):
        evolve_kets([lab], [(0.0, 0.01)], np.eye(dims.total)[dims.index(1, 0, 0)],
                    1e-3)
