import math

import numpy as np
import pytest

from qmemsim import lindblad, pulses, qsys
from qmemsim.device import QUBIT_CHANNEL, DeviceParams, bsb_effective_rate
from qmemsim.errors import CalibrationError, IntegrationError, ParameterError
from qmemsim.lindblad import (build_model, dressed_frequencies, propagate,
                              two_photon_resonance)
from qmemsim.protocol import ProtocolOptions, simulate_sequences
from qmemsim.pulses import (PulseSegment, PulseSequence,
                            build_memory_sequence, calibrate_pi_pulse)
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


def _piecewise_envelope(s, t):
    """The envelope at one time by its pieces: the rising Gaussian on
    [0, ramp), 1 on the plateau, the falling one on (flat_end, flat_end +
    ramp] and 0 elsewhere, x = t - start."""
    x = t - s.start
    flat_end = s.ramp + s.plateau
    if 0 <= x < s.ramp or flat_end < x <= flat_end + s.ramp:
        edge = s.ramp if x < s.ramp else flat_end
        g = np.exp(-0.5 * np.square(np.array([(x - edge) / s.sigma])))[0]
        return s.amplitude * ((g - pulses._G0) / (1.0 - pulses._G0))
    return s.amplitude * (1.0 if s.ramp <= x <= flat_end else 0.0)


def test_envelope_bits_at_the_edges():
    # at each of the four edges and its two float neighbours, as an array
    # and as scalars, the envelope is the piecewise form's to the bit
    for s in (seg(), seg(amplitude=3.7, plateau=0.0, rise=0.013, start=0.41),
              seg(amplitude=0.93, plateau=0.2371, rise=0.031, start=-0.2)):
        edges = [s.start, s.start + s.ramp, s.start + s.ramp + s.plateau,
                 s.end]
        ts = np.array([u for e in edges for u in (
            np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))])
        want = np.array([_piecewise_envelope(s, t) for t in ts])
        assert np.array_equal(s.envelope_at(ts), want)
        assert [s.envelope_at(float(t)) for t in ts] == list(want)
        assert type(s.envelope_at(float(ts[0]))) is float
        assert want[0] == 0.0 and s.amplitude in want


def test_area_additive_in_plateau():
    s1, s2 = seg(plateau=0.1), seg(plateau=0.1 + 0.037)
    area1 = s1.amplitude * s1.equivalent_width()
    area2 = s2.amplitude * s2.equivalent_width()
    assert area2 - area1 == pytest.approx(s1.amplitude * 0.037, rel=1e-12)


def test_area_against_quadrature():
    s = seg(amplitude=7.0, plateau=0.08, rise=0.02)
    ts = np.linspace(s.start, s.end, 400001)
    env = s.envelope_at(ts)
    area_num = np.trapezoid(env, ts)
    sq_num = np.trapezoid(env**2, ts)
    sq_area = s.amplitude**2 * (s.plateau + 2.0 * pulses._RAMP_AREA_SQ * s.sigma)
    assert s.amplitude * s.equivalent_width() == pytest.approx(area_num, rel=1e-8)
    assert sq_area == pytest.approx(sq_num, rel=1e-8)


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
    assert sq.end - sq.segments[0].start == pytest.approx(b.end)


@pytest.fixture(scope="module")
def sample_calibration(default_cal):
    """The default device's qubit pi pulse at 20 MHz and sideband pi pulse
    at 5.1 GHz, the session's calibration."""
    return DeviceParams(), SubsystemDims(), default_cal


def test_bare_frame_probe_steps_under_its_carrier_bound():
    # the bare frame's exchange couplings bound the step at 1.01e-5 us, under
    # the 1e-4 us step given here and the calibration's 5e-4 us PROBE_STEP:
    # the probe steps at its model's bound instead of failing, and its
    # noiseless pi pulse from the ground state agrees with the dispersive
    # frame's
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    amp = TWO_PI * 20.0
    pi = PulseSegment(QUBIT_CHANNEL, amp, dressed_frequencies(p, dims)[0],
                      plateau=math.pi / amp - 2.0 * pulses._RAMP_AREA * 0.01)
    bare, dispersive = (
        pulses.probe_transfers(build_model(p, dims, frame, noiseless=True),
                               [pi], [pi.end], 1e-4, (1, 0, 0))[0]
        for frame in ("bare", "dispersive"))
    assert bare > 0.999 and dispersive > 0.999
    assert abs(bare - dispersive) < 1e-3


def test_qubit_calibration_steps_its_ramps_at_the_probe_step(monkeypatch):
    # five scan stages, each one propagate call whose two 25 ns ramps step
    # DOP853 at PROBE_STEP (12 steps each, of its 12 stages) and whose
    # plateau is exact, which applies no table
    applies, apply = [], lindblad.LiouvilleTable.apply

    def count(*args, **kw):
        applies.append(None)
        return apply(*args, **kw)

    monkeypatch.setattr(lindblad.LiouvilleTable, "apply", count)
    calibrate_pi_pulse(DeviceParams(), SubsystemDims(), QUBIT_CHANNEL,
                       TWO_PI * 20.0)
    assert len(applies) == 5 * 2 * 12 * len(lindblad.DOP853[2])


def test_memory_sequence_layout(sample_calibration):
    p, dims, cal = sample_calibration
    sq = build_memory_sequence(0.3, 0.5, cal)
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
    sq = build_memory_sequence(0.0, 0.0, cal)
    ops = [s for s in sq.segments if s.label != "prep"]
    half = len(ops) // 2
    for a, b in zip(ops[:half], reversed(ops[half:])):
        assert a.duration == pytest.approx(b.duration)
        assert a.amplitude == pytest.approx(b.amplitude)
        assert a.carrier == pytest.approx(b.carrier)


def test_memory_sequence_zero_angle_omits_prep(sample_calibration):
    p, dims, cal = sample_calibration
    sq = build_memory_sequence(0.0, 0.0, cal)
    assert not sq.labeled("prep")
    assert sq.memory_duration == pytest.approx(sq.end - sq.segments[0].start)


def test_memory_sequence_pi_multiplier(sample_calibration):
    p, dims, cal = sample_calibration
    sq1 = build_memory_sequence(0.0, 0.0, cal, qubit_pi_multiplier=1)
    sq3 = build_memory_sequence(0.0, 0.0, cal, qubit_pi_multiplier=3)
    area1, area3 = (s.amplitude * s.equivalent_width() for s in
                    (sq1.labeled("qubit-pi-store")[0],
                     sq3.labeled("qubit-pi-store")[0]))
    assert area3 / area1 == pytest.approx(3.0, rel=1e-9)
    assert sq3.memory_duration > sq1.memory_duration
    with pytest.raises(ParameterError):
        build_memory_sequence(0.0, 0.0, cal, qubit_pi_multiplier=2)


def test_memory_sequence_refuses_a_delay_that_is_not_a_finite_time(
        sample_calibration):
    # a NaN delay passed the `storage_delay < 0` check
    _, _, cal = sample_calibration
    for delay in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError,
                           match="storage_delay must be >= 0 and finite"):
            build_memory_sequence(0.0, delay, cal)


def test_memory_sequence_requires_calibration():
    with pytest.raises(CalibrationError):
        build_memory_sequence(0.0, 0.0, None)


def test_qubit_calibration_matches_rabi_formula():
    # decoupled two-level qubit, resonant drive: pi time = pi / amplitude
    p = DeviceParams(g=1e-9)
    dims = SubsystemDims(2, 2, 1)
    amp = TWO_PI * 10.0
    cal = calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, amp)
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


def test_batched_calibration_equals_single_calibrations(sample_calibration):
    p, dims, cal = sample_calibration
    amps = [cal.bsb.amplitude, TWO_PI * 9.0e3]
    batch = pulses.calibrate_pi_pulses(p, dims, "bsb", amps)
    assert batch == [cal.bsb, calibrate_pi_pulse(p, dims, "bsb", amps[1])]


def test_calibration_rejects_too_strong_drive():
    p = DeviceParams()
    dims = SubsystemDims(2, 2, 1)
    # pi width shorter than the fixed ramps cannot be reached
    with pytest.raises(CalibrationError):
        calibrate_pi_pulse(p, dims, QUBIT_CHANNEL, TWO_PI * 200.0)


def test_calibration_refuses_no_amplitudes():
    # an empty list raised numpy's "zero-size array" ValueError
    with pytest.raises(ParameterError, match="need drive amplitudes > 0"):
        pulses.calibrate_pi_pulses(DeviceParams(), SubsystemDims(2, 2, 1),
                                   "bsb", [])


def test_calibration_builds_one_frame(monkeypatch):
    # the five scan stages all drive one noiseless frame
    built = []
    build = lindblad.build_model

    def counted(*args, **kwargs):
        built.append(kwargs)
        return build(*args, **kwargs)

    monkeypatch.setattr(lindblad, "build_model", counted)
    calibrate_pi_pulse(DeviceParams(), SubsystemDims(2, 2, 1), QUBIT_CHANNEL,
                       TWO_PI * 20.0)
    assert built == [{"frame": "dispersive", "noiseless": True}]


def test_calibration_flags_weak_transfer(monkeypatch):
    monkeypatch.setattr(pulses, "probe_transfers",
                        lambda base, segments, *a: np.full(len(segments), 0.3))
    with pytest.raises(CalibrationError):
        calibrate_pi_pulse(DeviceParams(), SubsystemDims(2, 2, 1),
                           QUBIT_CHANNEL, TWO_PI * 20.0)


# --- ket probes --------------------------------------------------------------

G, E1 = (0, 0, 0), (1, 1, 0)


def rho_transfer(p, dims, segment, frame, dt, initial, target):
    """The probe's transfer from a density matrix run through the same
    windows as the probe's ket, by simulate_sequences: DOP853 ramps at dt and
    an exact plateau."""
    options = ProtocolOptions(dims=dims, frame=frame, dt_pulse=dt,
                              noiseless=True)
    _, [state] = simulate_sequences(p, [PulseSequence((segment,))], options,
                                    [qsys.basis_state(dims, *initial)])
    i = dims.index(*target)
    return state.rho[i, i].real


def test_ket_probes_match_density_matrix_evolution():
    p, dims = DeviceParams(), SubsystemDims()
    qubit = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0,
                         dressed_frequencies(p, dims)[0], plateau=0.002)
    bsb = PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3,
                       two_photon_resonance(p, dims), plateau=0.1)
    for segment, target, dt in ((qubit, (1, 0, 0), 1e-4), (bsb, E1, 5e-4)):
        got = pulses.probe_transfers(build_model(p, dims, noiseless=True),
                                     [segment], [segment.end], dt, target)
        ref = rho_transfer(p, dims, segment, "dispersive", dt, G, target)
        assert ref > 0.5
        assert got[0] == pytest.approx(ref, rel=0, abs=1e-9)

    # in the bare frame the exchange couplings are always-active terms
    dims = SubsystemDims(3, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                           plateau=0.005)
    model = build_model(p, dims, "bare").with_sequence(PulseSequence((segment,)))
    assert any(term.segment is None for term in model.terms)
    dt = model.max_step()
    got = pulses.probe_transfers(build_model(p, dims, "bare", noiseless=True),
                                 [segment], [segment.end], dt, (1, 0, 0))
    ref = rho_transfer(p, dims, segment, "bare", dt, G, (1, 0, 0))
    assert ref > 0.1
    assert got[0] == pytest.approx(ref, rel=0, abs=1e-9)


def test_exact_probe_plateaus_match_fine_rk4():
    # ramps at a fine step and the plateau exact, against RK4 at that step
    # across the whole probe: a qubit and a sideband probe in the dispersive
    # frame, and a qubit probe in the bare frame with its always-on
    # couplings, at 1/16 of RK4's step bound, 40 steps per carrier period
    # (at the bound, RK4 is 1.5e-9 off on the plateau)
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
        base = build_model(p, dims, frame, noiseless=True)
        model = base.with_sequence(PulseSequence((segment,)))
        plateau = (segment.start + segment.ramp, segment.end - segment.ramp)
        assert model.carrier_frame(*plateau) is not None
        dt = dt or model.max_step(per_period=40.0) / 16.0
        got = pulses.probe_transfers(base, [segment], [segment.end], dt,
                                     target)
        terms = model.active_terms(segment.start, segment.end)
        psi = lindblad._stepped(
            lindblad.LiouvilleTable(model, terms, ket=True),
            np.eye(dims.total, dtype=complex)[:, [dims.index(*G)]], [terms],
            np.array([segment.start]), np.array([segment.end]), dt,
            lindblad.RK4)
        want = abs(psi[dims.index(*target), 0]) ** 2
        assert want > 0.1
        assert abs(got[0] - want) <= 1e-12

    # the lab frame admits no such frame: its probes step DOP853 throughout,
    # across the ramp-up, the plateau and the ramp-down
    p = DeviceParams(omega_ro=0.021, omega_s=0.034, omega_q=0.027, alpha=-3.0,
                     g=0.4, chi_ro=0.1, chi_s=0.1, kappa_ro=0.05,
                     kappa_s=0.02, t1_q=40.0, t2_q=60.0, p_e=0.0)
    dims = SubsystemDims(2, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 2.0, p.angular().w_q,
                           plateau=0.05, rise=0.01)
    base = build_model(p, dims, "lab", noiseless=True)
    model = base.with_sequence(PulseSequence((segment,)))
    got = pulses.probe_transfers(base, [segment], [segment.end], 1e-4,
                                 (1, 0, 0))
    edges = (segment.start, segment.start + segment.ramp,
             segment.end - segment.ramp, segment.end)
    assert model.carrier_frame(*edges[1:3]) is None
    psi = propagate([model], np.eye(dims.total)[:, [dims.index(*G)]],
                    (segment.start, segment.end), 1e-4)
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
    base = build_model(p, dims, noiseless=True)
    models = [base.with_sequence(PulseSequence((segment,)))
              for segment in segments]
    spans = [(segment.start, segment.end) for segment in segments]
    psi0 = np.eye(dims.total)[:, [dims.index(*G)]]
    batch = propagate(models, np.repeat(psi0, len(models), axis=1),
                      np.array(spans).T, 1e-4)
    for i, (model, span) in enumerate(zip(models, spans)):
        alone = propagate([model], psi0, span, 1e-4)
        assert np.array_equal(batch[:, i], alone[:, 0])
    transfers = np.abs(batch[[dims.index(1, 0, 0), dims.index(*E1)]]) ** 2
    assert transfers.max(axis=0).min() > 1e-3


def test_ket_probes_reject_noise_and_coarse_steps():
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    segment = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                           plateau=0.005)
    psi0 = np.eye(dims.total)[:, [0]]
    noisy = build_model(p, dims).with_sequence(PulseSequence((segment,)))
    with pytest.raises(ParameterError):
        propagate([noisy], psi0, (segment.start, segment.end), 1e-4)
    # lab frame, driven at a carrier of 1e-3 rad/us: it bounds no step, and
    # the table's diagonal caps it at 3e-5 us (STABLE_STEP), where the norm
    # of |e> rotating at w_q, which no Runge-Kutta step conserves, still
    # drifts past 1e-6 within a few steps (an undriven window would be
    # exact)
    slow = PulseSegment(QUBIT_CHANNEL, 1.0, 1e-3, plateau=0.005)
    lab = build_model(p, dims, "lab",
                      noiseless=True).with_sequence(PulseSequence((slow,)))
    with pytest.raises(IntegrationError):
        propagate([lab], np.eye(dims.total)[:, [dims.index(1, 0, 0)]],
                  (0.0, 0.01), 1e-3)
