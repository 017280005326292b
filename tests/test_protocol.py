import math

import numpy as np
import pytest

from qmemsim import analysis, lindblad, protocol, pulses, qsys
from qmemsim.device import QUBIT_CHANNEL, DeviceParams
from qmemsim.errors import ParameterError
from qmemsim.protocol import (ExperimentRecord, ProtocolOptions, WorkingPoint,
                              fock_decay_experiment, memory_channel,
                              memory_ramsey_experiment,
                              memory_sweep, mode_ringdown_experiment,
                              run_memory_protocol, storage_state_after_half,
                              z_fidelity_sweep)
from qmemsim.pulses import PulseSegment, build_memory_sequence
from qmemsim.qsys import SubsystemDims
from qmemsim.units import TWO_PI

P = DeviceParams()
OPTS = ProtocolOptions()
NOISELESS = OPTS.replace(noiseless=True)


def decoupled_cavity_params():
    """Mode decay only, couplings off (no protocol physics)."""
    return DeviceParams(g=1e-12, p_e=0.0, t1_q=4e5, t2_q=8e5)


def frozen_qubit_params():
    """Full couplings, but qubit decoherence and thermal jumps disabled."""
    return DeviceParams(p_e=0.0, t1_q=4e5, t2_q=8e5)


def test_options_reject_a_pulse_step_that_is_not_positive_and_finite():
    for dt in (0.0, -1e-4, math.inf, math.nan):
        with pytest.raises(ParameterError, match="dt_pulse must be > 0"):
            ProtocolOptions(dt_pulse=dt)


def test_noiseless_round_trip(default_cal):
    p_g = run_memory_protocol(P, 0.0, 0.0, NOISELESS, default_cal)
    assert p_g >= 0.99


def test_storage_mapping_ground_to_fock_one(default_cal):
    rho_s = storage_state_after_half(P, 0.0, NOISELESS, default_cal)
    assert rho_s[1, 1].real >= 0.99


def test_storage_mapping_excited_to_vacuum(default_cal):
    rho_s = storage_state_after_half(P, math.pi, NOISELESS, default_cal)
    assert rho_s[0, 0].real >= 0.99


def test_superposition_stores_half_photon(default_cal):
    rho_s = storage_state_after_half(P, math.pi / 2.0, NOISELESS, default_cal)
    n_mean = sum(n * rho_s[n, n].real for n in range(rho_s.shape[0]))
    assert n_mean == pytest.approx(0.5, abs=0.02)


def test_prep_angle_pattern_symmetric_about_pi(default_cal):
    lo = run_memory_protocol(P, math.pi / 2.0, 0.0, NOISELESS, default_cal)
    hi = run_memory_protocol(P, 3.0 * math.pi / 2.0, 0.0, NOISELESS,
                             default_cal)
    assert lo == pytest.approx(hi, abs=0.01)
    assert run_memory_protocol(P, math.pi, 0.0, NOISELESS, default_cal) < 0.02


def test_contrast_decays_at_storage_rate_not_qubit_rate(default_cal):
    c = []
    for delay in (0.25, 5.0):
        pg0 = run_memory_protocol(P, 0.0, delay, OPTS, default_cal)
        pg_pi = run_memory_protocol(P, math.pi, delay, OPTS, default_cal)
        c.append(pg0 - pg_pi)
    ratio = c[1] / c[0]
    # memory-rate decay over 4.75 us ~ 0.49; a qubit-rate protocol would
    # retain < exp(-4.75 / (3 * t1_q)) ~= 0.30
    assert ratio > math.exp(-4.75 / (3.0 * P.t1_q))


def test_fock_decay_rate_scaling():
    delays = np.array([1.5, 2.6, 3.7, 4.8, 6.0, 7.2])
    rec = fock_decay_experiment(P.replace(kappa_s=2 * 24.7), delays, OPTS)
    t_half = rec.fits["T1_s"].params["T"]
    assert t_half == pytest.approx(0.5 / P.angular().k_s, rel=0.05)


def test_fock_decay_rejects_short_span():
    with pytest.raises(ParameterError):
        fock_decay_experiment(P, np.array([0.5, 1.0, 2.0]), OPTS)


@pytest.fixture(scope="module")
def frozen_ramsey():
    """Memory Ramsey with only the storage decay active."""
    return memory_ramsey_experiment(frozen_qubit_params(),
                                    np.linspace(0.25, 21.0, 16), 0.3, OPTS)


def test_memory_ramsey_t2(frozen_ramsey):
    # only the storage decay active: T2 saturates the 2 T1 bound
    t2 = frozen_ramsey.fits["T2_s"].params["T2"]
    assert t2 == pytest.approx(2.0 / P.angular().k_s, rel=0.10)

    # thermal qubit jumps dephase the memory through the dispersive shift
    # and push T2 below the 2 T1 bound; an enlarged equilibrium population
    # makes the drop resolvable above the fit systematics, and the fit
    # window starts past the retrieval feed transient (see fock delays)
    hot_delays = np.linspace(3.0, 21.0, 14)
    rec3 = memory_ramsey_experiment(P.replace(p_e=0.02), hot_delays, 0.3, OPTS)
    t2_hot = rec3.fits["T2_s"].params["T2"]
    assert t2_hot < 2.0 / P.angular().k_s - 0.5
    assert t2_hot < t2 - 0.5


def test_delay_sweeps_share_the_storage_half_bit_for_bit(fock_record,
                                                         frozen_ramsey,
                                                         default_cal):
    # the sweeps simulate the storage half once and each delay from there;
    # every p_g is the one a one-point sweep gives at that delay
    for i in (0, -1):
        assert fock_record.ys[i] == run_memory_protocol(
            P, 0.0, fock_record.xs[i], OPTS, default_cal)

    p, d = frozen_qubit_params(), frozen_ramsey.xs[5]
    cal = protocol.get_calibration(p, OPTS)
    q = cal.qubit
    analysis_pulse = PulseSegment(
        QUBIT_CHANNEL, 0.5 * q.amplitude, q.carrier, phase=TWO_PI * 0.3 * d,
        plateau=q.plateau, label="ramsey-analysis")
    assert frozen_ramsey.ys[5] == memory_sweep(
        p, [math.pi / 2.0], [d], OPTS, cal, [(analysis_pulse,)])[0]


def test_memory_ramsey_needs_fringes():
    with pytest.raises(ParameterError):
        memory_ramsey_experiment(P, np.linspace(0.25, 4.0, 10), 0.3, OPTS)


def test_readout_ringdown_amplitude_law():
    p = decoupled_cavity_params()
    rec = mode_ringdown_experiment(p, "readout", ProtocolOptions())
    k = p.angular().k_ro
    ratio = rec.ys / rec.ys[0]
    expected = np.exp(-0.5 * k * (rec.xs - rec.xs[0]))
    assert np.max(np.abs(ratio - expected)) < 1e-3
    assert rec.fits["amplitude_decay"].params["T"] == pytest.approx(2.0 / k, rel=0.02)
    assert rec.fits["energy_decay"].params["T"] == pytest.approx(1.0 / k, rel=0.02)


def test_storage_ringdown_times():
    rec = mode_ringdown_experiment(P, "storage", OPTS)
    k = P.angular().k_s
    assert rec.fits["energy_decay"].params["T"] == pytest.approx(1.0 / k, rel=0.05)
    assert rec.fits["amplitude_decay"].params["T"] == pytest.approx(2.0 / k, rel=0.05)


def test_pulse_step_is_converged(anchor_z_point, default_cal):
    # halving dt_pulse with the same calibration (the calibration probes
    # keep their own step) moves the headline numbers by far less than
    # their pinned tolerance
    fine = OPTS.replace(dt_pulse=0.5 * OPTS.dt_pulse)
    p_g = run_memory_protocol(P, 0.0, 0.0, OPTS, default_cal)
    assert abs(run_memory_protocol(P, 0.0, 0.0, fine, default_cal) - p_g) < 1e-8
    f_z = z_fidelity_sweep(P, [WorkingPoint(TWO_PI * 6.0e3)], fine).ys[0]
    assert abs(f_z - anchor_z_point[1]) < 1e-8


def test_pulse_step_is_converged_on_lifetime_and_process(fock_record):
    # the same holds for the fitted Fock lifetime, the process fidelity and
    # every chi entry; the bounds are for the default step, 17 DOP853 steps
    # per 25 ns ramp
    assert OPTS.dt_pulse == 1.5e-3
    fine = OPTS.replace(dt_pulse=0.5 * OPTS.dt_pulse)
    t1 = fock_record.fits["T1_s"].params["T"]
    t1_fine = fock_decay_experiment(P, options=fine).fits["T1_s"].params["T"]
    assert abs(t1_fine / t1 - 1.0) < 1e-8
    qpt, qpt_fine = (protocol.qpt_experiment(P, o) for o in (OPTS, fine))
    f_qpt, f_qpt_fine = (rec.fits["process_fidelity"]["f_qpt"]
                         for rec in (qpt, qpt_fine))
    assert abs(f_qpt_fine - f_qpt) < 1e-8
    chi, chi_fine = (np.array(rec.extra["chi"]["real"])
                     + 1j * np.array(rec.extra["chi"]["imag"])
                     for rec in (qpt, qpt_fine))
    assert np.max(np.abs(chi_fine - chi)) < 1e-8


def test_calibration_step_is_converged(monkeypatch, anchor_z_point,
                                      default_cal):
    # halving every probe's step recalibrates both pulses; with dt_pulse
    # halved too, the headline numbers stay within their pinned tolerance
    p_g = run_memory_protocol(P, 0.0, 0.0, OPTS, default_cal)
    probe = pulses.probe_transfers

    def halved(base, segments, ends, dt, target):
        return probe(base, segments, ends, 0.5 * dt, target)

    monkeypatch.setattr(pulses, "probe_transfers", halved)
    fine = OPTS.replace(dt_pulse=0.5 * OPTS.dt_pulse)
    assert abs(run_memory_protocol(P, 0.0, 0.0, fine) - p_g) < 1e-6
    f_z = z_fidelity_sweep(P, [WorkingPoint(TWO_PI * 6.0e3)], fine).ys[0]
    assert abs(f_z - anchor_z_point[1]) < 1e-6


def test_z_point_correction_identity(anchor_z_point):
    t_p, f_z, f_corr = anchor_z_point
    assert f_corr * math.exp(-t_p / P.t1_q) == pytest.approx(f_z, abs=1e-12)
    assert f_z <= 1.0 + 1e-6


def test_z_fidelity_identity_when_decay_removed():
    # with the qubit lifetime sent to infinity the correction is trivial
    p_slow = DeviceParams(t1_q=1e6, t2_q=2e6, p_e=0.0)
    rec = z_fidelity_sweep(p_slow, [WorkingPoint(TWO_PI * 6.0e3)], OPTS)
    assert rec.columns["f_z_corr"][0] == pytest.approx(rec.ys[0], rel=1e-6)


def test_z_sweep_refuses_no_working_points():
    # an empty list ran the seven default working points
    with pytest.raises(ParameterError, match="no working_points"):
        z_fidelity_sweep(P, [], OPTS)


def test_protocol_states_keep_their_invariants_at_every_window_edge(
        monkeypatch, default_cal):
    # criterion 11's checks on the program's own path, not the RK4
    # reference: the default zero-delay protocol from |g,0,0> through
    # simulate_sequences, column k read at window edge k, and every window
    # propagating one of each conjugate pair of rho's blocks
    seq = build_memory_sequence(0.0, 0.0, default_cal)
    model = lindblad.build_model(P, OPTS.dims).with_sequence(seq)
    edges = sorted(set(lindblad._cuts(model, 0.0, seq.readout_time)))
    halved, restricted = [], lindblad.LiouvilleTable.restricted

    def spy(table, x, keep=None):
        halved.append(keep is not None)
        return restricted(table, x, keep)

    monkeypatch.setattr(lindblad.LiouvilleTable, "restricted", spy)
    _, states = protocol.simulate_sequences(P, [seq] * len(edges), OPTS,
                                            upto=edges)
    assert len(edges) > 10 and halved and all(halved)
    for rho in states:
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
        assert np.trace(rho @ rho).real <= 1.0 + 1e-9
        assert np.array_equal(rho, rho.conj().T)


def test_experiments_refuse_an_empty_list():
    # each raised a bare numpy ValueError: a reduction over no delays, or a
    # concatenation of no drives' sample times
    for run, name in ((lambda: fock_decay_experiment(P, [], OPTS), "delays"),
                      (lambda: memory_ramsey_experiment(P, [], 0.3, OPTS),
                       "delays"),
                      (lambda: protocol.effective_bsb_check(P, [], OPTS),
                       "drives")):
        with pytest.raises(ParameterError, match=f"^no {name} given"):
            run()


def _no_calibration(*args):
    raise AssertionError("calibrated before checking its arguments")


def test_bad_protocol_points_are_refused_by_name_before_calibrating(
        monkeypatch):
    # an empty list raised propagate's DimensionError, a NaN delay its span
    # error after the calibrations had run, and points that do not
    # broadcast numpy's bare ValueError
    monkeypatch.setattr(protocol, "get_calibration", _no_calibration)
    cases = [
        (lambda: memory_sweep(P, [], []), "no angles given"),
        (lambda: memory_sweep(P, 0.0, [], OPTS), "no delays given"),
        (lambda: memory_sweep(P, [0.0, math.nan], 1.0), "angles must be finite"),
        (lambda: memory_sweep(P, -math.inf, 1.0), "angles must be finite"),
        (lambda: memory_sweep(P, [0.0, 1.0], [1.0, 2.0, 3.0]),
         r"angles \(2\) and delays \(3\) must have one length"),
        (lambda: run_memory_protocol(P, 0.0, math.nan),
         r"delays must be finite and >= 0"),
        (lambda: run_memory_protocol(P, 0.0, math.inf), "delays must be"),
        (lambda: run_memory_protocol(P, 0.0, -1.0), "delays must be"),
        (lambda: fock_decay_experiment(P, [3.0, math.nan, 16.0], OPTS),
         "delays must be finite"),
        (lambda: memory_ramsey_experiment(P, [0.25, math.nan, 21.0], 0.35,
                                          OPTS), "delays must be finite"),
    ]
    for run, message in cases:
        with pytest.raises(ParameterError, match=f"^{message}"):
            run()


def test_memory_ramsey_refuses_a_detuning_that_is_not_finite(monkeypatch):
    # NaN passed the fringe check and failed in the analysis pulse with an
    # IntegrationError whose advice was wrong
    monkeypatch.setattr(protocol, "get_calibration", _no_calibration)
    for detuning in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="^detuning must be a finite"):
            memory_ramsey_experiment(P, None, detuning, OPTS)


def test_calibrations_refuse_an_amplitude_not_above_zero_first(monkeypatch):
    # a negative sideband amplitude failed only after the five probe stages
    # of the qubit calibration, listing the amplitudes as np.float64(...)
    def no_qubit_calibration(*args, **kw):
        raise AssertionError("calibrated the qubit before checking the "
                             "sideband amplitudes")

    monkeypatch.setattr(protocol, "calibrate_pi_pulse", no_qubit_calibration)
    with pytest.raises(ParameterError) as err:
        protocol.get_calibrations(P, OPTS, list(np.array([-1.0, 1.0])))
    assert str(err.value) == ("need drive amplitudes > 0 rad/us, got "
                              "[-1.0, 1.0] rad/us ([-0.000159155, "
                              "0.000159155] GHz)")


def test_z_sweep_monotone_corrected_fidelity():
    wps = [WorkingPoint(TWO_PI * a) for a in (12.0e3, 7.0e3, 4.6e3)]
    rec = z_fidelity_sweep(P, wps, OPTS)
    f_corr = rec.columns["f_z_corr"]
    assert np.all(np.diff(rec.xs) > 0)
    assert np.all(np.diff(f_corr) > -0.005)
    assert np.all(rec.ys <= 1.0 + 1e-6)


def test_memory_channel_trace_deficiency(default_cal):
    chan = memory_channel(P, OPTS, default_cal)
    out = chan(np.diag([1.0, 0.0]).astype(complex))
    tr = np.trace(out).real
    assert 0.7 <= tr <= 1.0 + 1e-9


def test_memory_channel_is_linear(default_cal):
    # inputs of any trace propagate, |g><e| too: |+><+| maps to the mean of
    # the four basis matrices' outputs
    chan = memory_channel(P, OPTS, default_cal)
    units = [np.outer(a, b) for a in np.eye(2) for b in np.eye(2)]
    plus = chan(np.full((2, 2), 0.5, dtype=complex))
    assert np.max(np.abs(plus - 0.5 * sum(chan(u) for u in units))) <= 1e-12


def test_zero_delay_protocol_builds_three_tables(monkeypatch, default_cal):
    # one LiouvilleTable each for the idle windows, the sideband pulses and
    # the qubit pulses, shared by each pulse's ramps and plateau and by its
    # store and retrieve segments
    builds, init = [], lindblad.LiouvilleTable.__init__

    def count(self, *args, **kw):
        builds.append(None)
        init(self, *args, **kw)

    monkeypatch.setattr(lindblad.LiouvilleTable, "__init__", count)
    run_memory_protocol(P, 0.0, 0.0, OPTS, default_cal)
    assert len(builds) == 3


def test_qpt_simulates_each_tomography_input_once(monkeypatch):
    calls = []
    simulate = protocol.simulate_sequences

    def counting(p, seqs, options, *args, **kw):
        calls.append(len(seqs))
        return simulate(p, seqs, options, *args, **kw)

    monkeypatch.setattr(protocol, "simulate_sequences", counting)
    out = protocol.qpt_experiment(P, OPTS.replace(shots=1000))
    # the four tomography inputs are the columns of one call
    assert calls == [4]
    # F_Z comes from the unsampled |g> output, also with shots set
    f_z = z_fidelity_sweep(P, [WorkingPoint(OPTS.bsb_amplitude)], OPTS).ys[0]
    assert out.fits["process_fidelity"]["f_z"] == pytest.approx(
        f_z, rel=0, abs=1e-12)


def test_batched_qpt_inputs_equal_single_inputs(default_cal):
    from qmemsim import tomography

    chan = memory_channel(P, OPTS, default_cal)
    batch = chan(np.array(tomography.INPUT_STATES))
    assert batch.shape == (4, 2, 2)
    for out, rho in zip(batch, tomography.INPUT_STATES):
        assert np.array_equal(out, chan(rho))


def test_qpt_inputs_share_one_block_propagator(monkeypatch, default_cal):
    # the four tomography inputs run one sequence under one frame, so each
    # exact window gives them equal lam, scales and tau: _exact exponentiates
    # the blocks of one column, those |+> alone hands it (its support is the
    # union of theirs), and every output keeps the bits it has alone
    from qmemsim import tomography

    stacks, block_expm = [], lindblad._block_expm

    def record(gen):
        stacks.append(gen.shape)
        return block_expm(gen)

    monkeypatch.setattr(lindblad, "_block_expm", record)
    chan = memory_channel(P, OPTS, default_cal)
    batch = chan(np.array(tomography.INPUT_STATES))
    shared = list(stacks)
    stacks.clear()
    chan(tomography.INPUT_STATES[2])
    assert shared == stacks
    for out, rho in zip(batch, tomography.INPUT_STATES):
        assert np.array_equal(out, chan(rho))


def test_z_sweep_row_equals_its_single_point(anchor_z_point):
    # the 6 GHz protocol as one of three columns, beside a 3pi point
    wps = [WorkingPoint(TWO_PI * 12.0e3), WorkingPoint(TWO_PI * 6.0e3),
           WorkingPoint(TWO_PI * 3.2e3, qubit_pi_multiplier=3)]
    rec = z_fidelity_sweep(P, wps, OPTS)
    row = list(rec.xs).index(anchor_z_point[0])
    assert (rec.xs[row], rec.ys[row], rec.columns["f_z_corr"][row]) \
        == anchor_z_point


def test_z_sweep_runs_its_protocols_and_calibrations_batched(monkeypatch,
                                                            default_cal):
    # three working points: one propagate call for the three protocols, and
    # the five scan stages of the three sideband calibrations as five
    # probe calls (the qubit calibration is the one given)
    monkeypatch.setattr(protocol, "calibrate_pi_pulse",
                        lambda *args, **kw: default_cal.qubit)
    calls = {"propagate": [], "probe_transfers": []}
    for module, name in ((protocol, "propagate"), (pulses, "probe_transfers")):
        def count(*args, name=name, fn=getattr(module, name)):
            calls[name].append(None)
            return fn(*args)
        monkeypatch.setattr(module, name, count)
    wps = [WorkingPoint(TWO_PI * a) for a in (12.0e3, 7.0e3, 4.6e3)]
    z_fidelity_sweep(P, wps, OPTS)
    assert len(calls["propagate"]) == 1
    assert len(calls["probe_transfers"]) == 5


def test_sequences_with_different_layouts_run_in_one_call(default_cal):
    # a zero angle omits the prep segment, so the first column has four
    # edges fewer than the second; each equals its one-column run
    seqs = [build_memory_sequence(angle, 0.0, default_cal)
            for angle in (0.0, math.pi / 2.0)]          # no prep, then prep
    _, states = protocol.simulate_sequences(P, seqs, OPTS)
    for seq, state in zip(seqs, states):
        alone = protocol.simulate_sequence(P, seq, OPTS)[1]
        assert np.array_equal(state, alone)


def test_one_span_equals_its_windows_one_at_a_time(default_cal):
    # the zero-delay protocol as one span, against the windows between its
    # segment and plateau edges, each its own propagate call (a window
    # under 1e-12 us is skipped, as propagate skips it)
    seq = build_memory_sequence(0.0, 0.0, default_cal)
    model, state = protocol.simulate_sequence(P, seq, OPTS)
    edges = sorted([0.0, seq.readout_time] + [
        e for s in seq.segments
        for e in (s.start, s.start + s.ramp, s.end - s.ramp, s.end)])
    x = qsys.basis_state(model.dims).reshape(-1, 1)
    for t0, t1 in zip(edges, edges[1:]):
        if t1 - t0 >= 1e-12:
            x = lindblad.propagate([model], x, (t0, t1), OPTS.dt_pulse)
    assert np.array_equal(x[:, 0], state.reshape(-1))


def test_qpt_inputs_draw_distinct_shot_noise(monkeypatch):
    # |+> and |+i> share |rho[0, 0]| = 1/2, so a seed taken from it gave
    # the two inputs identical uniforms
    seeds = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    small = OPTS.replace(dims=SubsystemDims(2, 2, 1), shots=100, seed=7)
    protocol.qpt_experiment(P, small)
    assert len(seeds) == 4
    assert len(set(seeds)) == 4


def test_record_validation_and_csv(tmp_path):
    with pytest.raises(ParameterError):
        ExperimentRecord("x", "y", [], [])
    with pytest.raises(ParameterError):
        ExperimentRecord("x", "y", [1.0, 1.0], [0.0, 0.0])
    rec = ExperimentRecord("x_us", "p", [1.0, 2.0], [0.5, 0.4],
                           columns={"extra": np.array([7.0, 8.0])})
    path = tmp_path / "rec.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_us,p,uncertainty,extra"
    assert lines[1].startswith("1,0.5")


def test_prep_angle_sweep_is_one_call_bit_for_bit(monkeypatch, default_cal):
    angles = [0.0, math.pi / 2.0, math.pi]
    singles = [run_memory_protocol(P, a, 0.25, OPTS, default_cal)
               for a in angles]
    calls, propagate = [], protocol.propagate

    def count(*args):
        calls.append(None)
        return propagate(*args)

    monkeypatch.setattr(protocol, "propagate", count)
    assert list(memory_sweep(P, angles, 0.25, OPTS, default_cal)) == singles
    assert len(calls) == 1


def test_sideband_check_is_one_call_bit_for_bit(monkeypatch):
    # all three drives' 91 sample columns run as one propagate call, and
    # each drive's comparison equals the one it gets alone, bit for bit
    drives = TWO_PI * np.array([1.2e3, 2.0e3, 3.4e3])
    singles = [protocol.effective_bsb_check(P, [d])[0] for d in drives]
    calls, propagate = [], lindblad.propagate

    def count(*args):
        calls.append(args[1].shape[1])
        return propagate(*args)

    monkeypatch.setattr(lindblad, "propagate", count)
    assert protocol.effective_bsb_check(P, drives) == singles
    assert calls == [3 * 91]


def test_sideband_check_of_a_drive_does_not_depend_on_its_neighbours():
    # every tone steps at the calibration probes' step, so a strong drive
    # beside a weak one leaves the weak drive's comparison as it is alone
    weak, strong = TWO_PI * 2.0e3, TWO_PI * 8.0e3
    alone = protocol.effective_bsb_check(P, [weak])[0]
    assert protocol.effective_bsb_check(P, [weak, strong])[0] == alone


@pytest.mark.parametrize("drive", [0.0, -TWO_PI * 1e3, math.nan, math.inf])
def test_sideband_check_refuses_a_drive_not_above_zero(monkeypatch, drive):
    # a zero drive divided by zero, and its NaN and infinite sample times
    # failed the span check of propagate, after the model was built
    def build(*args, **kwargs):
        raise AssertionError("built a model before checking the drives")

    monkeypatch.setattr(protocol, "build_model", build)
    with pytest.raises(ParameterError,
                       match="^each drive must be a finite amplitude > 0"):
        protocol.effective_bsb_check(P, [TWO_PI * 2.0e3, drive], OPTS)


def test_truncation_is_converged(default_cal):
    # one more level in each mode moves F_Z at the 4.6 GHz working point
    # and p_g at 16 us by less than 2e-4 and 1e-6: fewer storage levels
    # cut off the sideband ladder the noisy protocol climbs
    wp = WorkingPoint(TWO_PI * 4.6e3)
    small, large = OPTS, OPTS.replace(dims=SubsystemDims(4, 6, 3))
    f_z = [z_fidelity_sweep(P, [wp], o).ys[0] for o in (small, large)]
    p_g = [run_memory_protocol(P, 0.0, 16.0, small, default_cal),
           run_memory_protocol(P, 0.0, 16.0, large)]
    assert abs(f_z[1] - f_z[0]) < 2e-4
    assert abs(p_g[1] - p_g[0]) < 1e-6


def test_prep_angle_sweep_record(default_cal):
    angles = np.linspace(0.0, 2.0 * math.pi, 5)
    p_g = memory_sweep(P, angles, 0.25, NOISELESS, default_cal)
    assert len(p_g) == 5
    assert p_g[0] > 0.98       # ground input round trip
    assert p_g[2] < 0.05       # pi input reads excited
