"""End-to-end memory experiments: storage/retrieval, lifetime and coherence
measurements, mode ringdowns, the sideband-rate check, Z-fidelity
working-point sweeps and the process tomography channel.

Readout convention: the retrieved ground-state population p_g is extracted by
tracing out both cavity modes and reading the transmon ground-level
population.  Storage-time axes count only the idle delay between the storage
and retrieval halves; protocol overhead is excluded.
"""

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import analysis, pulses, qsys, tomography
from .device import (QUBIT_CHANNEL, READOUT_CHANNEL, STORAGE_CHANNEL,
                     DeviceParams, bsb_effective_rate)
from .errors import IntegrationError, ParameterError
from .lindblad import (FRAMES, build_model, dressed_frequencies, propagate,
                       two_photon_resonance)
from .pulses import (PROBE_STEP, PulseSegment, PulseSequence,
                     ProtocolCalibration, build_memory_sequence,
                     calibrate_pi_pulse, calibrate_pi_pulses)
from .qsys import QuantumState, SubsystemDims
from .units import TWO_PI

QUBIT_AMPLITUDE = TWO_PI * 20.0             # rad/us (20 MHz Rabi)


@dataclass(frozen=True)
class ProtocolOptions:
    """Knobs shared by all experiments.

    The default drive amplitudes give a sideband pi pulse of ~190 ns and a
    qubit pi pulse of ~50 ns, i.e. a protocol length near 0.47 us.
    dt_pulse is the largest step of the pulse ramps, which propagate
    steps by DOP853: at 1.5e-3 us each 25 ns ramp takes 17 steps, and
    halving it moves p_g and F_Z by under 1e-9 (at 2e-3 us, F_Z by
    1.46e-8).  The calibration probes step at their own pulses.PROBE_STEP.
    """

    dims: SubsystemDims = field(default_factory=SubsystemDims)
    frame: str = "dispersive"
    bsb_amplitude: float = TWO_PI * 5.1e3   # rad/us
    dt_pulse: float = 1.5e-3                # us
    noiseless: bool = False
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ParameterError(
                f"unknown frame {self.frame!r}, expected one of {FRAMES}")
        if not 0.0 < self.dt_pulse < math.inf:
            raise ParameterError(
                f"dt_pulse must be > 0 us and finite, got {self.dt_pulse!r} us")
        if self.shots is not None and self.shots < 1:
            raise ParameterError(f"shots must be >= 1, got {self.shots!r}")

    def replace(self, **kw):
        return dc_replace(self, **kw)


def get_calibration(p: DeviceParams, options: ProtocolOptions):
    """Calibrate the qubit and sideband pi pulses."""
    return get_calibrations(p, options, [options.bsb_amplitude])[0]


def get_calibrations(p: DeviceParams, options: ProtocolOptions, amplitudes):
    """get_calibration at each sideband amplitude: the sideband pi pulses,
    calibrated together first (calibrate_pi_pulses), and one qubit pi pulse."""
    bsbs = calibrate_pi_pulses(p, options.dims, "bsb", amplitudes,
                               frame=options.frame)
    qubit = calibrate_pi_pulse(p, options.dims, QUBIT_CHANNEL, QUBIT_AMPLITUDE,
                               frame=options.frame)
    return [ProtocolCalibration(qubit=qubit, bsb=bsb) for bsb in bsbs]


def simulate_sequence(p: DeviceParams, seq: PulseSequence,
                      options: ProtocolOptions, upto=None):
    """simulate_sequences for one sequence from the ground state at 0:
    (model, final QuantumState)."""
    models, states = simulate_sequences(p, [seq], options, upto=upto)
    return models[0], states[0]


def simulate_sequences(p: DeviceParams, seqs, options: ProtocolOptions,
                       rho0s=None, start=0.0, upto=None):
    """Run pulse sequences, under models of one frame, as the columns of
    one lindblad.propagate call: the idle windows and the plateaus exactly,
    the ramps and every driven window of the lab frame by DOP853 at
    options.dt_pulse.  Column j runs from rho0s[j] (default the ground
    state) at start to upto (default its readout marker).  Returns (models,
    final QuantumStates)."""
    base = build_model(p, options.dims, frame=options.frame,
                       noiseless=options.noiseless)
    models = [base.with_sequence(seq) for seq in seqs]
    if rho0s is None:
        rho0s = [qsys.basis_state(options.dims)] * len(seqs)
    x = np.array([np.ravel(getattr(r, "rho", r)) for r in rho0s]).T
    stop = [s.readout_time or s.end for s in seqs] if upto is None else upto
    x = propagate(models, x, (start, stop), options.dt_pulse)
    d = options.dims.total
    return models, [QuantumState(col.reshape(d, d), options.dims) for col in x.T]


def ground_populations(p: DeviceParams, seqs, options: ProtocolOptions,
                       rho0s=None, start=0.0):
    """The retrieved p_g of each sequence, the sequences as the columns of
    one simulate_sequences call."""
    models, states = simulate_sequences(p, seqs, options, rho0s, start)
    return [float(np.real(np.trace(s.rho @ m.label_projector(nt=0))))
            for m, s in zip(models, states)]


def run_memory_protocol(p: DeviceParams, prep_angle=0.0, storage_delay=0.0,
                        options: ProtocolOptions = ProtocolOptions(), cal=None):
    """Full storage/retrieval protocol; returns the retrieved p_g.  The
    one-point memory_sweep."""
    return memory_sweep(p, [prep_angle], [storage_delay], options, cal)[0]


def memory_sweep(p: DeviceParams, angles, delays,
                 options: ProtocolOptions = ProtocolOptions(), cal=None,
                 extra_segments=None):
    """The retrieved p_g at each (angle, delay) point, each bit for bit
    the one it gets alone, as the columns of one ground_populations call;
    angles and delays broadcast, and extra_segments holds one tuple per
    point of segments (e.g. a trailing analysis pulse) appended before the
    readout marker.  Several points at one angle simulate their storage
    half once, and from there only their idle windows and retrievals; other
    points run whole sequences.  The points are checked (sweep_points)
    before any calibration."""
    angles, delays = sweep_points(angles, delays)
    cal = cal or get_calibration(p, options)
    seqs = [_memory_sequence(a, d, cal, extra)
            for a, d, extra in zip(angles, delays,
                                   extra_segments or [()] * angles.size)]
    if angles.size > 1 and np.all(angles == angles[0]):
        t_half, half = _storage_half(p, angles[0], options, cal)
        return ground_populations(p, seqs, options, [half] * len(seqs), t_half)
    return ground_populations(p, seqs, options)


def sweep_points(angles, delays):
    """angles and delays as broadcast float arrays; an empty angles or
    delays, an angle that is not finite, a delay that is not a finite time
    >= 0 us, or angles and delays that do not broadcast raise
    ParameterError naming them."""
    angles, delays = _checked("angles", angles), _checked("delays", delays, 0.0)
    try:
        return np.broadcast_arrays(angles, delays)
    except ValueError:
        raise ParameterError(f"angles ({angles.size}) and delays "
                             f"({delays.size}) must have one length, or one "
                             "of them a single value") from None


def _memory_sequence(prep_angle, storage_delay, cal, extra_segments=()):
    seq = build_memory_sequence(prep_angle, storage_delay, cal)
    for seg in extra_segments:
        seg = seg.shifted(seq.readout_time)
        seq = PulseSequence(seq.segments + (seg,), readout_time=seg.end)
    return seq


def _storage_half(p, prep_angle, options, cal):
    """(t_half, state) after the preparation, sideband pi and qubit pi, in
    the windows of the protocol at any delay (its retrieval starts later)."""
    seq = _memory_sequence(prep_angle, 0.0, cal)
    t_half = max(s.end for s in seq.labeled("qubit-pi-store"))
    return t_half, simulate_sequence(p, seq, options, upto=t_half)[1]


def storage_state_after_half(p: DeviceParams, prep_angle=0.0,
                             options: ProtocolOptions = ProtocolOptions(), cal=None):
    """Reduced storage-mode state right after the storage half."""
    cal = cal or get_calibration(p, options)
    return _storage_half(p, prep_angle, options, cal)[1].ptrace_storage()


# ---------------------------------------------------------------------------
# experiment records
# ---------------------------------------------------------------------------

@dataclass
class ExperimentRecord:
    """Tabulated sweep output, fits and JSON-ready extras: what
    results.csv, fits.json and the manifest's extra hold."""

    sweep_variable: str
    observable: str
    xs: np.ndarray
    ys: np.ndarray
    columns: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.size == 0:
            raise ParameterError("experiment record must hold data")
        if np.any(np.diff(self.xs) <= 0):
            raise ParameterError("sweep values must be strictly increasing")

    def to_csv(self, path):
        names = [self.sweep_variable, self.observable, "uncertainty"]
        names += list(self.columns)
        with open(path, "w") as f:
            f.write(",".join(names) + "\n")
            for i in range(self.xs.size):
                row = [self.xs[i], self.ys[i], 0.0]
                row += [self.columns[c][i] for c in self.columns]
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def fit_summary(self):
        """JSON-ready fits: each FitResult as a dict; entries that are
        already dicts of numbers (closed-form summaries) pass through."""
        out = {}
        for name, fit in self.fits.items():
            if isinstance(fit, dict):
                out[name] = fit
                continue
            out[name] = {
                "model": fit.model,
                "params": {k: float(v) for k, v in fit.params.items()},
                "uncertainties": {k: float(v) for k, v in fit.uncertainties.items()},
                "residual_norm": fit.residual_norm,
                "converged": fit.converged,
            }
        return out


# ---------------------------------------------------------------------------
# decay / coherence experiments
# ---------------------------------------------------------------------------

def default_fock_delays():
    """Fit window for the Fock decay.

    The first point sits past ~2 qubit lifetimes: retrieval re-excites the
    in-pulse qubit-decay products, and their relaxation back into |g,1>
    feeds the signal during the first couple of T1_q (the short-delay
    artifact the measurement would also show).
    """
    return np.array([3.0, 4.5, 6.0, 7.5, 9.0, 11.0, 13.5, 16.0])


def _checked(name, values, least=-math.inf):
    """values as floats; an empty list, or a value that is not finite or
    is below least, raises ParameterError naming name."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ParameterError(f"no {name} given")
    if not np.all(np.isfinite(values) & (values >= least)):
        bound = "" if least == -math.inf else f" and >= {least:g}"
        raise ParameterError(f"{name} must be finite{bound}, got {values}")
    return values


def _delays(delays, default):
    """delays in us, default where None, as memory_sweep checks them."""
    if delays is not None and np.size(delays) == 0:
        raise ParameterError("no delays given; None runs the defaults")
    return _checked("delays", default if delays is None else delays, 0.0)


def fock_decay_experiment(p: DeviceParams, delays=None,
                          options: ProtocolOptions = ProtocolOptions()):
    """Store Fock |1> (ground-state input), vary the idle delay, fit T1_s."""
    delays = _delays(delays, default_fock_delays())
    t1_expected = 1.0 / p.angular().k_s
    if delays.max() < 2.0 * t1_expected:
        raise ParameterError(
            f"delays must span >= 2x the expected lifetime {t1_expected:.2f} us")
    if delays.max() - delays.min() < 1.5 * t1_expected:
        raise ParameterError("delay window too narrow for a stable fit")
    analysis.check_point_count("exponential", delays.size)
    pgs = memory_sweep(p, 0.0, delays, options)
    fit = analysis.fit_exponential(delays, pgs)
    return ExperimentRecord(sweep_variable="delay_us", observable="p_g",
                            xs=delays, ys=pgs, fits={"T1_s": fit})


def memory_ramsey_experiment(p: DeviceParams, delays=None, detuning=0.35,
                             options: ProtocolOptions = ProtocolOptions()):
    """Ramsey on the memory: prep pi/2, store, retrieve, analyze with a
    software-detuned pi/2.  detuning in MHz; fits a decaying cosine for T2_s.

    The observed fringe frequency includes the small offset between the
    calibrated pulse carriers (Stark-shifted optimum) and the idle dressed
    frame, exactly like a lab LO mismatch; the T2 extraction is unaffected.
    """
    delays = _delays(delays, np.linspace(0.25, 21.0, 22))
    if not math.isfinite(detuning):
        raise ParameterError(f"detuning must be a finite frequency in MHz, "
                             f"got {detuning!r}")
    span = delays.max() - delays.min()
    if detuning * span < 3.0:
        raise ParameterError(
            f"detuning {detuning} MHz gives fewer than 3 fringes over {span} us")
    analysis.check_point_count("decaying-cosine", delays.size)
    cal = get_calibration(p, options)
    q = cal.qubit
    # analysis pulse: half-area at the pi-pulse duration, phase advanced by
    # the software detuning
    analysis_pulses = [
        (PulseSegment(QUBIT_CHANNEL, 0.5 * q.amplitude, q.carrier,
                      phase=TWO_PI * detuning * d, plateau=q.plateau,
                      start=0.0, label="ramsey-analysis"),)
        for d in delays]
    pgs = memory_sweep(p, math.pi / 2.0, delays, options, cal,
                       analysis_pulses)
    fit = analysis.fit_decaying_cosine(delays, pgs)
    return ExperimentRecord(sweep_variable="delay_us", observable="p_g",
                            xs=delays, ys=pgs, fits={"T2_s": fit})


def mode_ringdown_experiment(p: DeviceParams, mode="readout",
                             options: ProtocolOptions = ProtocolOptions()):
    """Displace a cavity mode to a coherent amplitude near 0.45, switch the
    drive off and fit the free decay.

    The free decay is sampled at 121 equally spaced times t_k over
    5/kappa: lindblad.propagate takes 121 copies of the driven state,
    column k exactly across (t_end, t_end + t_k).  Reports the
    field-amplitude decay time (2/kappa) and the energy decay time
    (1/kappa).
    """
    a = p.angular()
    freqs = dressed_frequencies(p, options.dims)
    if mode == "readout":
        channel, slot, carrier, kappa = READOUT_CHANNEL, 2, freqs[2], a.k_ro
    elif mode == "storage":
        channel, slot, carrier, kappa = STORAGE_CHANNEL, 1, freqs[1], a.k_s
    else:
        raise ParameterError(f"unknown mode {mode!r}")

    # drive long enough to settle near the target coherent amplitude
    target_amp = 0.45
    drive_len = min(6.0 / kappa, 0.12)
    amp = 2.0 * target_amp / drive_len if kappa * drive_len < 1.0 \
        else target_amp * kappa
    seg = PulseSegment(channel, amp, carrier, plateau=drive_len, start=0.0,
                       label="displace")
    model, driven = simulate_sequence(p, PulseSequence((seg,)), options)
    low = qsys.tensor_embed(qsys.annihilation(options.dims.dim_of(slot)),
                            slot, options.dims)
    n_op = low.conj().T @ low

    t = np.linspace(0.0, 2.5 * (2.0 / kappa), 121)
    x = propagate([model] * len(t), np.tile(driven.rho.reshape(-1, 1), len(t)),
                  (seg.end, seg.end + t), options.dt_pulse)
    rhos = x.T.reshape((len(t),) + driven.rho.shape)
    amp_abs = np.abs(np.trace(rhos @ low, axis1=1, axis2=2))
    n_vals = np.trace(rhos @ n_op, axis1=1, axis2=2).real

    fit_amp = analysis.fit_exponential(t, amp_abs)
    fit_n = analysis.fit_exponential(t, n_vals)
    return ExperimentRecord(
        sweep_variable="t_us", observable="field_amplitude", xs=t, ys=amp_abs,
        columns={"n": n_vals},
        fits={"amplitude_decay": fit_amp, "energy_decay": fit_n},
        extra={"mode": mode})


# ---------------------------------------------------------------------------
# the effective sideband rate against the full integration
# ---------------------------------------------------------------------------

@dataclass
class BsbComparison:
    measured_rate: float       # rad/us
    predicted_rate: float      # rad/us
    ratio: float
    carrier: float
    contrast: float


def effective_bsb_check(p: DeviceParams, drives,
                        options: ProtocolOptions = ProtocolOptions()):
    """Drive a constant sideband tone at each drive amplitude (rad/us) and
    compare the extracted |g0> <-> |e1> oscillation rate with the
    closed-form effective coupling; returns one BsbComparison per drive.

    The tone is placed at the model's own two-photon pair resonance, so the
    comparison isolates the rate rather than a detuning.  Each noiseless
    tone lasts 2.5 of its swap periods and is sampled 36 times per period:
    91 copies of each drive's tone, each read at one sample time, are the
    columns of one pulses.probe_transfers call on the noiseless frame of
    options.frame and options.dims, whose ramps step at pulses.PROBE_STEP
    as every calibration probe's do (or at the model's step bound where
    that is finer).  Each drive's rate comes from its own fit, and each
    drive's comparison is the one it gets alone.
    """
    if len(drives) == 0:
        raise ParameterError("no drives given")
    for drive in drives:
        if not 0.0 < drive < math.inf:
            raise ParameterError(f"each drive must be a finite amplitude > 0 "
                                 f"rad/us, got {drive:.6g}")
    dims = options.dims
    a = p.angular()
    if a.g > 0.2 * min(abs(a.w_q - a.w_s), abs(a.w_q - a.w_ro)):
        raise ParameterError("effective_bsb_check requires the dispersive regime")
    carrier = two_photon_resonance(p, dims)
    predicted = [bsb_effective_rate(p, drive, carrier=carrier)
                 for drive in drives]
    segments, times = [], []
    for drive, rate in zip(drives, predicted):
        period = math.pi / rate
        seg = PulseSegment(QUBIT_CHANNEL, drive, carrier, plateau=2.5 * period,
                           rise=1e-3, start=0.0, label="bsb-tone")
        segments += [seg] * 91
        times.append(np.linspace(0.0, seg.end, 91))   # 36 per swap period
    base = build_model(p, dims, frame=options.frame, noiseless=True)
    pops = np.split(pulses.probe_transfers(
        base, segments, np.concatenate(times), PROBE_STEP, (0, 0, 0)),
        len(times))
    out = []
    for t, pop, rate in zip(times, pops, predicted):
        fit = analysis.fit_decaying_cosine(t, pop)
        contrast = 2.0 * abs(fit.params["A"])
        if contrast < 0.2:
            raise IntegrationError(f"no discernible sideband oscillation "
                                   f"(contrast {contrast:.3f} < 0.2)")
        measured = math.pi * abs(fit.params["f"])
        out.append(BsbComparison(measured_rate=measured, predicted_rate=rate,
                                 ratio=measured / rate, carrier=carrier,
                                 contrast=contrast))
    return out


# ---------------------------------------------------------------------------
# Z-fidelity working points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkingPoint:
    """One protocol configuration of the Z-fidelity sweep."""

    bsb_amplitude: float
    qubit_pi_multiplier: int = 1


def default_working_points():
    """Seven points spanning protocol lengths of roughly 0.25 to 1.1 us,
    the longest one using 3pi qubit pulses."""
    return [
        WorkingPoint(TWO_PI * 12.0e3),
        WorkingPoint(TWO_PI * 9.0e3),
        WorkingPoint(TWO_PI * 7.0e3),
        WorkingPoint(TWO_PI * 6.0e3),
        WorkingPoint(TWO_PI * 4.6e3),
        WorkingPoint(TWO_PI * 3.6e3),
        WorkingPoint(TWO_PI * 3.2e3, qubit_pi_multiplier=3),
    ]


def _z_fidelity(p, p_g, seq):
    """(t_p, F_Z, F_Z_corr) from the zero-delay protocol seq's p_g."""
    t_p = seq.memory_duration
    return t_p, p_g, p_g / math.exp(-t_p / p.t1_q)


def z_fidelity_sweep(p: DeviceParams, working_points=None,
                     options: ProtocolOptions = ProtocolOptions(), fit=False):
    """Z fidelity and corrected Z fidelity versus protocol length, at zero
    storage delay.  The sideband calibrations run together
    (get_calibrations), and the protocols as the columns of one
    simulate_sequences call."""
    wps = default_working_points() if working_points is None else working_points
    if not wps:
        raise ParameterError("no working_points given; None runs the defaults")
    if fit:
        analysis.check_point_count("leakage", len(wps))
    cals = get_calibrations(p, options, [wp.bsb_amplitude for wp in wps])
    seqs = [build_memory_sequence(0.0, 0.0, cal,
                                  qubit_pi_multiplier=wp.qubit_pi_multiplier)
            for wp, cal in zip(wps, cals)]
    rows = [_z_fidelity(p, p_g, seq)
            for p_g, seq in zip(ground_populations(p, seqs, options), seqs)]
    t_ps, f_z, f_corr = np.array(sorted(rows, key=lambda r: r[0])).T
    fits = {}
    if fit:
        fits["leakage"] = analysis.fit_leakage(t_ps, f_corr)
    return ExperimentRecord(sweep_variable="t_p_us", observable="f_z",
                            xs=t_ps, ys=f_z, columns={"f_z_corr": f_corr},
                            fits=fits)


# ---------------------------------------------------------------------------
# process tomography of the memory channel
# ---------------------------------------------------------------------------

def memory_channel(p: DeviceParams, options: ProtocolOptions = ProtocolOptions(),
                   cal=None):
    """The storage/retrieval protocol as a map on 2x2 qubit states.

    The input state is placed on the (g, e) levels with both modes in
    vacuum; the output is the unnormalized (g, e) block of the retrieved
    transmon state (trace deficiency = leakage and loss).  The map takes
    one 2x2 input, or a stack (k, 2, 2) of them, propagated as the columns
    of one simulate_sequences call.
    """
    cal = cal or get_calibration(p, options)
    seq = build_memory_sequence(0.0, 0.0, cal)
    dims = options.dims
    qubit = np.array([dims.index(0, 0, 0), dims.index(1, 0, 0)])

    def channel(rho_in):
        inputs = np.reshape(rho_in, (-1, 2, 2))
        rho_full = np.zeros((len(inputs), dims.total, dims.total), dtype=complex)
        rho_full[:, qubit[:, None], qubit] = inputs
        _, states = simulate_sequences(p, [seq] * len(inputs), options, rho_full)
        return np.reshape([s.ptrace_transmon()[:2, :2] for s in states],
                          np.shape(rho_in))

    return channel


def _sampled_output(block, shots, rng):
    """The state tomography of the normalized 2x2 output block from shots
    binomial samples of each of its Pauli expectations."""
    rho_n = block / np.trace(block)
    ups = [min(1.0, max(0.0, 0.5 * (1.0 + np.real(np.trace(rho_n @ op)))))
           for op in tomography.PAULIS[1:]]
    return tomography.state_tomography(
        [2.0 * rng.binomial(shots, up) / shots - 1.0 for up in ups])


def qpt_experiment(p: DeviceParams, options: ProtocolOptions = ProtocolOptions()):
    """Process tomography of the memory protocol; returns the record of
    |chi| by chi index, its process_fidelity fit (raw and Z-optimized
    fidelities, Z rotation, Z fidelity and t_p) and chi as its extra.

    With options.shots set, each output is reconstructed from binomially
    sampled Pauli expectations (normalized, seeded by options.seed and the
    input's index in tomography.INPUT_STATES).  The four inputs propagate
    as the columns of one call (memory_channel), and the Z fidelity's p_g
    is the exact ground population of the |g> input's output.
    """
    cal = get_calibration(p, options)
    outputs = memory_channel(p, options, cal)(np.array(tomography.INPUT_STATES))
    blocks = outputs if options.shots is None else [
        _sampled_output(block, options.shots,
                        np.random.default_rng((options.seed, k)))
        for k, block in enumerate(outputs)]
    chi = tomography.process_tomography(blocks)
    f_raw = tomography.process_fidelity(chi)
    theta, f_opt = tomography.fidelity_with_z_optimization(chi)
    p_g = float(np.real(outputs[0][0, 0]))          # |g><g|
    t_p, f_z, _ = _z_fidelity(
        p, p_g, build_memory_sequence(0.0, 0.0, cal))
    return ExperimentRecord(
        sweep_variable="chi_index", observable="abs_chi",
        # scalar abs: numpy's vectorized complex abs differs in the last bit
        xs=np.arange(16), ys=[abs(c) for c in chi.ravel()],
        fits={"process_fidelity": {
            "f_qpt_raw": f_raw, "f_qpt": f_opt, "z_rotation_rad": theta,
            "f_z": f_z, "t_p_us": t_p}},
        extra={"chi": tomography.chi_export_dict(chi)})
