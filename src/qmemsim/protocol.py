"""End-to-end memory experiments: storage/retrieval, lifetime and coherence
measurements, mode ringdowns, Z-fidelity working-point sweeps and the process
tomography channel.

Readout convention: the retrieved ground-state population p_g is extracted by
tracing out both cavity modes and reading the transmon ground-level
population.  Storage-time axes count only the idle delay between the storage
and retrieval halves; protocol overhead is excluded.
"""

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import analysis, qsys, tomography
from .device import DeviceParams
from .errors import ParameterError
from .lindblad import (StaticPropagator, build_model, dressed_frequencies,
                       evolve, propagate_plateau)
from .pulses import (PulseSegment, PulseSequence, ProtocolCalibration,
                     QUBIT_CHANNEL, READOUT_CHANNEL, STORAGE_CHANNEL,
                     build_memory_sequence, calibrate_pi_pulse)
from .qsys import QuantumState, SubsystemDims
from .units import TWO_PI

QUBIT_AMPLITUDE = TWO_PI * 20.0             # rad/us (20 MHz Rabi)


@dataclass(frozen=True)
class ProtocolOptions:
    """Knobs shared by all experiments.

    The default drive amplitudes give a sideband pi pulse of ~190 ns and a
    qubit pi pulse of ~50 ns, i.e. a protocol length near 0.47 us.
    """

    dims: SubsystemDims = field(default_factory=SubsystemDims)
    frame: str = "dispersive"
    bsb_amplitude: float = TWO_PI * 5.1e3   # rad/us
    qubit_pi_multiplier: int = 1
    dt_pulse: float = 1e-4                  # us
    noiseless: bool = False
    storage_t_phi: float | None = None
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.dt_pulse > 0:
            raise ParameterError(
                f"dt_pulse must be > 0 us, got {self.dt_pulse!r} us")
        if self.shots is not None and self.shots < 1:
            raise ParameterError(f"shots must be >= 1, got {self.shots!r}")

    def replace(self, **kw):
        return dc_replace(self, **kw)


_CAL_CACHE = {}


def _cal_key(p, options, channel, amplitude):
    return (tuple(sorted(p.as_dict().items())), options.dims.as_tuple(),
            options.frame, channel, amplitude)


def get_calibration(p: DeviceParams, options: ProtocolOptions):
    """Calibrate (or fetch cached) qubit and sideband pi pulses."""
    key_q = _cal_key(p, options, QUBIT_CHANNEL, QUBIT_AMPLITUDE)
    if key_q not in _CAL_CACHE:
        _CAL_CACHE[key_q] = calibrate_pi_pulse(
            p, options.dims, QUBIT_CHANNEL, QUBIT_AMPLITUDE, frame=options.frame)
    key_b = _cal_key(p, options, "bsb", options.bsb_amplitude)
    if key_b not in _CAL_CACHE:
        _CAL_CACHE[key_b] = calibrate_pi_pulse(
            p, options.dims, "bsb", options.bsb_amplitude, frame=options.frame)
    return ProtocolCalibration(qubit=_CAL_CACHE[key_q], bsb=_CAL_CACHE[key_b])


def simulate_sequence(p: DeviceParams, seq: PulseSequence,
                      options: ProtocolOptions, rho0=None, start=0.0,
                      upto=None):
    """Run a pulse sequence piecewise between its segment edges and the
    edges of their plateaus.

    A window with no active term (``model.active_terms``) is propagated
    exactly by one StaticPropagator, built the first time the run meets
    such a window.  A window whose active terms are all on their plateaus,
    in a frame that rotates with their carriers (``model.carrier_frame``),
    is propagated exactly by propagate_plateau: the sideband and qubit
    plateaus in the dispersive frame, and in the bare frame also the idle
    windows with their always-on couplings.  Any other window, the pulse
    ramps and every driven window of the lab frame, is integrated by RK4 at
    the fixed step options.dt_pulse.  Starts from rho0 at time start, by
    default the ground product state at 0, and stops at upto, by default
    the readout marker; the windows after start are those of the whole run.
    Returns (model, final QuantumState).
    """
    model = build_model(p, options.dims, seq, frame=options.frame,
                        noiseless=options.noiseless,
                        storage_t_phi=options.storage_t_phi)
    state = rho0 if rho0 is not None else qsys.basis_state(options.dims)
    t_end = upto if upto is not None else (seq.readout_time or seq.end)

    events = {start, t_end}
    for s in seq.segments:
        if s.start < t_end:
            events.update(min(e, t_end) for e in
                          (s.start, s.start + s.ramp, s.end - s.ramp, s.end))
    events = sorted(e for e in events if e >= start)

    static = None
    for t0, t1 in zip(events, events[1:]):
        if t1 - t0 < 1e-12:
            continue
        if not model.active_terms(t0, t1):
            if static is None:
                static = StaticPropagator(model)
            state = static.propagate(state, (t0, t1))[-1]
        elif (frame := model.carrier_frame(t0, t1)) is not None:
            state = propagate_plateau(model, state, (t0, t1), frame)
        else:
            state = evolve(model, state, (t0, t1), options.dt_pulse)[-1]
    return model, state


def ground_population(model, state):
    return float(np.real(np.trace(state.rho @ model.label_projector(nt=0))))


def run_memory_protocol(p: DeviceParams, prep_angle=0.0, storage_delay=0.0,
                        options: ProtocolOptions | None = None, cal=None,
                        extra_segments=()):
    """Full storage/retrieval protocol; returns the retrieved p_g.

    extra_segments (e.g. a trailing analysis pulse) are appended before the
    readout marker.
    """
    options = options or ProtocolOptions()
    cal = cal or get_calibration(p, options)
    seq = _memory_sequence(p, prep_angle, storage_delay, options, cal,
                           extra_segments)
    model, state = simulate_sequence(p, seq, options)
    return ground_population(model, state)


def _memory_sequence(p, prep_angle, storage_delay, options, cal,
                     extra_segments=()):
    seq = build_memory_sequence(p, prep_angle, storage_delay, cal,
                                qubit_pi_multiplier=options.qubit_pi_multiplier)
    for seg in extra_segments:
        seg = seg.shifted(seq.readout_time)
        seq = PulseSequence(seq.segments + (seg,), readout_time=seg.end)
    return seq


def _storage_half(p, prep_angle, options, cal):
    """(t_half, state) after the preparation, sideband pi and qubit pi, in
    the windows of the protocol at any delay (its retrieval starts later)."""
    seq = _memory_sequence(p, prep_angle, 0.0, options, cal)
    t_half = max(s.end for s in seq.labeled("qubit-pi-store"))
    return t_half, simulate_sequence(p, seq, options, upto=t_half)[1]


def _delay_sweep(p, prep_angle, delays, options, cal, extra_segments=None):
    """run_memory_protocol's p_g at each delay, bit for bit, with the
    storage half simulated once: each delay runs only its idle window and
    its retrieval.  extra_segments holds one tuple per delay."""
    t_half, half = _storage_half(p, prep_angle, options, cal)
    pgs = []
    for d, extra in zip(delays, extra_segments or [()] * len(delays)):
        seq = _memory_sequence(p, prep_angle, d, options, cal, extra)
        model, state = simulate_sequence(p, seq, options, rho0=half,
                                         start=t_half)
        pgs.append(ground_population(model, state))
    return np.array(pgs)


def storage_state_after_half(p: DeviceParams, prep_angle=0.0,
                             options: ProtocolOptions | None = None, cal=None):
    """Reduced storage-mode state right after the storage half."""
    options = options or ProtocolOptions()
    cal = cal or get_calibration(p, options)
    return _storage_half(p, prep_angle, options, cal)[1].ptrace_storage()


# ---------------------------------------------------------------------------
# experiment records
# ---------------------------------------------------------------------------

@dataclass
class ExperimentRecord:
    """Tabulated sweep output plus fits: what results.csv and fits.json
    hold."""

    sweep_variable: str
    observable: str
    xs: np.ndarray
    ys: np.ndarray
    columns: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)

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


def fock_decay_experiment(p: DeviceParams, delays=None,
                          options: ProtocolOptions | None = None):
    """Store Fock |1> (ground-state input), vary the idle delay, fit T1_s."""
    options = options or ProtocolOptions()
    delays = np.asarray(default_fock_delays() if delays is None else delays,
                        dtype=float)
    t1_expected = 1.0 / p.angular().k_s
    if delays.max() < 2.0 * t1_expected:
        raise ParameterError(
            f"delays must span >= 2x the expected lifetime {t1_expected:.2f} us")
    if delays.max() - delays.min() < 1.5 * t1_expected:
        raise ParameterError("delay window too narrow for a stable fit")
    cal = get_calibration(p, options)
    pgs = _delay_sweep(p, 0.0, delays, options, cal)
    fit = analysis.fit_exponential(delays, pgs)
    return ExperimentRecord(sweep_variable="delay_us", observable="p_g",
                            xs=delays, ys=pgs, fits={"T1_s": fit})


def memory_ramsey_experiment(p: DeviceParams, delays=None, detuning=0.35,
                             options: ProtocolOptions | None = None):
    """Ramsey on the memory: prep pi/2, store, retrieve, analyze with a
    software-detuned pi/2.  detuning in MHz; fits a decaying cosine for T2_s.

    The observed fringe frequency includes the small offset between the
    calibrated pulse carriers (Stark-shifted optimum) and the idle dressed
    frame, exactly like a lab LO mismatch; the T2 extraction is unaffected.
    """
    options = options or ProtocolOptions()
    if delays is None:
        delays = np.linspace(0.25, 21.0, 22)
    delays = np.asarray(delays, dtype=float)
    span = delays.max() - delays.min()
    if detuning * span < 3.0:
        raise ParameterError(
            f"detuning {detuning} MHz gives fewer than 3 fringes over {span} us")
    cal = get_calibration(p, options)
    q = cal.qubit
    # analysis pulse: half-area at the pi-pulse duration, phase advanced by
    # the software detuning
    analysis_pulses = [
        (PulseSegment(QUBIT_CHANNEL, 0.5 * q.amplitude, q.carrier,
                      phase=TWO_PI * detuning * d, plateau=q.plateau,
                      rise=q.rise, start=0.0, label="ramsey-analysis"),)
        for d in delays]
    pgs = _delay_sweep(p, math.pi / 2.0, delays, options, cal, analysis_pulses)
    fit = analysis.fit_decaying_cosine(delays, pgs)
    return ExperimentRecord(sweep_variable="delay_us", observable="p_g",
                            xs=delays, ys=pgs, fits={"T2_s": fit})


def prep_angle_sweep(p: DeviceParams, angles=None, delay=0.25,
                     options: ProtocolOptions | None = None):
    """Retrieved p_g versus preparation angle at a fixed delay (Rabi
    pattern)."""
    options = options or ProtocolOptions()
    if angles is None:
        angles = np.linspace(0.0, 2.0 * math.pi, 13)
    angles = np.asarray(angles, dtype=float)
    cal = get_calibration(p, options)
    pgs = [run_memory_protocol(p, a, delay, options, cal) for a in angles]
    return ExperimentRecord(sweep_variable="prep_angle_rad", observable="p_g",
                            xs=angles, ys=pgs)


def mode_ringdown_experiment(p: DeviceParams, mode="readout",
                             options: ProtocolOptions | None = None):
    """Displace a cavity mode to a coherent amplitude near 0.45, switch the
    drive off and fit the free decay.

    The free decay is propagated exactly and sampled at 121 equally spaced
    times over 5/kappa.  Reports the field-amplitude decay time (2/kappa)
    and the energy decay time (1/kappa).
    """
    options = options or ProtocolOptions()
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

    span = 2.5 * (2.0 / kappa)
    steps = 120
    states = StaticPropagator(model).propagate(
        driven, (seg.end, seg.end + span), steps=steps)
    t = np.linspace(0.0, span, steps + 1)
    amp_abs = np.array([abs(np.trace(s.rho @ low)) for s in states])
    n_vals = np.array([np.trace(s.rho @ n_op).real for s in states])

    fit_amp = analysis.fit_exponential(t, amp_abs)
    fit_n = analysis.fit_exponential(t, n_vals)
    return ExperimentRecord(
        sweep_variable="t_us", observable="field_amplitude", xs=t, ys=amp_abs,
        columns={"n": n_vals},
        fits={"amplitude_decay": fit_amp, "energy_decay": fit_n})


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


def z_fidelity_point(p: DeviceParams, wp: WorkingPoint,
                     options: ProtocolOptions | None = None):
    """(t_p, F_Z, F_Z_corr) at one working point, zero storage delay."""
    options = (options or ProtocolOptions()).replace(
        bsb_amplitude=wp.bsb_amplitude,
        qubit_pi_multiplier=wp.qubit_pi_multiplier)
    cal = get_calibration(p, options)
    p_g = run_memory_protocol(p, 0.0, 0.0, options, cal)
    return _z_fidelity(p, p_g, options, cal)


def _z_fidelity(p, p_g, options, cal):
    """(t_p, F_Z, F_Z_corr) from the zero-delay protocol's retrieved p_g."""
    seq = build_memory_sequence(p, 0.0, 0.0, cal,
                                qubit_pi_multiplier=options.qubit_pi_multiplier)
    t_p = seq.memory_duration
    return t_p, p_g, p_g / math.exp(-t_p / p.t1_q)


def z_fidelity_sweep(p: DeviceParams, working_points=None,
                     options: ProtocolOptions | None = None, fit=False):
    """Z fidelity and corrected Z fidelity versus protocol length."""
    options = options or ProtocolOptions()
    working_points = working_points or default_working_points()
    rows = [z_fidelity_point(p, wp, options) for wp in working_points]
    rows.sort(key=lambda r: r[0])
    t_ps = np.array([r[0] for r in rows])
    f_z = np.array([r[1] for r in rows])
    f_corr = np.array([r[2] for r in rows])
    fits = {}
    if fit:
        fits["leakage"] = analysis.fit_leakage(t_ps, f_corr)
    return ExperimentRecord(sweep_variable="t_p_us", observable="f_z",
                            xs=t_ps, ys=f_z, columns={"f_z_corr": f_corr},
                            fits=fits)


# ---------------------------------------------------------------------------
# process tomography of the memory channel
# ---------------------------------------------------------------------------

def memory_channel(p: DeviceParams, options: ProtocolOptions | None = None,
                   cal=None):
    """The storage/retrieval protocol as a map on 2x2 qubit states.

    The input state is placed on the (g, e) levels with both modes in
    vacuum; the output is the unnormalized (g, e) block of the retrieved
    transmon state (trace deficiency = leakage and loss).
    """
    options = options or ProtocolOptions()
    cal = cal or get_calibration(p, options)
    seq = build_memory_sequence(p, 0.0, 0.0, cal,
                                qubit_pi_multiplier=options.qubit_pi_multiplier)
    dims = options.dims

    def channel(rho_in):
        rho_full = np.zeros((dims.total, dims.total), dtype=complex)
        for i in range(2):
            for j in range(2):
                rho_full[dims.index(i, 0, 0), dims.index(j, 0, 0)] = rho_in[i, j]
        _, state = simulate_sequence(
            p, seq, options, rho0=QuantumState(rho_full, dims))
        return state.ptrace_transmon()[:2, :2]

    return channel


def qpt_experiment(p: DeviceParams, options: ProtocolOptions | None = None):
    """Process tomography of the memory protocol; returns a dict with the
    chi matrix, raw and Z-optimized process fidelities and the Z fidelity at
    the same working point.

    With options.shots set, each output is reconstructed from binomially
    sampled Pauli expectations (normalized, seeded by options.seed and the
    input's index in tomography.INPUT_STATES).  The Z fidelity's p_g is the
    exact ground population of the |g> input's output, so the zero-delay
    protocol runs once per input.
    """
    options = options or ProtocolOptions()
    cal = get_calibration(p, options)
    exact = memory_channel(p, options, cal)
    p_g = []

    def channel(rho_in):
        block = exact(rho_in)
        k = next(i for i, rho in enumerate(tomography.INPUT_STATES)
                 if rho is rho_in)
        if k == 0:                                   # |g><g|
            p_g.append(float(np.real(block[0, 0])))
        if options.shots is None:
            return block
        rng = np.random.default_rng((options.seed, k))
        rho_n = block / np.trace(block)
        out = {}
        for name, op in (("X", tomography.PAULI_X), ("Y", tomography.PAULI_Y),
                         ("Z", tomography.PAULI_Z)):
            prob_up = 0.5 * (1.0 + np.real(np.trace(rho_n @ op)))
            prob_up = min(1.0, max(0.0, prob_up))
            k = rng.binomial(options.shots, prob_up)
            out[name] = 2.0 * k / options.shots - 1.0
        return tomography.state_tomography(lambda ax: out[ax])

    chi = tomography.process_tomography(channel)
    f_raw = tomography.process_fidelity(chi)
    theta, f_opt = tomography.fidelity_with_z_optimization(chi)
    t_p, f_z, f_z_corr = _z_fidelity(p, p_g[0], options, cal)
    return {
        "chi": chi,
        "f_qpt_raw": f_raw,
        "f_qpt": f_opt,
        "z_rotation_rad": theta,
        "f_z": f_z,
        "f_z_corr": f_z_corr,
        "t_p_us": t_p,
    }
