"""Flat-top Gaussian pulses, protocol sequences and pi-pulse calibration.

Envelope convention: rise time maps to the Gaussian width as rise = 2*sigma;
the Gaussian ramps are truncated at +/- 2.5 sigma, shifted to a zero baseline
and renormalized so the plateau joins at exactly the full amplitude.  A
segment therefore occupies plateau + 5*sigma = plateau + 2.5*rise of wall
time and the envelope is continuous everywhere (exactly zero outside).

Amplitudes are angular (rad/us): for a resonant qubit-charge pulse the
amplitude equals the Rabi frequency, so a square pi-pulse lasts pi/amplitude.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .device import DeviceParams, bsb_frequency, bsb_effective_rate
from .errors import CalibrationError, ParameterError

# drive channels
QUBIT_CHANNEL = "qubit-charge"
STORAGE_CHANNEL = "storage-direct"
READOUT_CHANNEL = "readout-direct"
CHANNELS = (QUBIT_CHANNEL, STORAGE_CHANNEL, READOUT_CHANNEL)

DEFAULT_RISE = 0.020  # us
TRUNC_SIGMAS = 2.5    # ramps truncated at +/- 2.5 sigma

# baseline of the truncated Gaussian, exp(-2.5^2 / 2)
_G0 = math.exp(-0.5 * TRUNC_SIGMAS**2)

# per-ramp area of the renormalized envelope, in units of amplitude*sigma:
#   integral of (exp(-x^2/2s^2) - g0) / (1 - g0) over one ramp
_RAMP_AREA = (
    math.sqrt(math.pi / 2.0) * math.erf(TRUNC_SIGMAS / math.sqrt(2.0))
    - TRUNC_SIGMAS * _G0
) / (1.0 - _G0)

# per-ramp area of the squared envelope, in units of amplitude^2*sigma
_RAMP_AREA_SQ = (
    math.sqrt(math.pi) / 2.0 * math.erf(TRUNC_SIGMAS)
    - 2.0 * _G0 * math.sqrt(math.pi / 2.0) * math.erf(TRUNC_SIGMAS / math.sqrt(2.0))
    + TRUNC_SIGMAS * _G0**2
) / (1.0 - _G0) ** 2


@dataclass(frozen=True)
class PulseSegment:
    """One flat-top Gaussian pulse on a single drive channel.

    start marks the beginning of the rising ramp; the plateau spans
    [start + 2.5 sigma, start + 2.5 sigma + plateau].  carrier and amplitude
    are angular (rad/us), times in us.
    """

    target: str
    amplitude: float
    carrier: float
    phase: float = 0.0
    plateau: float = 0.0
    rise: float = DEFAULT_RISE
    start: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.target not in CHANNELS:
            raise ParameterError(f"unknown drive channel {self.target!r}")
        if self.amplitude < 0:
            raise ParameterError("amplitude must be >= 0")
        if self.plateau < 0:
            raise ParameterError("plateau must be >= 0")
        if self.rise <= 0:
            raise ParameterError("rise must be > 0")

    @property
    def sigma(self):
        return 0.5 * self.rise

    @property
    def ramp(self):
        """Wall-time taken by one truncated Gaussian ramp."""
        return TRUNC_SIGMAS * self.sigma

    @property
    def duration(self):
        return self.plateau + 2.0 * self.ramp

    @property
    def end(self):
        return self.start + self.duration

    def envelope_at(self, t):
        """Envelope value at time(s) t.  Accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        x = t - self.start
        up_end = self.ramp
        flat_end = self.ramp + self.plateau
        out = np.zeros_like(x)

        rising = (x >= 0) & (x < up_end)
        falling = (x > flat_end) & (x <= flat_end + self.ramp)
        flat = (x >= up_end) & (x <= flat_end)

        g_up = np.exp(-0.5 * ((x[rising] - up_end) / self.sigma) ** 2)
        g_dn = np.exp(-0.5 * ((x[falling] - flat_end) / self.sigma) ** 2)
        out[rising] = (g_up - _G0) / (1.0 - _G0)
        out[falling] = (g_dn - _G0) / (1.0 - _G0)
        out[flat] = 1.0
        result = self.amplitude * out
        return float(result) if result.ndim == 0 else result

    def area(self):
        """Time integral of the envelope (rad)."""
        return self.amplitude * (self.plateau + 2.0 * _RAMP_AREA * self.sigma)

    def squared_area(self):
        """Time integral of the squared envelope (rad^2/us)."""
        return self.amplitude**2 * (self.plateau + 2.0 * _RAMP_AREA_SQ * self.sigma)

    def equivalent_width(self):
        """Duration of the square pulse with the same area and amplitude."""
        return self.plateau + 2.0 * _RAMP_AREA * self.sigma

    def shifted(self, start):
        return replace(self, start=start)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered, per-channel non-overlapping pulse segments.

    total_duration runs from the start of the first segment to the end of the
    last one.  readout_time marks when the dispersive readout would fire; the
    readout itself is a marker, not a simulated microwave pulse.
    """

    segments: tuple
    readout_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        by_channel = {}
        for seg in self.segments:
            by_channel.setdefault(seg.target, []).append(seg)
        for channel, segs in by_channel.items():
            segs = sorted(segs, key=lambda s: s.start)
            for a, b in zip(segs, segs[1:]):
                if b.start < a.end - 1e-12:
                    raise ParameterError(
                        f"overlapping segments on {channel}: "
                        f"[{a.start}, {a.end}] and [{b.start}, {b.end}]"
                    )

    @property
    def start(self):
        return min(s.start for s in self.segments) if self.segments else 0.0

    @property
    def end(self):
        return max(s.end for s in self.segments) if self.segments else 0.0

    @property
    def total_duration(self):
        return self.end - self.start

    def labeled(self, label):
        return [s for s in self.segments if s.label == label]

    def memory_window(self):
        """(start, end) of the memory operations (preparation excluded)."""
        ops = [s for s in self.segments if s.label != "prep"]
        if not ops:
            return (0.0, 0.0)
        return (min(s.start for s in ops), max(s.end for s in ops))

    @property
    def memory_duration(self):
        """Protocol length t_p: storage+retrieval pulses, preparation excluded."""
        t0, t1 = self.memory_window()
        return t1 - t0


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated pi-pulse for one drive channel.

    pi_time is the square-pulse-equivalent duration (area/amplitude for the
    linear channels, squared-area/peak rate for the sideband), so it can be
    compared directly against pi/Omega_rabi or pi/(2*Omega_eff).
    freq_offset is the measured shift of the actual resonance from the
    nominal carrier (dressing plus any residual drive-induced shift).
    """

    amplitude: float
    plateau: float
    carrier: float
    freq_offset: float
    transfer: float
    pi_time: float
    rise: float = DEFAULT_RISE


@dataclass(frozen=True)
class ProtocolCalibration:
    """Calibrations for the two pulses the memory protocol needs."""

    qubit: CalibrationResult
    bsb: CalibrationResult


def build_memory_sequence(p: DeviceParams, prep_angle, storage_delay, cal,
                          qubit_pi_multiplier=1):
    """Assemble the storage/retrieval protocol of the memory experiment.

    Layout: [qubit prep(theta)] [BSB pi] [qubit pi * multiplier]
    ... storage_delay ... [qubit pi * multiplier] [BSB pi] [readout marker].
    The retrieval half is the time-mirror of the storage half.  The prep
    rotation is set through the pulse amplitude at fixed pi-pulse duration;
    a zero angle omits the segment entirely.
    """
    if cal is None or cal.qubit is None or cal.bsb is None:
        raise CalibrationError("memory sequence requires qubit and BSB calibrations")
    if qubit_pi_multiplier < 1 or qubit_pi_multiplier % 2 == 0:
        raise ParameterError("qubit_pi_multiplier must be an odd positive integer")
    if storage_delay < 0:
        raise ParameterError("storage_delay must be >= 0")

    q, b = cal.qubit, cal.bsb
    m = qubit_pi_multiplier
    # plateau for an m*pi rotation at the calibrated amplitude: the ramps
    # contribute a fixed area, the plateau supplies the rest
    ramp_area_time = 2.0 * _RAMP_AREA * (0.5 * q.rise)
    q_plateau_m = m * (q.plateau + ramp_area_time) - ramp_area_time
    segs = []
    t = 0.0

    if prep_angle != 0.0:
        segs.append(PulseSegment(
            QUBIT_CHANNEL, abs(prep_angle) / math.pi * q.amplitude, q.carrier,
            phase=math.pi if prep_angle < 0 else 0.0,
            plateau=q.plateau, rise=q.rise, start=t, label="prep",
        ))
    t += q.plateau + 2.5 * q.rise

    # the two-photon sideband tone is applied through the qubit-charge port
    segs.append(PulseSegment(
        QUBIT_CHANNEL, b.amplitude, b.carrier, plateau=b.plateau, rise=b.rise,
        start=t, label="bsb-store",
    ))
    t += b.plateau + 2.5 * b.rise

    segs.append(PulseSegment(
        QUBIT_CHANNEL, q.amplitude, q.carrier, plateau=q_plateau_m,
        rise=q.rise, start=t, label="qubit-pi-store",
    ))
    t += q_plateau_m + 2.5 * q.rise

    t += storage_delay

    segs.append(PulseSegment(
        QUBIT_CHANNEL, q.amplitude, q.carrier, plateau=q_plateau_m,
        rise=q.rise, start=t, label="qubit-pi-retrieve",
    ))
    t += q_plateau_m + 2.5 * q.rise

    segs.append(PulseSegment(
        QUBIT_CHANNEL, b.amplitude, b.carrier, plateau=b.plateau, rise=b.rise,
        start=t, label="bsb-retrieve",
    ))
    t += b.plateau + 2.5 * b.rise

    return PulseSequence(tuple(segs), readout_time=t)


# ---------------------------------------------------------------------------
# pi-pulse calibration against the simulator
# ---------------------------------------------------------------------------

def _probe_transfers(params, dims, segments, frame, dt, initial, target):
    """Noiseless transfer probabilities of trial segments, one per segment,
    propagated together as one batch of kets; the probes' models share one
    frame, built once.

    The ramps step by RK4 (lindblad.evolve_kets) and the plateaus, where
    each probe's generator is constant in a frame rotating with its
    carriers, propagate exactly (lindblad.propagate_plateau_kets).  In the
    lab frame no such frame exists, and each whole probe steps by RK4.
    """
    from .lindblad import build_model, evolve_kets, propagate_plateau_kets

    base = build_model(params, dims, frame=frame, noiseless=True)
    models = [base.with_sequence(PulseSequence((seg,))) for seg in segments]
    psi = np.eye(dims.total)[dims.index(*initial)]
    plateaus = [(seg.start + seg.ramp, seg.end - seg.ramp) for seg in segments]
    frames = [model.carrier_frame(*span) for model, span in zip(models, plateaus)]
    if any(f is None for f in frames):
        psi = evolve_kets(models, [(seg.start, seg.end) for seg in segments],
                          psi, dt)
    else:
        psi = evolve_kets(models, [(seg.start, t0) for seg, (t0, _)
                                   in zip(segments, plateaus)], psi, dt)
        psi = propagate_plateau_kets(models, plateaus, psi, frames)
        psi = evolve_kets(models, [(t1, seg.end) for seg, (_, t1)
                                   in zip(segments, plateaus)], psi, dt)
    return np.abs(psi[dims.index(*target)]) ** 2


def _parabolic_peak(xs, ys):
    """Vertex of the parabola through the best point and its neighbours."""
    i = int(np.argmax(ys))
    if i == 0 or i == len(xs) - 1:
        return xs[i]
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    denom = (y0 - 2 * y1 + y2)
    if abs(denom) < 1e-15:
        return x1
    return x1 + 0.5 * (y0 - y2) / denom * (x1 - x0)


def calibrate_pi_pulse(params: DeviceParams, dims, channel, amplitude, *,
                       frame="dispersive", rise=DEFAULT_RISE):
    """Calibrate a pi pulse on the qubit or sideband channel.

    Scans the carrier about the model's own resonance and then the plateau
    duration, maximizing the target transfer (|g> -> |e> for the qubit
    channel, |g0> -> |e1> for the sideband) in a noiseless simulation.
    Deterministic: fixed scan grids plus parabolic refinement.  Each of the
    five stages (9 and 5 carriers, 9 and 5 plateaus, the final pulse)
    propagates its trial pulses as one batch of kets (_probe_transfers):
    their ramps by RK4 at a fixed step of 1e-4 us for the qubit and 5e-4 us
    for the sideband, and their plateaus exactly.

    Returns a CalibrationResult whose freq_offset is the found carrier minus
    the nominal one (bare qubit frequency, or half the nominal sideband
    frequency).
    """
    from .lindblad import dressed_frequencies, two_photon_resonance

    if amplitude <= 0:
        raise CalibrationError("drive amplitude must be > 0")
    if channel not in (QUBIT_CHANNEL, "bsb"):
        raise CalibrationError(f"cannot calibrate pi pulses on channel {channel!r}")

    a = params.angular()
    sigma = 0.5 * rise

    if channel == QUBIT_CHANNEL:
        nominal = a.w_q
        center = dressed_frequencies(params, dims)[0]
        pi_width = math.pi / amplitude
        initial, target = (0, 0, 0), (1, 0, 0)
        window = max(0.15 * amplitude, 2.0 * math.pi * 0.5)
        ramp_eq = 2.0 * _RAMP_AREA * sigma
    else:
        nominal = 0.5 * bsb_frequency(params)
        center = two_photon_resonance(params, dims)
        omega_eff = bsb_effective_rate(params, amplitude, carrier=center)
        pi_width = math.pi / (2.0 * omega_eff)
        initial, target = (0, 0, 0), (1, 1, 0)
        window = max(1.5 * omega_eff, 2.0 * math.pi * 0.3)
        ramp_eq = 2.0 * _RAMP_AREA_SQ * sigma

    plateau0 = pi_width - ramp_eq
    if plateau0 < 0:
        raise CalibrationError(
            f"amplitude too large for rise {rise} us: pi width {pi_width:.4g} us "
            f"is shorter than the ramps ({ramp_eq:.4g} us)"
        )

    # the sideband probe dynamics is MHz-scale (two-photon term only), so a
    # coarser fixed step resolves its ramps; qubit probes keep the fine
    # default
    probe_dt = 5e-4 if channel == "bsb" else 1e-4

    def probe(plateau, carrier):
        segs = [PulseSegment(QUBIT_CHANNEL, amplitude, c, plateau=pl, rise=rise,
                             start=0.0)
                for pl, c in np.broadcast(plateau, carrier)]
        return _probe_transfers(params, dims, segs, frame, probe_dt, initial,
                                target)

    # carrier scan at the estimated pi plateau, then parabolic refinement
    offsets = np.linspace(-window, window, 9)
    transfers = probe(plateau0, center + offsets)
    best = _parabolic_peak(offsets, transfers)
    fine = np.linspace(best - window / 8, best + window / 8, 5)
    transfers = probe(plateau0, center + fine)
    carrier = center + _parabolic_peak(fine, transfers)

    # plateau scan around the analytic estimate
    width0 = plateau0 + ramp_eq
    lo = max(0.0, 0.7 * width0 - ramp_eq)
    hi = 1.3 * width0 - ramp_eq
    plateaus = np.linspace(lo, hi, 9)
    transfers = probe(plateaus, carrier)
    best_pl = _parabolic_peak(plateaus, transfers)
    fine = np.linspace(best_pl - (hi - lo) / 8.0, best_pl + (hi - lo) / 8.0, 5)
    fine = np.clip(fine, 0.0, None)
    transfers = probe(fine, carrier)
    plateau = float(np.clip(_parabolic_peak(fine, transfers), 0.0, None))

    transfer = float(probe(plateau, carrier)[0])
    if transfer < 0.5:
        raise CalibrationError(
            f"calibration failed on {channel}: best transfer {transfer:.3f} < 0.5 "
            "(drive too weak against the decoherence-free dynamics)"
        )
    return CalibrationResult(
        amplitude=amplitude, plateau=plateau, carrier=carrier,
        freq_offset=carrier - nominal, transfer=transfer,
        pi_time=plateau + ramp_eq, rise=rise,
    )
