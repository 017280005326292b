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

from . import lindblad
from .device import CHANNELS, QUBIT_CHANNEL, DeviceParams, bsb_effective_rate
from .errors import CalibrationError, ParameterError
from .units import GHZ

DEFAULT_RISE = 0.020  # us
TRUNC_SIGMAS = 2.5    # ramps truncated at +/- 2.5 sigma

# the largest DOP853 step of every calibration probe's ramps, and of the
# sideband-rate check's tones: the noiseless probe dynamics is MHz-scale;
# the qubit plateau lands within 1.2e-7 of probes at 5e-5 us (RK4 at the
# former 5e-4 us: 1.6e-6; DOP853 at 3e-3 us: 1.8e-6, and above 3.2e-3 us
# the probes' diagonal bound, lindblad.STABLE_STEP, binds).  A probe's 25 ns
# ramp takes 12 steps of it; at dt_pulse, 1.5e-3 us, it would take 17.
PROBE_STEP = 0.025 / 12     # us

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

# square-pulse-equivalent time of a calibrated pulse's two ramps: their area
# over the amplitude, and their squared area over the sideband's peak rate
_RAMP_TIME = 2.0 * _RAMP_AREA * (0.5 * DEFAULT_RISE)
_RAMP_TIME_SQ = 2.0 * _RAMP_AREA_SQ * (0.5 * DEFAULT_RISE)


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
        x = np.asarray(t, dtype=float) - self.start
        flat_end = self.ramp + self.plateau
        # distance past the plateau, 0 on it, where the Gaussian reads 1
        d = x - np.clip(x, self.ramp, flat_end)
        g = (np.exp(-0.5 * np.square(d / self.sigma)) - _G0) / (1.0 - _G0)
        result = self.amplitude * np.where(
            (x >= 0) & (x <= flat_end + self.ramp), g, 0.0)
        return float(result) if result.ndim == 0 else result

    def equivalent_width(self):
        """Duration of the square pulse with the same area and amplitude."""
        return self.plateau + 2.0 * _RAMP_AREA * self.sigma

    def shifted(self, start):
        return replace(self, start=start)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered, per-channel non-overlapping pulse segments.

    end is that of the last segment.  readout_time marks when the
    dispersive readout would fire; the readout itself is a marker, not a
    simulated microwave pulse.
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
    def end(self):
        return max(s.end for s in self.segments) if self.segments else 0.0

    def labeled(self, label):
        return [s for s in self.segments if s.label == label]

    @property
    def memory_duration(self):
        """Protocol length t_p: storage+retrieval pulses, preparation excluded."""
        ops = [s for s in self.segments if s.label != "prep"]
        if not ops:
            return 0.0
        return max(s.end for s in ops) - min(s.start for s in ops)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated pi-pulse for one drive channel, with DEFAULT_RISE ramps.

    pi_time is the square-pulse-equivalent duration (area/amplitude for the
    linear channels, squared-area/peak rate for the sideband), so it can be
    compared directly against pi/Omega_rabi or pi/(2*Omega_eff).
    """

    amplitude: float
    plateau: float
    carrier: float
    transfer: float
    pi_time: float


@dataclass(frozen=True)
class ProtocolCalibration:
    """Calibrations for the two pulses the memory protocol needs."""

    qubit: CalibrationResult
    bsb: CalibrationResult


def build_memory_sequence(prep_angle, storage_delay, cal,
                          qubit_pi_multiplier=1):
    """Assemble the storage/retrieval protocol of the memory experiment.

    Layout: [qubit prep(theta)] [BSB pi] [qubit pi * multiplier]
    ... storage_delay ... [qubit pi * multiplier] [BSB pi] [readout marker].
    The retrieval half is the time-mirror of the storage half.  The prep
    rotation is set through the pulse amplitude at fixed pi-pulse duration;
    a zero angle omits the segment but keeps its time slot.
    """
    if cal is None or cal.qubit is None or cal.bsb is None:
        raise CalibrationError("memory sequence requires qubit and BSB calibrations")
    if qubit_pi_multiplier < 1 or qubit_pi_multiplier % 2 == 0:
        raise ParameterError("qubit_pi_multiplier must be an odd positive integer")
    if not 0.0 <= storage_delay < math.inf:
        raise ParameterError(f"storage_delay must be >= 0 and finite, "
                             f"got {storage_delay!r}")

    q, b = cal.qubit, cal.bsb
    m = qubit_pi_multiplier
    # plateau for an m*pi rotation at the calibrated amplitude: the ramps
    # contribute a fixed area, the plateau supplies the rest
    q_plateau_m = m * (q.plateau + _RAMP_TIME) - _RAMP_TIME
    # (label, calibration, amplitude, phase, plateau, idle time after it);
    # the two-photon sideband tone is applied through the qubit-charge port
    pulses = [
        ("prep", q, abs(prep_angle) / math.pi * q.amplitude,
         math.pi if prep_angle < 0 else 0.0, q.plateau, 0.0),
        ("bsb-store", b, b.amplitude, 0.0, b.plateau, 0.0),
        ("qubit-pi-store", q, q.amplitude, 0.0, q_plateau_m, storage_delay),
        ("qubit-pi-retrieve", q, q.amplitude, 0.0, q_plateau_m, 0.0),
        ("bsb-retrieve", b, b.amplitude, 0.0, b.plateau, 0.0),
    ]
    segs, t = [], 0.0
    for label, c, amplitude, phase, plateau, idle in pulses:
        seg = PulseSegment(QUBIT_CHANNEL, amplitude, c.carrier, phase=phase,
                           plateau=plateau, start=t, label=label)
        if label != "prep" or prep_angle != 0.0:  # a zero prep keeps its slot
            segs.append(seg)
        t = seg.end + idle

    return PulseSequence(tuple(segs), readout_time=t)


# ---------------------------------------------------------------------------
# pi-pulse calibration against the simulator
# ---------------------------------------------------------------------------

def probe_transfers(base, segments, ends, dt, target):
    """Transfer probabilities to target from the ground state of trial
    segments starting at 0 under the noiseless frame base (a model with no
    sequence), segments[j] read at ends[j], as the ket columns of one
    lindblad.propagate call from 0: the ramps by DOP853, the plateaus
    exactly (stepped too in the lab frame, which has no frame rotating with
    a probe's carriers), one model per distinct segment.  dt is the largest
    step: propagate steps each ramp at no more than its model's step bound,
    13 steps per period of its fastest carrier, which binds in the bare
    frame."""
    dims = base.dims
    models = {seg: base.with_sequence(PulseSequence((seg,)))
              for seg in dict.fromkeys(segments)}
    psi = np.eye(dims.total)[:, [dims.index(0, 0, 0)] * len(segments)]
    psi = lindblad.propagate([models[seg] for seg in segments], psi,
                             (0.0, ends), dt)
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
                       frame="dispersive"):
    """calibrate_pi_pulses at one amplitude."""
    return calibrate_pi_pulses(params, dims, channel, [amplitude],
                               frame=frame)[0]


def calibrate_pi_pulses(params: DeviceParams, dims, channel, amplitudes, *,
                        frame="dispersive"):
    """Calibrate pi pulses on the qubit or sideband channel, one per amplitude.

    Scans the carrier about the model's own resonance and then the plateau
    duration, maximizing the target transfer (|g> -> |e> for the qubit
    channel, |g0> -> |e1> for the sideband) in a noiseless simulation.
    Deterministic: fixed scan grids plus parabolic refinement.  The
    noiseless frame is built once; each of the five stages (9 and 5
    carriers, 9 and 5 plateaus, the final pulse) drives it with the trial
    pulses of every amplitude, all with DEFAULT_RISE ramps, as the ket
    columns of one lindblad.propagate call (probe_transfers): their ramps
    by DOP853 at PROBE_STEP, 25/12 ns on both channels, or at the probe
    model's step bound where that is finer (13 steps per period of its
    fastest carrier: about 3e-5 us in the bare frame, whose GHz-scale
    couplings bound the step), and their plateaus exactly.  A column propagates as it
    would alone.  Returns a CalibrationResult per amplitude; no amplitudes,
    or one not above 0, raise ParameterError before any probe runs.
    """
    amps = np.array(amplitudes, dtype=float)
    if not (amps.size and amps.min() > 0):
        ghz = [float(f"{a:.6g}") for a in amps / GHZ]
        raise ParameterError(f"need drive amplitudes > 0 rad/us, got "
                             f"{amps.tolist()} rad/us ({ghz} GHz)")
    if channel not in (QUBIT_CHANNEL, "bsb"):
        raise CalibrationError(f"cannot calibrate pi pulses on channel {channel!r}")

    if channel == QUBIT_CHANNEL:
        center = lindblad.dressed_frequencies(params, dims)[0]
        pi_width = math.pi / amps
        target = (1, 0, 0)
        window = np.maximum(0.15 * amps, 2.0 * math.pi * 0.5)
        ramp_eq = _RAMP_TIME
    else:
        center = lindblad.two_photon_resonance(params, dims)
        omega_eff = bsb_effective_rate(params, amps, carrier=center)
        pi_width = math.pi / (2.0 * omega_eff)
        target = (1, 1, 0)
        window = np.maximum(1.5 * omega_eff, 2.0 * math.pi * 0.3)
        ramp_eq = _RAMP_TIME_SQ

    plateau0 = pi_width - ramp_eq
    if plateau0.min() < 0:
        raise CalibrationError(
            f"amplitude too large for rise {DEFAULT_RISE} us: pi width "
            f"{pi_width.min():.4g} us is shorter than the ramps "
            f"({ramp_eq:.4g} us)"
        )

    base = lindblad.build_model(params, dims, frame=frame, noiseless=True)

    def probe(plateau, carrier):      # broadcast to one row per amplitude
        plateau, carrier = np.broadcast_arrays(plateau, carrier)
        segs = [PulseSegment(QUBIT_CHANNEL, amp, c, plateau=pl, start=0.0)
                for amp, pls, cs in zip(amps, plateau, carrier)
                for pl, c in zip(pls, cs)]
        return probe_transfers(base, segs, [s.end for s in segs], PROBE_STEP,
                               target).reshape(plateau.shape)

    def peaks(xs, transfers):
        return np.array([_parabolic_peak(x, t) for x, t in zip(xs, transfers)])

    # carrier scan at the estimated pi plateau, then parabolic refinement
    offsets = np.linspace(-window, window, 9, axis=1)
    best = peaks(offsets, probe(plateau0[:, None], center + offsets))
    fine = np.linspace(best - window / 8, best + window / 8, 5, axis=1)
    carrier = center + peaks(fine, probe(plateau0[:, None], center + fine))

    # plateau scan around the analytic estimate
    width0 = plateau0 + ramp_eq
    lo = np.maximum(0.0, 0.7 * width0 - ramp_eq)
    hi = 1.3 * width0 - ramp_eq
    plateaus = np.linspace(lo, hi, 9, axis=1)
    best_pl = peaks(plateaus, probe(plateaus, carrier[:, None]))
    fine = np.clip(np.linspace(best_pl - (hi - lo) / 8.0,
                               best_pl + (hi - lo) / 8.0, 5, axis=1), 0.0, None)
    plateau = np.clip(peaks(fine, probe(fine, carrier[:, None])), 0.0, None)

    transfer = probe(plateau[:, None], carrier[:, None])[:, 0]
    if transfer.min() < 0.5:
        raise CalibrationError(
            f"calibration failed on {channel}: best transfer {transfer.min():.3f}"
            " < 0.5 (drive too weak against the decoherence-free dynamics)"
        )
    return [CalibrationResult(
        amplitude=amp, plateau=float(pl), carrier=c, transfer=float(t),
        pi_time=float(pl) + ramp_eq)
        for amp, pl, c, t in zip(amplitudes, plateau, carrier, transfer)]
