"""Device parameters and closed-form derived quantities.

Field values are stored in the units they are quoted in experimentally
(linear GHz/MHz/kHz, times in us), which each field declares once, as its
metadata ``unit``.  The config parser reads it there, and
:meth:`DeviceParams.angular` converts everything to rad/us in one place.

Sign and bookkeeping conventions
--------------------------------
* The measured dispersive shifts ``chi_ro`` and ``chi_s`` enter only
  ``bsb_frequency``: the nominal sideband carrier that ``validate`` prints,
  the default carrier of ``bsb_detunings`` and the demos' carrier.  The
  model places the sideband at its own two-photon resonance
  (``lindblad.two_photon_resonance``), and the Ramsey analysis pulse uses
  the calibrated carrier.  The standard transmon estimator
  ``dispersive_shift_estimate`` is exposed for reference only; it does not
  reproduce the measured values on this sample.
* With the qubit excited, the storage ladder is shifted such that the
  dispersive Hamiltonian reads ``omega_m + chi_m * sigma_z`` with
  ``sigma_z = -1`` for the qubit ground state; the qubit-state-dependent mode
  splitting is 2*chi_m.
"""

import math
from dataclasses import dataclass, field, fields, replace as dc_replace

from .errors import ParameterError
from .units import GHZ, MHZ, KHZ

# the sample's drive ports
QUBIT_CHANNEL = "qubit-charge"
STORAGE_CHANNEL = "storage-direct"
READOUT_CHANNEL = "readout-direct"
CHANNELS = (QUBIT_CHANNEL, STORAGE_CHANNEL, READOUT_CHANNEL)

# linear frequency unit -> rad/us; times (us) and plain numbers are not scaled
_ANGULAR = {"GHz": GHZ, "MHz": MHZ, "kHz": KHZ}


def _quoted(default, unit):
    """A DeviceParams field quoted in unit: GHz, MHz, kHz, us or None."""
    return field(default=default, metadata={"unit": unit})


@dataclass(frozen=True)
class DeviceParams:
    """All sample parameters.  Defaults describe the measured device."""

    omega_ro: float = _quoted(5.518, "GHz")     # readout mode frequency
    omega_s: float = _quoted(8.707546, "GHz")   # storage mode frequency
    omega_q: float = _quoted(6.234, "GHz")      # qubit g-e frequency
    alpha: float = _quoted(-185.0, "MHz")       # anharmonicity (negative)
    g: float = _quoted(53.0, "MHz")             # qubit-mode coupling (both modes)
    chi_ro: float = _quoted(3.6, "MHz")         # measured readout dispersive shift
    chi_s: float = _quoted(1.1, "MHz")          # measured storage dispersive shift
    kappa_ro: float = _quoted(4.0, "MHz")       # readout decay rate
    kappa_s: float = _quoted(24.7, "kHz")       # storage decay rate
    t1_q: float = _quoted(1.32, "us")           # qubit energy decay time
    t2_q: float = _quoted(2.49, "us")           # qubit Ramsey decoherence time
    n_ro: float = _quoted(0.0, None)            # mean readout photons in protocol
    p_e: float = _quoted(0.0027, None)          # thermal qubit excited population

    def __post_init__(self):
        for name in ("omega_ro", "omega_s", "omega_q"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0")
        if self.kappa_ro <= 0 or self.kappa_s <= 0:
            raise ParameterError("decay rates must be > 0")
        # the rule build_model applies: t1_q, t2_q > 0 and t2_q <= 2*t1_q
        pure_dephasing_time(self.t1_q, self.t2_q)
        if self.n_ro < 0:
            raise ParameterError("n_ro must be >= 0")
        if not 0.0 <= self.p_e < 0.5:
            raise ParameterError("p_e must be in [0, 0.5)")

    def angular(self):
        """Angular view (rad/us, times in us): each field times its unit's scale."""
        return AngularParams(*(getattr(self, f.name)
                               * _ANGULAR.get(f.metadata["unit"], 1)
                               for f in fields(self)))

    def replace(self, **kw):
        return dc_replace(self, **kw)


@dataclass(frozen=True)
class AngularParams:
    """Internal rad/us view produced by :meth:`DeviceParams.angular`."""

    w_ro: float
    w_s: float
    w_q: float
    alpha: float
    g: float
    chi_ro: float
    chi_s: float
    k_ro: float
    k_s: float
    t1_q: float
    t2_q: float
    n_ro: float
    p_e: float


def bsb_frequency(p: DeviceParams):
    """Blue-sideband resonance w_b = w_s + w_q + chi_s + (2 n_ro - 1) chi_ro.

    Returns the angular two-photon resonance (rad/us); the physical drive
    carrier sits at w_b / 2.  Uses the measured dispersive shifts.
    """
    a = p.angular()
    return a.w_s + a.w_q + a.chi_s + (2.0 * a.n_ro - 1.0) * a.chi_ro


DEGENERATE_DRIVE_TOL = MHZ * 1.0  # rad/us


def bsb_detunings(p: DeviceParams, carrier=None):
    """Detunings (w_s - w_c, w_q - w_c) of the sideband drive carrier.

    ``carrier`` defaults to the nominal w_b / 2.
    """
    a = p.angular()
    wc = 0.5 * bsb_frequency(p) if carrier is None else carrier
    return a.w_s - wc, a.w_q - wc


def bsb_effective_rate(p: DeviceParams, omega_drv, carrier=None):
    """Effective two-photon sideband coupling.

    Omega_eff = g^3 * Omega_drv^2 / ((w_s - w_c)^2 (w_q - w_c)^2), the scalar
    prefactor multiplying (a_dag sigma_plus + a sigma_minus).  With the
    two-state swap convention used throughout, the sideband pi-time estimate
    is pi / (2 * Omega_eff).  All quantities angular (rad/us).
    """
    a = p.angular()
    d_s, d_q = bsb_detunings(p, carrier)
    if abs(d_s) < DEGENERATE_DRIVE_TOL or abs(d_q) < DEGENERATE_DRIVE_TOL:
        raise ParameterError(
            "drive carrier degenerate with a mode/qubit frequency "
            f"(detunings {d_s:.3g}, {d_q:.3g} rad/us)"
        )
    return a.g**3 * omega_drv**2 / (d_s**2 * d_q**2)


def dispersive_shift_estimate(g, delta, alpha):
    """Standard transmon estimate chi = g^2 alpha / (delta (delta + alpha)).

    Estimator only: frequency bookkeeping always uses the measured chi values
    carried by DeviceParams.  All arguments angular (rad/us) or any one
    consistent linear unit.
    """
    if delta == 0 or delta + alpha == 0:
        raise ParameterError("detuning straddles a resonance (delta or delta+alpha = 0)")
    return g**2 * alpha / (delta * (delta + alpha))


PURCELL_MIN_RATIO = 5.0  # require |delta| >= this multiple of g


def purcell_limit(p: DeviceParams):
    """Qubit lifetime bound from decay through the readout mode.

    T_P = 1 / (kappa_ro * (g / delta)^2) with delta = w_q - w_ro, in us.
    Returns math.inf when kappa_ro -> 0.
    """
    a = p.angular()
    delta = a.w_q - a.w_ro
    if abs(delta) < PURCELL_MIN_RATIO * a.g:
        raise ParameterError(
            "Purcell formula invalid near resonance: "
            f"|w_q - w_ro| = {abs(delta):.3g} < {PURCELL_MIN_RATIO} g"
        )
    rate = a.k_ro * (a.g / delta) ** 2
    if rate == 0.0:
        return math.inf
    return 1.0 / rate


def pure_dephasing_time(t1, t2):
    """T_phi = (1/t2 - 1/(2 t1))^-1; math.inf when t2 saturates the 2*t1 bound."""
    if t1 <= 0 or t2 <= 0:
        raise ParameterError("t1 and t2 must be positive")
    if t2 > 2.0 * t1 * (1.0 + 1e-12):
        raise ParameterError(f"t2 = {t2} exceeds 2*t1 = {2 * t1}: no positive T_phi")
    rate = 1.0 / t2 - 1.0 / (2.0 * t1)
    if rate <= 0.0:
        return math.inf
    return 1.0 / rate


def thermal_population(gamma_phi, kappa_q):
    """Equilibrium excited-state fraction from Gamma_phi ~= P_e * kappa_q."""
    if kappa_q <= 0:
        raise ParameterError("kappa_q must be > 0")
    return gamma_phi / kappa_q
