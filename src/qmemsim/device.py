"""Device parameters and closed-form derived quantities.

Field values are stored in the units they are quoted in experimentally
(linear GHz/MHz/kHz, times in us).  :meth:`DeviceParams.angular` converts
everything to the internal rad/us convention in one place.

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
from dataclasses import dataclass, replace as dc_replace

from .errors import ParameterError
from .units import GHZ, MHZ, KHZ

# the sample's drive ports
QUBIT_CHANNEL = "qubit-charge"
STORAGE_CHANNEL = "storage-direct"
READOUT_CHANNEL = "readout-direct"
CHANNELS = (QUBIT_CHANNEL, STORAGE_CHANNEL, READOUT_CHANNEL)


@dataclass(frozen=True)
class DeviceParams:
    """All sample parameters.  Defaults describe the measured device."""

    omega_ro: float = 5.518        # readout mode frequency, GHz
    omega_s: float = 8.707546      # storage mode frequency, GHz
    omega_q: float = 6.234         # qubit g-e frequency, GHz
    alpha: float = -185.0          # anharmonicity, MHz (negative)
    g: float = 53.0                # qubit-mode coupling (both modes), MHz
    chi_ro: float = 3.6            # measured readout dispersive shift, MHz
    chi_s: float = 1.1             # measured storage dispersive shift, MHz
    kappa_ro: float = 4.0          # readout decay rate, MHz
    kappa_s: float = 24.7          # storage decay rate, kHz
    t1_q: float = 1.32             # qubit energy decay time, us
    t2_q: float = 2.49             # qubit Ramsey decoherence time, us
    n_ro: float = 0.0              # mean readout photon number during protocol
    p_e: float = 0.0027            # equilibrium qubit excited-state population

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
        """Angular view of all frequencies/rates (rad/us, times in us)."""
        return AngularParams(
            w_ro=self.omega_ro * GHZ,
            w_s=self.omega_s * GHZ,
            w_q=self.omega_q * GHZ,
            alpha=self.alpha * MHZ,
            g=self.g * MHZ,
            chi_ro=self.chi_ro * MHZ,
            chi_s=self.chi_s * MHZ,
            k_ro=self.kappa_ro * MHZ,
            k_s=self.kappa_s * KHZ,
            t1_q=self.t1_q,
            t2_q=self.t2_q,
            n_ro=self.n_ro,
            p_e=self.p_e,
        )

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
