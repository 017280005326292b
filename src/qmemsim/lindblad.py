"""Rotating-frame Lindblad model construction and time propagation.

Frames
------
The composite Hamiltonian is the Duffing transmon, two harmonic cavity modes
and number-conserving exchange couplings g(b_dag a_m + b a_m_dag) to each
mode.  ``build_model`` transforms it into one of three frames:

``dispersive`` (default)
    The static Hamiltonian is diagonalized once; states and operators live in
    the dressed eigenbasis, labeled by their dominant bare product state
    (unambiguous in the dispersive regime).  Each subsystem then rotates at
    its dressed transition frequency, which leaves a small static diagonal
    (anharmonicity, cross-Kerr residuals) and slow drive carriers.  Collapse
    operators are the dressed ladder operators projected onto their dominant
    frequency class (secular approximation), making the dissipator static.
``bare``
    Each subsystem rotates at its bare frequency; the exchange couplings stay
    in the generator as explicit difference-frequency terms (GHz scale, so
    ``LindbladModel.max_step``, 13 steps per period of the fastest active
    carrier, bounds every step of propagate, the calibration probes' too,
    to ~0.03 ns).  Useful for cross-validating the dressed construction.
``lab``
    No rotation, nothing dropped; only sensible for small test systems.

Drive terms
-----------
A pulse segment with carrier w_c contributes, per retained frequency class C
of its (dressed) coupling operator, a term

    f(t) * (O_C exp(i((nu_C + s*w_c) t + s*phi)) + h.c.),   s = +/-1

and components whose residual carrier exceeds the RWA cutoff are dropped
(in the lab frame nothing is dropped, which reproduces the real cosine
drive).  Qubit-charge segments additionally carry the second-order
two-photon sideband term

    Omega2(t) * (T exp(i((nu_T - 2 w_c) t - 2 phi)) + h.c.),
    Omega2(t) = g^3 Omega(t)^2 / ((w_s - w_c)^2 (w_q - w_c)^2),

with T the |g,n> -> |e,n+1> ladder operator, at ``device.bsb_effective_rate``
for w_c; it is retained only when its carrier is within the RWA cutoff, near
the two-photon resonance.  The quadratic drive dependence and cubic coupling
dependence of the sideband rate are properties of this term and are
cross-checked against the full integration by
``protocol.effective_bsb_check``.

Propagation
-----------
Every window uses one form of the generator, a :class:`LiouvilleTable`,
read off the operators that ``build_model`` builds once as label-shift
classes (:class:`ShiftClass`: key, col, weight): a diagonal plus gather
rows on vec(rho).  One runner, :func:`propagate`, takes B columns, each a
vec(rho) or a ket under its own model, the models of one frame, across a
span cut at each column's pulse and ramp edges, routing each per window:

- exactly, where the generator is constant in the frame
  rho~ = exp(iKt) rho exp(-iKt), with K = kappa . (n_t, n_s, n_r) diagonal
  and kappa . k = -carrier for each active term's class k
  (``LindbladModel.carrier_frame``): rho(t1) = exp(L~ (t1 - t0)) rho~(t0)
  on the decoupled blocks of the table's rows (Moler & Van Loan scaling
  and squaring), in numpy alone and whatever the window's length.  A window
  with no active drive or coupling term has K = 0: the storage delays, the
  gaps between pulses and the free decays.  Otherwise these are the
  sideband and qubit plateaus, and in the ``bare`` frame also the idle
  windows, whose exchange couplings are always-active terms;
- otherwise by the 12-stage 8th-order Runge-Kutta formula of DOP853
  (:data:`DOP853`) at a fixed step, without its error estimate: the pulse
  ramps, and every driven window of the ``lab`` frame (its drift's
  couplings and its +/- carriers admit no such K).  The step is the
  caller's dt or less: the window's ``max_step``, 13 steps per period of
  its fastest carrier, and STABLE_STEP / max|lam| over the diagonal lam
  of its table before restriction, under DOP853's stability radius on the
  imaginary axis (5.96), bound it.

Columns on the same route with the same active term operators share one
table, built once per call.
:func:`evolve` is the reference: one state, stepped by the same loop on
the same support frame with classic RK4 (:data:`RK4`) and returned at
the steps + 1 equally spaced times of its window.

A stepped window steps its B columns batch-major: their m reached
elements (below) as one vector of B blocks of m, under the table tiled B
times (:meth:`LiouvilleTable.tiled`), so each of the 12 evaluations of a
step is one gather, one contiguous multiply and one row sum over all
B * m elements, with each column's drive rows scaled on a (rows, B, m)
view.  The window forms those scales once, for every stage of every
step, and one column is the case B = 1.  Each row sum and each stage sum
runs element by element in one fixed order (numpy alone: BLAS, and numpy
on a stack one element wide, sum in orders that depend on the width), so
a column comes out the same to the bit whatever columns step beside it.

One frame, :func:`_on_support`, owns every window's support, and both
routes map it alone (:meth:`LiouvilleTable.restricted`): the elements the
window's table can reach from the entering columns' nonzero elements.  The
others stay exactly zero, fed by zero sources alone.  Drives and collapse
operators shift label differences by fixed classes, and the default
protocol never drives the readout, so from |g,0,0> the windows of its
sideband-store pulse reach 37 of the 900 elements of rho at dims (3, 5, 2),
those of the qubit pi pulses 171 and those of the sideband-retrieve pulse
215; on a sideband plateau these split into blocks of at most 37 elements,
on a qubit plateau of at most 45.  A probe ket reaches a few of its 30
amplitudes.  A state with full support, or a drift with a class between
any two labels, reaches everything.

A density matrix needs half of that.  The generator maps X^dag to
L(X)^dag, so the transposes (j, i) of the elements of a connected
component C of a table form a component C* too, and for Hermitian rho one
fixes the other.  A table knows its kind, the positions of rho's diagonal
in vec(rho) (None for a ket), and a vec(rho) table labels its components
once and keeps C where min(C) <= min(C*) (:func:`_conjugate_halves`).
Where every column of a window is Hermitian to the bit, the frame hands
the route the kept reached elements alone, then sets each other one to
the conjugate of its partner and makes the diagonal real, so a Hermitian
column leaves Hermitian to the bit.  The default protocol's windows then
propagate 37, 108 and 126 elements.  A column that is not Hermitian, as
a one-sided coherence |g><e|, propagates on the whole reached support,
and the columns beside it do too.  The exact route exponentiates once for
the columns whose lam, scales and window length agree to the bit, as the
four tomography inputs of process tomography do.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qsys
from .device import (QUBIT_CHANNEL, READOUT_CHANNEL, STORAGE_CHANNEL,
                     DeviceParams, bsb_effective_rate, pure_dephasing_time)
from .errors import DimensionError, IntegrationError, ParameterError
from .qsys import SubsystemDims
from .units import GHZ, TWO_PI

FRAMES = ("dispersive", "bare", "lab")
# drop drive components whose residual carrier exceeds this (rad/us); the
# retained physics is the near-resonant linear drive (with its full
# multi-level transmon structure, so leakage survives) and the near-resonant
# two-photon sideband term
RWA_CUTOFF = 0.15 * GHZ
CARRIER_ZERO_TOL = 1e-9             # rad/us treated as a static term
TRACE_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class ShiftClass:
    """The elements of an operator that shift the labels (n_t, n_s, n_r)
    by key.  Labels are unique, so a class has at most one nonzero per row
    and per column: row i holds weight[i] at column col[i], and a row with
    no nonzero points at i with weight 0."""

    key: tuple
    col: np.ndarray
    weight: np.ndarray

    def adjoint(self):
        """The class of the conjugate transpose, of key -key."""
        rows, live = np.arange(len(self.col)), self.weight != 0
        col, weight = rows.copy(), np.zeros_like(self.weight)
        col[self.col[live]] = rows[live]
        weight[self.col[live]] = self.weight[live].conj()
        return ShiftClass(tuple(-k for k in self.key), col, weight)


def _code(shift, d):
    """Label shifts (n_t, n_s, n_r) on a d x d operator as integers that sort
    as the tuples do: digits in (-d, d), base 2d.  Linear, so the code of
    the shift from state j to state i is _code(labels)[i] - _code(labels)[j],
    and _code(labels) increases with the index (labels are row-major)."""
    return (shift[0] * 2 * d + shift[1]) * 2 * d + shift[2]


def _key(code, d):
    """The shift (n_t, n_s, n_r) of a _code: offset by d - 1, its digits
    are those of an ordinary base-2d number."""
    b, o = 2 * d, d - 1
    c = code + o * (b * b + b + 1)
    return c // (b * b) - o, c // b % b - o, c % b - o


def _classes(op, pos, codes):
    """col and weight of the dense op's class of each shift code, one row
    each, for pos = _code(labels): row i's column is the state whose
    labels are row i's shifted back, if the op holds a nonzero there."""
    rows = np.arange(len(op))
    target = pos - np.asarray(codes, dtype=pos.dtype)[:, None]
    col = np.minimum(np.searchsorted(pos, target), len(op) - 1)
    value = op[rows, col]
    live = (pos[col] == target) & (value != 0)
    return np.where(live, col, rows), np.where(live, value, 0.0)


def _shift_class(op, labels, key):
    """The class of the dense op whose elements shift the labels by key."""
    d = len(op)
    col, weight = _classes(op, _code(labels, d), [_code(key, d)])
    return ShiftClass(key, col[0], weight[0])


def _split(op, labels, tol):
    """The classes of the dense op with an element above tol, by key."""
    d = len(op)
    pos = _code(labels, d)
    codes = sorted(set((pos[:, None] - pos)[np.abs(op) > tol].tolist()))
    col, weight = _classes(op, pos, codes)
    return tuple(ShiftClass(_key(c, d), cl, w)
                 for c, cl, w in zip(codes, col, weight))


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad dissipator D[sqrt(rate) * op]."""

    op: ShiftClass
    rate: float
    name: str = ""

    def __post_init__(self):
        if self.rate < 0:
            raise ParameterError(f"collapse rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class HamiltonianTerm:
    """Time-dependent term f(t) * (op * exp(i(carrier*t + phase)) + h.c.).

    f(t) = strength * envelope(t)**power for a term of a segment, the
    strength alone for a coupling (no segment): power 1 and strength 0.5 for
    a linear drive, power 2 and the sideband rate per unit drive squared for
    the two-photon sideband.
    """

    op: ShiftClass
    carrier: float
    phase: float
    power: int
    strength: float
    segment: "pulses.PulseSegment | None" = None

    def amplitude_at(self, t):
        if self.segment is None:
            return self.strength
        return self.strength * self.segment.envelope_at(t) ** self.power


def _edges(seg):
    """A segment's start, ramp ends and end; it is flat between the two."""
    return seg.start, seg.start + seg.ramp, seg.end - seg.ramp, seg.end


def _transition_freqs(energies, dims):
    """(w_q, w_s, w_ro) single-excitation energies; 0 for frozen 1-level modes."""
    e0 = energies[dims.index(0, 0, 0)]
    out = []
    for slot, state in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        if dims.dim_of(slot) == 1:
            out.append(0.0)
        else:
            out.append(energies[dims.index(*state)] - e0)
    return tuple(out)


def _dress(h0, dims):
    """Diagonalize and label eigenvectors by their dominant bare state.

    Returns (U, energies) with U columns ordered by bare labels and a fixed
    phase convention (largest component real positive), so the construction
    is deterministic.
    """
    w, v = np.linalg.eigh(h0)
    d = dims.total
    # each eigenvector's dominant bare state; a row of the unitary v sums to
    # 1 as well, so an overlap above 1/2 is the largest of its row too and
    # no two eigenvectors take the same label
    overlaps = np.abs(v) ** 2
    idx, cols = overlaps.argmax(axis=0), np.arange(d)
    worst = overlaps[idx, cols].min()
    if worst <= 0.5:
        raise ParameterError(
            "dressed-state labeling is ambiguous (max overlap "
            f"{worst:.3f} <= 0.5); the system is not dispersive enough"
        )
    phase = v[idx, cols]
    U, energies = np.empty_like(v), np.empty(d)
    U[:, idx] = v * (np.abs(phase) / phase)
    energies[idx] = w
    return U, energies


@dataclass(frozen=True)
class LindbladModel:
    """Drift, drive terms and collapse channels in a concrete frame/basis.

    A frozen value.  build_model makes a frame, the model with no sequence,
    and with_sequence derives each driven model from it; the models of one
    frame share its arrays.
    """

    dims: SubsystemDims
    params: DeviceParams
    frame: str
    drift: tuple                      # the static Hamiltonian's ShiftClasses
    terms: tuple                      # HamiltonianTerm entries
    channels: tuple                   # CollapseChannel entries
    rot: tuple                        # per-subsystem rotation freqs (rad/us)
    labels: tuple                     # (n_t, n_s, n_r) of each basis state
    # per drive channel the ShiftClasses of its lowering operator, sorted by
    # key, and the class of the |g,n> -> |e,n+1> two-photon sideband
    # ladder, in the model basis
    drive_ops: dict
    two_photon: ShiftClass

    def with_sequence(self, seq):
        """This model, which carries no sequence, driven by seq: its terms
        plus those of seq's segments (see the module docstring).  Only
        reads the frame, so every model driven from it takes its term
        operators from the same classes."""
        cutoff = math.inf if self.frame == "lab" else RWA_CUTOFF
        rot_arr = np.array(self.rot)
        terms = list(self.terms)
        for seg in seq.segments:
            if seg.amplitude == 0.0:
                continue
            for cls in self.drive_ops[seg.target]:
                nu = float(np.dot(cls.key, rot_arr))
                for s in (+1.0, -1.0):
                    carrier = nu + s * seg.carrier
                    if abs(carrier) <= cutoff:
                        terms.append(HamiltonianTerm(
                            op=cls, carrier=carrier, phase=s * seg.phase,
                            power=1, strength=0.5, segment=seg))
            carrier = (self.rot[0] + self.rot[1]) - 2.0 * seg.carrier
            if seg.target == QUBIT_CHANNEL and self.frame != "lab" \
                    and abs(carrier) <= cutoff:
                terms.append(HamiltonianTerm(
                    op=self.two_photon, carrier=carrier,
                    phase=-2.0 * seg.phase, power=2,
                    strength=bsb_effective_rate(self.params, 1.0, seg.carrier),
                    segment=seg))
        return replace(self, terms=tuple(terms))

    # -- integrator support --------------------------------------------------
    def active_terms(self, t0, t1):
        """Terms whose segment overlaps (t0, t1); a coupling is always on."""
        return [term for term in self.terms if term.segment is None
                or (term.segment.end > t0 and term.segment.start < t1)]

    def max_step(self, t0=-math.inf, t1=math.inf, per_period=13.0):
        """The largest step in (t0, t1): 1/(per_period f_max), for f_max
        the fastest carrier of the terms active there, or inf with none.

        The carrier bound: propagate steps every stepped window at no more
        than it, whatever dt it is given, and evolve at its bound for RK4,
        40 steps per period (propagate also bounds its steps by the table's
        diagonal, STABLE_STEP).  The default is propagate's, for DOP853:
        its 13 steps of 12 stages take 156 applies per period, against 160
        for RK4's 40, and a bare-frame sideband or qubit ramp of a ket at
        the default dims then keeps its norm within 1.3e-12 and lands
        within 1.8e-11 of 80 steps per period.  RK4 at 20 steps per period
        lets such a ket's norm drift past 1e-6.
        """
        w = max((abs(t.carrier) for t in self.active_terms(t0, t1)), default=0.0)
        if w < CARRIER_ZERO_TOL:
            return math.inf
        return TWO_PI / (per_period * w)

    def carrier_frame(self, t0, t1):
        """K = kappa . labels, the diagonal of a frame in which the
        generator of the window (t0, t1) is constant, or None.

        Under rho~ = exp(iK(t - t0)) rho exp(-iK(t - t0)) a term of class k
        and carrier w becomes c(t0) exp(i(w + kappa . k)(t - t0)) while its
        envelope is constant, and a static class k becomes
        exp(i kappa . k (t - t0)).  So each active term must be on its
        plateau and kappa . k = -w must hold for its class, and
        kappa . k = 0 for (0, 0, 0) and the keys of the drift's classes
        (a collapse operator is one class, so its dissipator is static).
        None when no kappa solves these to rounding, as for the lab
        frame's drift couplings and +/- carriers.
        """
        keys, rhs = [], []
        for term in self.active_terms(t0, t1):
            up, down = _edges(term.segment)[1:3] if term.segment else (t0, t1)
            if not (up <= t0 and t1 <= down):
                return None
            keys.append(term.op.key)
            rhs.append(-term.carrier)
        static = sorted({(0, 0, 0), *(c.key for c in self.drift)})
        keys += static
        rhs += [0.0] * len(static)
        a, b = np.array(keys, dtype=float), np.array(rhs)
        kappa = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.max(np.abs(a @ kappa - b)) > 1e-9 * max(1.0, np.max(np.abs(b))):
            return None
        return sum(k * lab for k, lab in zip(kappa, self.labels))


def _lowering(dim):
    """Annihilation operator, degenerating to 0 for a frozen 1-level mode."""
    if dim == 1:
        return np.zeros((1, 1), dtype=complex)
    return qsys.annihilation(dim)


def _bare_operators(dims, a):
    """Embedded bare operators and the lab-frame Hamiltonian."""
    b = qsys.tensor_embed(_lowering(dims.n_transmon), qsys.TRANSMON, dims)
    a_s = qsys.tensor_embed(_lowering(dims.n_storage), qsys.STORAGE, dims)
    a_r = qsys.tensor_embed(_lowering(dims.n_readout), qsys.READOUT, dims)
    ht = qsys.tensor_embed(
        qsys.transmon_hamiltonian(dims.n_transmon, a.w_q, a.alpha),
        qsys.TRANSMON, dims)
    h0 = (ht
          + a.w_s * (a_s.conj().T @ a_s)
          + a.w_ro * (a_r.conj().T @ a_r)
          + a.g * (b.conj().T @ a_s + b @ a_s.conj().T)
          + a.g * (b.conj().T @ a_r + b @ a_r.conj().T))
    return b, a_s, a_r, h0


def build_model(p: DeviceParams, dims: SubsystemDims, frame="dispersive",
                *, noiseless=False):
    """Construct a rotating-frame Lindblad model with no sequence, a frame.

    The frame holds everything that does not depend on the pulses, each
    operator built once as ShiftClasses: the drift's nonzero classes, a
    drive channel's classes above 1e-12, and the one class of each collapse
    channel, coupling and the two-photon ladder.
    ``build_model(...).with_sequence(seq)`` drives it with a sequence.
    noiseless strips all collapse channels (used for calibration); else a
    channel of rate zero is left out: the qubit dephasing at t2_q = 2 t1_q
    and the thermal excitation at p_e = 0.  The storage mode has no
    dephasing channel: memory dephasing comes from thermal qubit jumps
    (p_e) acting through the dispersive interaction.
    """
    if frame not in FRAMES:
        raise ParameterError(f"unknown frame {frame!r}, expected one of {FRAMES}")
    a = p.angular()
    labels = dims.labels()
    b, a_s, a_r, h0 = _bare_operators(dims, a)

    if frame == "dispersive":
        U, energies = _dress(h0, dims)
        e0 = energies[dims.index(0, 0, 0)]
        rel = energies - e0
        rot = _transition_freqs(energies, dims)
        lt, ls, lr = labels
        drift = np.diag(rel - rot[0] * lt - rot[1] * ls - rot[2] * lr).astype(complex)
        couplings = []
    else:
        U = np.eye(dims.total, dtype=complex)
        if frame == "bare":
            rot = (a.w_q, a.w_s, a.w_ro)
            lt, ls, lr = labels
            drift = np.diag(0.5 * a.alpha * lt * (lt - 1)).astype(complex)
            # (class, exchange operator) of the storage and readout
            couplings = [((1, -1, 0), a.g * (b.conj().T @ a_s)),
                         ((1, 0, -1), a.g * (b.conj().T @ a_r))]
        else:  # lab
            rot = (0.0, 0.0, 0.0)
            drift = h0.astype(complex)
            couplings = []

    terms = tuple(HamiltonianTerm(op=_shift_class(op, labels, key),
                                  carrier=float(np.dot(key, rot)), phase=0.0,
                                  power=0, strength=1.0)
                  for key, op in couplings)

    u_dag = U.conj().T

    def to_model(op):
        return u_dag @ op @ U

    channel_ops = {QUBIT_CHANNEL: b, STORAGE_CHANNEL: a_s, READOUT_CHANNEL: a_r}
    drive_ops = {target: _split(to_model(op), labels, 1e-12)
                 for target, op in channel_ops.items()}
    sigma_plus = np.zeros((dims.n_transmon,) * 2, dtype=complex)
    sigma_plus[1, 0] = 1.0
    two_photon_bare = (qsys.tensor_embed(sigma_plus, qsys.TRANSMON, dims)
                       @ qsys.tensor_embed(qsys.creation(dims.n_storage),
                                           qsys.STORAGE, dims))
    two_photon = _shift_class(to_model(two_photon_bare), labels, (1, 1, 0))

    channels = ()
    if not noiseless:
        n_t = qsys.tensor_embed(qsys.number_op(dims.n_transmon), qsys.TRANSMON, dims)
        # (bare operator, label shift, rate, name); rate 2/T_phi on a number
        # operator gives neighbouring-level coherences dephasing rate 1/T_phi
        listed = (
            (a_s, (0, -1, 0), a.k_s, "storage-decay"),
            (a_r, (0, 0, -1), a.k_ro, "readout-decay"),
            (b, (-1, 0, 0), 1.0 / a.t1_q, "qubit-decay"),
            (n_t, (0, 0, 0), 2.0 / pure_dephasing_time(a.t1_q, a.t2_q),
             "qubit-dephasing"),
            (b.conj().T, (1, 0, 0), a.p_e / a.t1_q, "qubit-thermal"))
        channels = tuple(
            CollapseChannel(_shift_class(to_model(op), labels, key), rate, name)
            for op, key, rate, name in listed if rate != 0)

    return LindbladModel(dims=dims, params=p, frame=frame,
                         drift=_split(drift, labels, 0.0), terms=terms,
                         channels=channels, rot=rot, labels=labels,
                         drive_ops=drive_ops, two_photon=two_photon)


def dressed_energies(p: DeviceParams, dims: SubsystemDims):
    """Eigenenergies of the static Hamiltonian, rad/us, indexed by label."""
    _, _, _, h0 = _bare_operators(dims, p.angular())
    return _dress(h0, dims)[1]


def dressed_frequencies(p: DeviceParams, dims: SubsystemDims):
    """Dressed (w_q, w_s, w_ro) of the static Hamiltonian, rad/us."""
    return _transition_freqs(dressed_energies(p, dims), dims)


def two_photon_resonance(p: DeviceParams, dims: SubsystemDims):
    """Exact drive carrier for |g,0> -> |e,1>: half the dressed pair splitting.

    Differs from (w_q + w_s)/2 by half the cross-Kerr residual of the
    doubly excited state.
    """
    e = dressed_energies(p, dims)
    return 0.5 * (e[dims.index(1, 1, 0)] - e[dims.index(0, 0, 0)])


# ---------------------------------------------------------------------------
# the generator as one table of gather rows
# ---------------------------------------------------------------------------

def _gather_row(left, right, scale):
    """(P, W) with scale * vec(left @ rho @ right^dag) = W * x[P] on
    row-major x = vec(rho) of a d x m rho (m = 1 for a ket), for classes
    left and right: entry (i, j) of the product is
    left[i, p(i)] rho[p(i), q(j)] conj(right[j, q(j)]).  An entry of zero
    weight gathers its own element."""
    m = len(right.col)
    weight = (scale * left.weight[:, None] * right.weight.conj()).ravel()
    gather = np.where(weight != 0, (left.col[:, None] * m + right.col).ravel(),
                      np.arange(weight.size))
    return gather, weight


class LiouvilleTable:
    """The generator of a model with the given terms on, on row-major
    x = vec(rho): L(t) x = lam * x + sum_r s_r(t) * W_r * x[P_r].

    Its gather rows come from the model's ShiftClasses, built once by
    build_model, each product left @ rho @ right^dag of classes one row.
    A = H0 - (i/2) sum_k c_k^dag c_k has the drift's classes, with
    c^dag c, the diagonal of c's squared weights, on its key-0 class.
    The static rows (s = 1) are -i A rho and i rho A^dag for each class
    of A, and the sandwiches c rho c^dag; those that gather the identity,
    such as the diagonal of A and the qubit dephasing, fold into lam.  The
    class op of terms[k] adds -i op rho and i rho op, scaled by c_k(t),
    and -i op^dag rho and i rho op^dag, scaled by conj(c_k(t)).

    With ket=True it is -i H(t) on a ket psi, for a model without collapse
    channels: only the rows -i op psi remain.  diagonal holds the positions
    of rho's diagonal in vec(rho), None for a ket table, and a vec(rho)
    table its conjugate halves (`_conjugate_halves`): kept, the mask of the
    elements a window of Hermitian columns propagates, and mirrored and
    partner, the elements it reads off their partners' conjugates.
    """

    def __init__(self, model, terms=(), ket=False):
        d = model.dims.total
        eye = ShiftClass((0, 0, 0), np.arange(d), np.ones(d))
        ops = [replace(c.op, weight=math.sqrt(c.rate) * c.op.weight)
               for c in model.channels]
        cdc = np.zeros(d)
        for c in ops:
            cdc += np.bincount(c.col, (c.weight.conj() * c.weight).real, d)
        a = {c.key: c for c in model.drift}           # A's classes by key
        diag = a.get((0, 0, 0), replace(eye, weight=np.zeros(d)))
        a[0, 0, 0] = replace(diag, weight=diag.weight - 0.5j * cdc)
        # (column, scale, left, right) for left @ rho @ right^dag: column
        # -1 marks a static row, k one scaled by c_k(t) and len(terms) + k
        # one scaled by conj(c_k(t))
        rows = [(-1, s, left, right) for _, cls in sorted(a.items())
                for s, left, right in ((-1j, cls, eye), (1j, eye, cls))]
        rows += [(-1, 1.0, c, c) for c in ops]
        for k, term in enumerate(terms):
            op, adj = term.op, term.op.adjoint()
            rows += [(k, -1j, op, eye), (k, 1j, eye, adj),
                     (len(terms) + k, -1j, adj, eye),
                     (len(terms) + k, 1j, eye, op)]
        if ket:
            # the products left @ psi: the rows with the identity on the right
            one = ShiftClass((0, 0, 0), np.zeros(1, dtype=int), np.ones(1))
            rows = [(column, scale, left, one)
                    for column, scale, left, right in rows if right is eye]

        n = d if ket else d * d
        self.lam = np.zeros(n, dtype=complex)
        kept = []
        for column, scale, left, right in rows:
            gather, weight = _gather_row(left, right, scale)
            if column < 0 and np.array_equal(gather, np.arange(n)):
                self.lam += weight
            elif np.any(weight):
                kept.append((column, gather, weight))
        kept.sort(key=lambda row: row[0])           # the static rows first
        self.column = np.array([c for c, _, _ in kept if c >= 0], dtype=np.intp)
        self.gather = np.array([g for _, g, _ in kept],
                               dtype=np.intp).reshape(-1, n)
        self.weight = np.array([w for _, _, w in kept],
                               dtype=complex).reshape(-1, n)
        self.diagonal = self.kept = self.mirrored = self.partner = None
        if not ket:
            self.diagonal = np.arange(d) * (d + 1)
            self.kept, self.mirrored, self.partner = _conjugate_halves(
                self.gather, d)

    def apply(self, x, c, out=None):
        """L(t) x at one time t, as an array of x's shape, written into the
        flat array out if given.

        On a table tiled b times (`tiled`; b = 1 for the table itself), x
        holds b blocks of n / b elements back to back, as one flat vector
        or its batch-major (b, n / b) view, and c the drive rows' scales of
        each block, (rows, b), as `scales` forms them from the
        coefficients.  It is one gather, one contiguous multiply by the
        weights, the drive rows scaled on their (rows, b, n / b) view, and
        one row sum: numpy alone, no BLAS call, so the row sum runs in one
        fixed order, the same for every block and for a block alone.
        """
        flat = x.reshape(-1)
        terms = flat.take(self.gather)
        terms *= self.weight
        rows, b = c.shape
        drive = terms[len(terms) - rows:].reshape(rows, b, len(flat) // b)
        drive *= c[:, :, None]
        out = np.add.reduce(terms, axis=0, out=out)
        out += self.lam * flat
        return out.reshape(x.shape)

    def scales(self, c):
        """The drive rows' scales, (..., rows, b), of the coefficients c
        (..., K, b) of the table's terms: c[k] for the rows of terms[k],
        conj(c[k]) for those of its adjoint."""
        return np.concatenate((c, c.conj()), axis=-2)[..., self.column, :]

    def tiled(self, b):
        """This table on b blocks of its n elements back to back, as one
        vector of b * n: block i gathers from block i alone, with the same
        weights, lam and drive rows, which `apply` scales per block."""
        n, rows = len(self.lam), len(self.gather)
        out = object.__new__(LiouvilleTable)
        out.lam = np.tile(self.lam, b)
        out.weight = np.tile(self.weight, b)
        out.gather = (self.gather[:, None, :] + n * np.arange(b)[:, None]
                      ).reshape(rows, b * n)
        out.column = self.column
        return out

    def restricted(self, x, keep=None):
        """(idx, table, y): the table on the elements idx reachable from the
        nonzero elements of x (n, or n x B), and x on them as y; with keep,
        a mask of whole components (`_conjugate_halves`), from those of them
        in keep.  The restricted table holds idx, and diagonal in idx.

        An element joins once any nonzero-weight source of it has joined.
        Every other element has a zero derivative from zero sources, so it
        stays exactly zero, under the exact flow and every Runge-Kutta step
        alike.  The table keeps lam, weight and gather on idx and the rows
        that still gather a reached source; an entry whose source was not
        reached gathers its own element with zero weight, as in the full
        table.
        Each row sum keeps its order and loses only exact zeros.
        """
        live = self.weight != 0
        reached = (x != 0).reshape(len(x), -1).any(axis=1)
        if keep is not None:
            reached &= keep
        while True:
            grown = reached | (live & reached[self.gather]).any(axis=0)
            if np.array_equal(grown, reached):
                break
            reached = grown
        idx = np.flatnonzero(reached)
        position = np.zeros(len(x), dtype=np.intp)
        position[idx] = np.arange(len(idx))
        gather = self.gather[:, idx]
        source = live[:, idx] & reached[gather]
        rows = source.any(axis=1)
        source = source[rows]
        out = object.__new__(LiouvilleTable)
        out.lam = self.lam[idx]
        out.gather = np.where(source, position[gather[rows]], np.arange(len(idx)))
        out.weight = np.where(source, self.weight[rows][:, idx], 0.0)
        out.column = self.column[rows[len(rows) - len(self.column):]]
        out.idx, out.diagonal = idx, (None if self.diagonal is None else
                                      position[self.diagonal[reached[self.diagonal]]])
        return idx, out, x[idx]


# ---------------------------------------------------------------------------
# the window runner: exact windows and fixed-step Runge-Kutta
# ---------------------------------------------------------------------------

def _lower(rows):
    """The square matrix whose row i holds rows[i] left of its diagonal."""
    a = np.zeros((len(rows),) * 2)
    for i, row in enumerate(rows):
        a[i, :i] = row
    return a


# explicit Runge-Kutta methods as (A, b, c): stage i of a step of h from t
# applies the generator at t + c_i h to x + h sum_j a_ij k_j, and the step
# adds h sum_i b_i k_i.  Classic RK4 is evolve's, the reference's.
RK4 = (_lower([[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]]),
       np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
       np.array([0.0, 0.5, 0.5, 1.0]))
# The 12-stage 8th-order formula of DOP853, propagate's, at a fixed step and
# without its error estimate: Prince & Dormand, J. Comput. Appl. Math. 7, 67
# (1981); Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed. (1993), II.10.
DOP853 = (
    _lower([
        [],
        [5.26001519587677318785587544488e-2],
        [1.97250569845378994544595329183e-2,
         5.91751709536136983633785987549e-2],
        [2.95875854768068491816892993775e-2, 0.0,
         8.87627564304205475450678981324e-2],
        [2.41365134159266685502369798665e-1, 0.0,
         -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1],
        [3.7037037037037037037037037037e-2, 0.0, 0.0,
         1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1],
        [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2],
        [3.70920001185047927108779319836e-2, 0.0, 0.0,
         1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1,
         -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3],
        [6.24110958716075717114429577812e-1, 0.0, 0.0,
         -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1,
         2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1,
         -4.34898841810699588477366255144e1],
        [4.77662536438264365890433908527e-1, 0.0, 0.0,
         -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1,
         2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1,
         -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2],
        [-9.3714243008598732571704021658e-1, 0.0, 0.0,
         5.18637242884406370830023853209,
         1.09143734899672957818500254654,
         -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1,
         2.27394870993505042818970056734e1,
         2.49360555267965238987089396762,
         -3.0467644718982195003823669022],
        [2.27331014751653820792359768449, 0.0, 0.0,
         -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444,
         -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1,
         -2.85899827713502369474065508674,
         -8.87285693353062954433549289258,
         1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1]]),
    np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
              4.45031289275240888144113950566,
              1.89151789931450038304281599044,
              -5.8012039600105847814672114227,
              3.1116436695781989440891606237e-1,
              -1.52160949662516078556178806805e-1,
              2.01365400804030348374776537501e-1,
              4.47106157277725905176885569043e-2]),
    np.array([0.0, 5.26001519587677318785587544488e-2,
              7.89002279381515978178381316732e-2,
              1.18350341907227396726757197510e-1,
              2.81649658092772603273242802490e-1,
              3.33333333333333333333333333333e-1, 0.25,
              3.07692307692307692307692307692e-1,
              6.51282051282051282051282051282e-1, 0.6,
              8.57142857142857142857142857142e-1, 1.0]))
# the largest h max|lam| of a propagate step, for lam the diagonal of the
# window's table: under DOP853's stability radius on the imaginary axis,
# 5.96 (RK4's is 2.83)
STABLE_STEP = 4.0


def _check_dt(dt):
    if not 0.0 < dt < math.inf:
        raise ParameterError(
            f"dt must be a positive finite number of us, got {dt!r}")


def _coefficients(terms, t):
    """(len(t), K): the coefficients c(t) of terms[k] at the times t in
    column k, each its amplitude times its carrier phase."""
    c = [term.amplitude_at(t) * np.exp(1j * (term.carrier * t + term.phase))
         for term in terms]
    return np.array(c, dtype=complex).reshape(len(terms), len(t)).T


def _invariant(y, diag):
    """Per column of y (B, m): the sum of its elements at the positions
    diag, a trace, or with diag None its squared norm, along a C-contiguous
    copy, so the same to the bit whatever columns stand beside it."""
    part = np.abs(y) ** 2 if diag is None else y[:, diag]
    return np.ascontiguousarray(part).sum(axis=1)


def _on_support(table, x, route, *args):
    """The columns of x (n, B) after a window under the table, propagated
    on their reached support alone: route(sub, y, *args) returns y after
    the window, for sub the table restricted to the elements idx it reaches
    from x's nonzero ones (`LiouvilleTable.restricted`) and y = x[idx]; the
    other elements stay exactly zero.  Where every column of a vec(rho)
    table is Hermitian to the bit, only the components in table.kept are
    propagated, and each Hermitian column then sets table.mirrored to the
    conjugates of their partners and makes its diagonal real, so that it
    leaves Hermitian to the bit."""
    herm = np.zeros(x.shape[1], dtype=bool)
    if table.diagonal is not None:      # one of each (i, j), (j, i) is mirrored
        herm = ((x[table.mirrored] == x[table.partner].conj()).all(axis=0)
                & (x[table.diagonal].imag == 0).all(axis=0))
    idx, sub, y = table.restricted(x, table.kept if herm.all() else None)
    out = np.zeros_like(x)
    out[idx] = route(sub, y, *args)
    if herm.any():
        cols = np.flatnonzero(herm)
        out[np.ix_(table.mirrored, cols)] = out[np.ix_(table.partner, cols)].conj()
        out.imag[np.ix_(table.diagonal, cols)] = 0.0
    return out


def evolve(model: LindbladModel, rho0, t_span, dt, steps=1):
    """Integrate d rho/dt = -i[H(t), rho] + sum_k D[c_k] rho with classic RK4.

    rho0 is a (d, d) density matrix.  Returns the states, as (d, d)
    complex arrays, at the steps + 1 equally spaced times of t_span, the
    initial state first.  Each of the steps intervals runs through
    propagate's stepped route (`_stepped`) with the RK4 tableau, stepped
    everywhere, on the support frame (`_on_support`) of the LiouvilleTable
    of the terms active in that interval (built once per set of terms):
    ceil(interval / h) fixed steps, at least one, for h the smaller of dt
    and the interval's ``model.max_step`` at 40 steps per period (so dt is
    the largest step the caller allows; unlike propagate, evolve bounds no
    step by the table's diagonal), with the trace checked as `_stepped`
    checks it.  A dt that is not a positive finite number, steps < 1, a
    t_span that is not two finite times t0 <= t1, or a rho0 that holds a
    value that is not finite raises ParameterError.
    """
    t0, t1 = t_span
    if not -math.inf < t0 <= t1 < math.inf:
        raise ParameterError(f"t_span must be two finite times t0 <= t1, "
                             f"got {t_span!r}")
    _check_dt(dt)
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps!r}")

    d = model.dims.total
    rho = np.asarray(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"rho0 shape {rho.shape} does not match dim {d}")
    if not np.all(np.isfinite(rho)):
        raise ParameterError("rho0 holds a value that is not finite")
    x = rho.astype(complex).reshape(-1, 1)
    times = np.linspace(t0, t1, steps + 1)
    states, tables = [x], {}
    for ta, tb in zip(times[:-1], times[1:]):
        terms = model.active_terms(ta, tb)
        key = tuple(map(id, terms))
        if key not in tables:
            tables[key] = LiouvilleTable(model, terms)
        h = min(dt, model.max_step(ta, tb, 40.0))
        x = _on_support(tables[key], x, _stepped, [terms], np.array([ta]),
                        np.array([tb]), h, RK4)
        states.append(x)
    return [s.reshape(d, d) for s in states]


def _stepped(table, y, terms, t0, t1, dt, tableau=DOP853):
    """The columns of y (m, B) propagated by the explicit Runge-Kutta method
    tableau = (A, b, c) from t0 to t1 (B,) under the table, column j with
    the coefficients of terms[j]: n = ceil((t1 - t0) / dt) steps, at least
    one, of (t1 - t0) / n each, one grid per column, so no step exceeds dt;
    a ratio within 1e-9 of an integer, as a window's float edges leave it,
    takes that integer.  dt is a number or one per column.  The columns
    step batch-major, as one flat vector of B blocks of m under the table
    tiled B times: step k advances column j by h[k, j] (h is (steps, B), 0
    once the column is done), its stage i applying the table with
    scale[k, i], the drive rows' scales (`LiouvilleTable.scales`) at the
    stage's time t + c_i h, formed once for the window.  Every sum runs
    element by element in one fixed order, so a column comes out the same
    to the bit whatever columns step beside it.  Each column's invariant
    (`_invariant` on table.diagonal: a trace, or a ket's squared norm) is
    checked wherever a column reaches a multiple of max(1, n // 200) steps
    or its last; a drift beyond 1e-6 from its entering value, or none that
    compares, raises IntegrationError at the first drifting column's own
    time, suggesting half its own step."""
    a, b, c = tableau
    n = np.maximum(1, np.ceil((t1 - t0) / dt - 1e-9).astype(int))
    h = (t1 - t0) / n
    coeff = np.zeros((n.max(), len(c), len(terms[0]), len(n)), dtype=complex)
    for j, column in enumerate(terms):
        stage_t = t0[j] + h[j] * (np.arange(n[j])[:, None] + c)
        coeff[:n[j], ..., j] = _coefficients(
            column, stage_t.ravel()).reshape(n[j], len(c), -1)
    step = np.arange(1, n.max() + 1)[:, None]
    due = (step <= n) & ((step % np.maximum(1, n // 200) == 0) | (step == n))
    due, h = due.any(axis=1), np.where(step <= n, h, 0.0)

    y = np.ascontiguousarray(y.T).reshape(-1)   # batch-major, flat
    tiled, scale = table.tiled(len(n)), table.scales(coeff)
    # the stages in rows, with a spare zero element: numpy sums a stack of
    # rows two elements wide or more in row order, element by element, one
    # a single element wide pairwise.  Stage i and the step weigh all the
    # stages before them: a one-row stack sums to its row, and a zero
    # weight adds a zero, so no sum needs a form of its own.
    stages = np.zeros((len(c), y.size + 1), dtype=complex)
    outs = [row[:-1] for row in stages]

    def weighed(w):
        return np.add.reduce(w[:, None] * stages[:len(w)])[:-1]

    start = _invariant(y.reshape(len(n), -1), table.diagonal)
    for k, check in enumerate(due.tolist()):
        hk = h[k].repeat(len(table.lam))        # each element's step
        tiled.apply(y, scale[k, 0], out=outs[0])
        for i, (out, s) in enumerate(zip(outs[1:], scale[k, 1:]), 1):
            tiled.apply(y + hk * weighed(a[i, :i]), s, out=out)
        y += hk * weighed(b)
        if check:
            drift = np.abs(_invariant(y.reshape(len(n), -1), table.diagonal) - start)
            if not drift.max() <= TRACE_DRIFT_TOL:
                j = np.argmax(drift)
                raise IntegrationError(
                    f"{'norm' if table.diagonal is None else 'trace'} drifted by "
                    f"{drift[j]:.3g} at t = {t0[j] + (k + 1) * h[k, j]:.6g} "
                    f"us; retry with dt <= {h[k, j] / 2:.3g} us")
    return y.reshape(len(n), -1).T


# Taylor order of exp(Y) for ||Y||_1 < 1/2: the remainder is below
# 2 * 0.5**17 / 17! < 1e-19, under the float64 rounding of the sum
TAYLOR_ORDER = 16
# entries of a stack of block generators in _exact, which holds four at once
STACK_ENTRIES = 1 << 12


def _components(gather):
    """Each element's label, the smallest index of its connected component,
    for the gather rows (rows, n) of a table, which join each element to
    those it gathers."""
    n_el = gather.shape[1]
    src = np.broadcast_to(np.arange(n_el), gather.shape)
    # min-label propagation with pointer jumping
    label = np.arange(n_el)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[gather])
        np.minimum.at(new, gather, label[src])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _conjugate_halves(gather, d):
    """(kept, mirrored, partner) for a table with the gather rows (rows, n)
    on vec(rho) of a d x d rho.  Its generator maps X^dag to L(X)^dag, so
    the elements (j, i) of a component C's elements (i, j) form a component
    C* too, and for Hermitian rho one of C, C* fixes the other.  kept
    masks each C with min(C) <= min(C*); mirrored indexes the elements a
    Hermitian column reads off the conjugates of their partner elements,
    (j, i): those outside kept, and the strict lower triangle of each C =
    C*, which the components in kept propagate too."""
    label = _components(gather)
    n_el = d * d
    partner = np.arange(n_el).reshape(d, d).T.ravel()
    lower = np.arange(n_el) // d > np.arange(n_el) % d
    kept = label <= label[partner]
    mirrored = np.flatnonzero(~kept | (lower & (label == label[partner])))
    return kept, mirrored, partner[mirrored]


def _static_blocks(table):
    """Decoupled blocks of a table of static rows, grouped by size: the
    connected components of the rows' gathers (`_components`), which never
    couple two elements of different blocks.  Returns one (m, n) index
    array per block size n, each row one block in ascending order.
    """
    label = _components(table.gather)
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1), len(label)]
    by_size = {}
    for lo, hi in zip(cuts, cuts[1:]):
        by_size.setdefault(hi - lo, []).append(order[lo:hi])
    return [np.array(blocks) for _, blocks in sorted(by_size.items())]


def _block_generators(table, idx, lam, scale):
    """gen[b, k], the generator of the table's block idx[k] (one size of
    _static_blocks) in column b of B, with lam (n, B) on its diagonal and
    the weights of row r times scale[r, b]; every row is taken as
    static."""
    m, n = idx.shape
    position = np.empty(len(table.lam), dtype=np.intp)
    position[idx] = np.arange(n)
    block, row = np.arange(m)[:, None], np.arange(n)[None, :]
    gen = np.zeros((lam.shape[1], m, n, n), dtype=complex)
    gen[:, block, row, row] = np.moveaxis(lam[idx], -1, 0)
    for gather, weight, s in zip(table.gather, table.weight, scale):
        gen[:, block, row, position[gather[idx]]] += weight[idx] * s[:, None, None]
    return gen


def _block_expm(gen):
    """exp of each matrix in the stack gen (m, n, n), overwriting gen.

    Taylor series after scaling each matrix by 2**-s to a 1-norm below 1/2,
    then s squarings (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Every
    matrix gets its own s: a squaring doubles the rounding error of the
    trace, so the slow population block is not squared as often as the
    fast coherences beside it.
    """
    _, s = np.frexp(np.abs(gen).sum(axis=1).max(axis=1))
    s = np.maximum(s + 1, 0)
    gen *= np.ldexp(1.0, -s)[:, None, None]
    out = gen + np.eye(gen.shape[-1])
    work = gen.copy()               # the Taylor term, then the squared part
    for k in range(2, TAYLOR_ORDER + 1):
        np.divide(work @ gen, k, out=work)
        out += work
    for k in range(int(s.max())):
        sel = s > k
        work = out[sel]
        out[sel] = work @ work
    return out


def _exact(table, y, terms, t0, t1, frames):
    """The columns of y (m, B) propagated exactly from t0 to t1 (B,) under
    the restricted table (`LiouvilleTable.restricted`), column j with the
    coefficients of terms[j] fixed at t0[j] in the frame K = frames[j]
    (`LindbladModel.carrier_frame`): exp(-S tau) exp(tau (L + S)) y, with
    S = i(K_a - K_b) on vec(rho), or iK on a ket (table.diagonal None), taken
    at the table's elements table.idx and added to lam, block by block
    (_static_blocks).  Columns whose lam, scales and tau are equal to the
    bit share one block propagator, and one _block_expm per block size
    takes as many such propagators as a stack of STACK_ENTRIES holds.  A
    column whose invariant (`_invariant` on table.diagonal) drifts beyond 1e-6
    raises IntegrationError."""
    tau = t1 - t0
    c = np.array([_coefficients(column, np.array([t]))[0]
                  for column, t in zip(terms, t0)]).T
    K, idx = np.array(frames).T, table.idx      # (d, B), (m,)
    shift = 1j * (K[idx] if table.diagonal is None
                  else K[idx // len(K)] - K[idx % len(K)])
    lam = table.lam[:, None] + shift
    scale = np.ones((len(table.weight), y.shape[1]), dtype=complex)
    scale[len(scale) - len(table.column):] = table.scales(c)
    groups = {}
    for j in range(y.shape[1]):
        key = lam[:, j].tobytes() + scale[:, j].tobytes() + tau[j].tobytes()
        groups.setdefault(key, []).append(j)
    groups = list(groups.values())
    out = np.zeros_like(y)
    for blocks in _static_blocks(table):
        m, n = blocks.shape
        height = max(1, STACK_ENTRIES // (m * n * n))
        for lo in range(0, len(groups), height):
            first = [cols[0] for cols in groups[lo:lo + height]]
            gen = _block_generators(table, blocks, lam[:, first], scale[:, first])
            gen *= tau[first, None, None, None]
            prop = _block_expm(gen.reshape(-1, n, n)).reshape(gen.shape)
            for p, cols in zip(prop, groups[lo:lo + height]):
                new = p @ np.moveaxis(y[blocks[..., None], cols], -1, 0)[..., None]
                out[blocks[..., None], cols] = np.moveaxis(new[..., 0], 0, -1)
    out *= np.exp(-shift * tau)
    drift = np.abs(_invariant(out.T, table.diagonal) - _invariant(y.T, table.diagonal))
    j = np.argmax(drift)
    if drift[j] > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"{'norm' if table.diagonal is None else 'trace'} drifted by "
            f"{drift[j]:.3g} over [{t0[j]:.6g}, {t1[j]:.6g}] us; the "
            "generator of the window does not conserve it")
    return out


def _cuts(model, t0, t1):
    """t0, t1 and the model's segment edges from t0 on, clipped to t1."""
    segments = {term.segment for term in model.terms} - {None}
    return sorted([t0, t1] + [min(e, t1) for seg in segments
                              for e in _edges(seg) if e >= t0])


def propagate(models, x, span, dt):
    """The columns of x propagated across span = (t0, t1), each time a
    number or one per column, as a new (n, B) array.

    Column j of x is a row-major vec(rho) (n = d * d) or a ket (n = d)
    under models[j], the models of one frame: each shares models[0]'s drift
    and channels, as every model that ``with_sequence`` drives from one
    frame does; kets need a frame without collapse channels.  Its span
    is cut at the start, ramp ends and end of each segment that drives
    models[j] (`_cuts`), coincident edges kept, and window k of every
    column runs in step k, a column with fewer edges ending in zero-length
    windows.  A window under 1e-12 us has zero length, and one of zero
    length in every column is skipped.  A column propagates exactly
    (`_exact`) where ``models[j].carrier_frame(t0, t1)`` gives a frame, and
    by DOP853 otherwise (`_stepped`), at the smallest of dt, the window's
    ``models[j].max_step(t0, t1)`` and STABLE_STEP over the largest |lam|
    of the window's table: dt is the largest step the caller allows, the
    model bounds it where its carriers are fast, as in the ``bare`` frame,
    and the table where its diagonal is; see the module docstring.

    Columns on the same route with the same active term operators propagate
    together, under one LiouvilleTable built once per call.  Each column's
    trace (rho) or squared norm (ket) is checked against its entering value,
    and a drift beyond 1e-6 raises IntegrationError.  A dt that is not a
    positive finite number, a span that is not two finite times t0 <= t1,
    a column of x that holds a value that is not finite, or a model of
    another frame than models[0]'s raises ParameterError, before any window
    runs; an x without one column per model, DimensionError.
    """
    _check_dt(dt)
    x = np.array(x, dtype=complex)
    if x.ndim != 2 or x.shape[1] != len(models) or not models:
        raise DimensionError(f"propagate takes one model per column of x (n, B), "
                             f"got {len(models)} models for x of shape {x.shape}")
    base = models[0]
    for j, model in enumerate(models):
        if model.drift is not base.drift or model.channels is not base.channels:
            raise ParameterError(f"the model of column {j} is not of column 0's "
                                 f"frame: it has its own drift or channels")
    d = base.dims.total
    ket = len(x) == d
    if not ket and len(x) != d * d:
        raise DimensionError(f"columns of length {len(x)} are neither kets "
                             f"nor vec(rho) of dimension {d}")
    if ket and base.channels:
        raise ParameterError(
            "kets propagate only under a model without collapse channels")
    try:
        start, stop = (np.full(x.shape[1], t, dtype=float) for t in span)
    except (TypeError, ValueError):
        start = stop = np.nan
    if not np.all(np.isfinite(start) & np.isfinite(stop) & (start <= stop)):
        raise ParameterError(f"span must be two finite times t0 <= t1, got {span!r}")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if bad.size:
        raise ParameterError(f"column {bad[0]} of x holds a value that is not finite")
    cuts = [_cuts(*column) for column in zip(models, start, stop)]
    width = max(map(len, cuts))
    edges = np.array([c + c[-1:] * (width - len(c)) for c in cuts]).T
    tables = {}     # by the ids of the active term operators the models hold
    for t0, t1 in zip(edges, edges[1:]):
        t1 = np.where(t1 - t0 < 1e-12, t0, t1)
        if not np.any(t1 > t0):
            continue
        routes = {}
        for j, model in enumerate(models):
            terms = model.active_terms(t0[j], t1[j])
            frame = model.carrier_frame(t0[j], t1[j])
            key = tuple(id(term.op) for term in terms)
            routes.setdefault((frame is None, key), []).append(
                (j, terms, frame))
        for (stepped, key), members in routes.items():
            cols, terms, frames = (list(v) for v in zip(*members))
            if key not in tables:
                tables[key] = LiouvilleTable(models[cols[0]], terms[0], ket=ket)
            # each route's own last argument: the frames, or the step bounds
            table, route, own = tables[key], _exact, frames
            if stepped:
                lam = np.abs(table.lam).max(initial=0.0)
                stable = STABLE_STEP / lam if lam else math.inf
                route, own = _stepped, np.array(
                    [min(dt, stable, models[j].max_step(t0[j], t1[j])) for j in cols])
            x[:, cols] = _on_support(table, x[:, cols], route, terms, t0[cols],
                                     t1[cols], own)
    return x
