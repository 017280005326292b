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
    ``LindbladModel.max_step``, 40 steps per period of the fastest active
    carrier, bounds every RK4 step, the calibration probes' too, to
    ~0.01 ns).  Useful for cross-validating the dressed construction.
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

with T the |g,n> -> |e,n+1> ladder operator; it is retained only when the
tone is near the two-photon resonance.  The quadratic drive dependence and
cubic coupling dependence of the sideband rate are properties of this term
and are cross-checked against the full integration by
``protocol.effective_bsb_check``.

Propagation
-----------
Every window uses one form of the generator, a :class:`LiouvilleTable`,
read off the operators that ``build_model`` builds once as label-shift
classes (:class:`ShiftClass`: key, col, weight): a diagonal plus gather
rows on vec(rho).  One runner, :func:`propagate`, takes B columns, each a
vec(rho) or a ket under its own model, across a span that it cuts at each
column's pulse and ramp edges, and routes each column in each window:

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
- by classic RK4 at a fixed step otherwise, no larger than the window's
  ``max_step``: the pulse ramps, and every driven window of the ``lab``
  frame (its dense drift and its +/- carriers admit no such K).

Columns on the same route whose models share their operators, as the
models of one frame do, share one table, built once per call.
:func:`evolve` is the RK4 reference: one state, stepped by the same core
and returned at the steps + 1 equally spaced times of its window.

Both routes act only on the reached support
(:meth:`LiouvilleTable.restricted`): the elements the window's table can
reach from the entering state's nonzero elements.  The others have a zero
derivative from zero sources and stay exactly zero.  Drives and collapse
operators shift label differences by fixed classes, and the default
protocol never drives the readout, so from |g,0,0> the windows of its
sideband-store pulse reach 37 of the 900 elements of rho at dims (3, 5, 2),
those of the qubit pi pulses 171 and those of the sideband-retrieve pulse
215; on a sideband plateau these split into blocks of at most 37 elements,
on a qubit plateau of at most 45.  A probe ket reaches a few of its 30
amplitudes.  A state with full support, or the ``lab`` frame's dense drift,
reaches everything.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qsys
from .device import DeviceParams, pure_dephasing_time
from .errors import DimensionError, IntegrationError, ParameterError
from .pulses import (PulseSegment, QUBIT_CHANNEL, STORAGE_CHANNEL,
                     READOUT_CHANNEL)
from .qsys import SubsystemDims, QuantumState
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


def _shift_class(op, labels, key):
    """The class of the dense op whose elements shift the labels by key."""
    keep = op != 0
    for lab, shift in zip(labels, key):
        keep &= lab[:, None] - lab[None, :] == shift
    rows, live = np.arange(len(op)), keep.any(axis=1)
    col = np.where(live, keep.argmax(axis=1), rows)
    return ShiftClass(key, col, np.where(live, op[rows, col], 0.0))


def _split(op, labels, tol):
    """The classes of the dense op with an element above tol, by key."""
    nt, ns, nr = labels
    rows, cols = np.nonzero(np.abs(op) > tol)
    keys = sorted(set(zip(nt[rows] - nt[cols], ns[rows] - ns[cols],
                          nr[rows] - nr[cols])))
    return tuple(_shift_class(op, labels, key) for key in keys)


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

    kind selects f(t): 'coupling' uses the constant strength, 'linear' half
    the segment envelope, 'two-photon' coeff * envelope(t)^2.
    """

    op: ShiftClass
    carrier: float
    phase: float
    kind: str
    strength: float = 0.0
    segment: PulseSegment | None = None

    def amplitude_at(self, t):
        if self.kind == "coupling":
            t = np.asarray(t, dtype=float)
            return np.full(t.shape, self.strength)
        env = self.segment.envelope_at(t)
        if self.kind == "linear":
            return 0.5 * env
        if self.kind == "two-photon":
            return self.strength * env**2
        raise ParameterError(f"unknown term kind {self.kind!r}")


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
    used = np.zeros(d, dtype=bool)
    U = np.zeros_like(v)
    energies = np.zeros(d)
    # assign in order of decreasing overlap so near-degenerate pairs resolve
    overlaps = np.abs(v) ** 2
    order = np.argsort(-np.max(overlaps, axis=0))
    for k in order:
        col = overlaps[:, k].copy()
        col[used] = -1.0
        idx = int(np.argmax(col))
        if col[idx] < 0.5:
            raise ParameterError(
                "dressed-state labeling is ambiguous (max overlap "
                f"{col[idx]:.3f} < 0.5); the system is not dispersive enough"
            )
        used[idx] = True
        phase = v[idx, k]
        U[:, idx] = v[:, k] * (abs(phase) / phase if phase != 0 else 1.0)
        energies[idx] = w[k]
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
    drift: np.ndarray                 # static rotating-frame Hamiltonian
    terms: tuple                      # HamiltonianTerm entries
    channels: tuple                   # CollapseChannel entries
    rot: tuple                        # per-subsystem rotation freqs (rad/us)
    labels: tuple                     # (n_t, n_s, n_r) of each basis state
    # per drive channel the ShiftClasses of its lowering operator, sorted by
    # key, and the class of the |g,n> -> |e,n+1> two-photon sideband
    # ladder, in the model basis
    drive_ops: dict
    two_photon: ShiftClass

    def __post_init__(self):
        if not qsys.is_hermitian(self.drift, 1e-9):
            raise DimensionError("drift Hamiltonian is not Hermitian")

    # -- basis helpers ----------------------------------------------------
    def basis_state(self, nt=0, ns=0, nr=0):
        return qsys.basis_state(self.dims, nt, ns, nr)

    def label_projector(self, nt):
        """Projector onto the model basis states of transmon label nt."""
        return np.diag((self.labels[0] == nt).astype(complex))

    def with_sequence(self, seq):
        """This model, which carries no sequence, driven by seq: its terms
        plus those of seq's segments (see the module docstring).  Only
        reads the frame, so every model driven from it takes its term
        operators from the same classes."""
        a = self.params.angular()
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
                            kind="linear", segment=seg))
            if seg.target == QUBIT_CHANNEL and self.frame != "lab":
                d_s = a.w_s - seg.carrier
                d_q = a.w_q - seg.carrier
                if min(abs(d_s), abs(d_q)) > TWO_PI * 1.0:
                    coeff = a.g**3 / (d_s**2 * d_q**2)
                    carrier = (self.rot[0] + self.rot[1]) - 2.0 * seg.carrier
                    if abs(carrier) <= cutoff:
                        terms.append(HamiltonianTerm(
                            op=self.two_photon, carrier=carrier,
                            phase=-2.0 * seg.phase, kind="two-photon",
                            strength=coeff, segment=seg))
        return replace(self, terms=tuple(terms))

    # -- integrator support --------------------------------------------------
    def active_terms(self, t0, t1):
        """Terms whose segment overlaps (t0, t1); a coupling is always on."""
        return [term for term in self.terms if term.segment is None
                or (term.segment.end > t0 and term.segment.start < t1)]

    def max_step(self, t0=-math.inf, t1=math.inf):
        """The largest RK4 step in (t0, t1): 1/(40 f_max), for f_max the
        fastest carrier of the terms active there, or inf with none.

        The only step bound: propagate and evolve step every RK4 window at
        no more than it, whatever dt they are given.  At 20 steps per
        period a bare-frame sideband probe's ket norm drifts past 1e-6 at
        the default dims; 40 keeps it within.
        """
        w = max((abs(t.carrier) for t in self.active_terms(t0, t1)), default=0.0)
        if w < CARRIER_ZERO_TOL:
            return math.inf
        return TWO_PI / (40.0 * w)

    def carrier_frame(self, t0, t1):
        """K = kappa . labels, the diagonal of a frame in which the
        generator of the window (t0, t1) is constant, or None.

        Under rho~ = exp(iK(t - t0)) rho exp(-iK(t - t0)) a term of class k
        and carrier w becomes c(t0) exp(i(w + kappa . k)(t - t0)) while its
        envelope is constant, and a static class k becomes
        exp(i kappa . k (t - t0)).  So each active term must be on its
        plateau and kappa . k = -w must hold for its class, and
        kappa . k = 0 for the drift's classes (a collapse operator is one
        class, so its dissipator is static).  None when no kappa solves
        these to rounding, as for the lab frame's dense drift and +/-
        carriers.
        """
        keys, rhs = [], []
        for term in self.active_terms(t0, t1):
            up, down = _edges(term.segment)[1:3] if term.segment else (t0, t1)
            if not (up <= t0 and t1 <= down):
                return None
            keys.append(term.op.key)
            rhs.append(-term.carrier)
        static = {(0, 0, 0),
                  *(c.key for c in _split(self.drift, self.labels, 0.0))}
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
                *, noiseless=False, storage_t_phi=None):
    """Construct a rotating-frame Lindblad model with no sequence, a frame.

    The frame holds everything that does not depend on the pulses, each
    operator built once as ShiftClasses: a drive channel's classes above
    1e-12, and the one class of each collapse channel, coupling and the
    two-photon ladder.
    ``build_model(...).with_sequence(seq)`` drives it with a sequence.
    noiseless strips all collapse channels (used for calibration).
    storage_t_phi adds an optional pure-dephasing channel on the storage
    mode; by default memory dephasing arises only from thermal qubit jumps
    through the dispersive interaction.
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
            diag = (0.5 * a.alpha * lt * (lt - 1)).astype(complex)
            drift = np.diag(diag)
            # (class, exchange operator) of the storage and readout
            couplings = [((1, -1, 0), a.g * (b.conj().T @ a_s)),
                         ((1, 0, -1), a.g * (b.conj().T @ a_r))]
        else:  # lab
            rot = (0.0, 0.0, 0.0)
            drift = h0.astype(complex)
            couplings = []

    terms = tuple(HamiltonianTerm(op=_shift_class(op, labels, key),
                                  carrier=float(np.dot(key, rot)), phase=0.0,
                                  kind="coupling", strength=1.0)
                  for key, op in couplings)

    def to_model(op):
        return U.conj().T @ op @ U

    channel_ops = {QUBIT_CHANNEL: b, STORAGE_CHANNEL: a_s, READOUT_CHANNEL: a_r}
    drive_ops = {target: _split(to_model(op), labels, 1e-12)
                 for target, op in channel_ops.items()}
    sigma_plus = np.zeros((dims.n_transmon,) * 2, dtype=complex)
    sigma_plus[1, 0] = 1.0
    two_photon_bare = (qsys.tensor_embed(sigma_plus, qsys.TRANSMON, dims)
                       @ qsys.tensor_embed(qsys.creation(dims.n_storage),
                                           qsys.STORAGE, dims))
    two_photon = _shift_class(to_model(two_photon_bare), labels, (1, 1, 0))

    channels = []
    if not noiseless:
        t_phi_q = pure_dephasing_time(a.t1_q, a.t2_q)
        n_t = to_model(qsys.tensor_embed(
            qsys.number_op(dims.n_transmon), qsys.TRANSMON, dims))
        channels.append(CollapseChannel(
            _shift_class(to_model(a_s), labels, (0, -1, 0)), a.k_s, "storage-decay"))
        channels.append(CollapseChannel(
            _shift_class(to_model(a_r), labels, (0, 0, -1)), a.k_ro, "readout-decay"))
        channels.append(CollapseChannel(
            _shift_class(to_model(b), labels, (-1, 0, 0)), 1.0 / a.t1_q,
            "qubit-decay"))
        if math.isfinite(t_phi_q):
            # rate 2/T_phi on the number operator gives neighbouring-level
            # coherences the dephasing rate 1/T_phi
            channels.append(CollapseChannel(
                _shift_class(n_t, labels, (0, 0, 0)), 2.0 / t_phi_q,
                "qubit-dephasing"))
        if a.p_e > 0:
            channels.append(CollapseChannel(
                _shift_class(to_model(b.conj().T), labels, (1, 0, 0)),
                a.p_e / a.t1_q, "qubit-thermal"))
        if storage_t_phi is not None and math.isfinite(storage_t_phi):
            n_s = to_model(qsys.tensor_embed(
                qsys.number_op(dims.n_storage), qsys.STORAGE, dims))
            channels.append(CollapseChannel(
                _shift_class(n_s, labels, (0, 0, 0)), 2.0 / storage_t_phi,
                "storage-dephasing"))

    return LindbladModel(dims=dims, params=p, frame=frame, drift=drift,
                         terms=terms, channels=tuple(channels), rot=rot,
                         labels=labels, drive_ops=drive_ops,
                         two_photon=two_photon)


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
    build_model, each product left @ rho @ right^dag of classes one row;
    it splits only the dense A = H0 - (i/2) sum_k c_k^dag c_k, whose
    c^dag c is the diagonal of c's squared weights.  The static rows
    (s = 1) are -i A rho and i rho A^dag for each class of A, and the
    sandwiches c rho c^dag; those that gather the identity, such as the
    diagonal of A and the qubit dephasing, fold into lam.  The class op of
    terms[k] adds -i op rho and i rho op, scaled by c_k(t), and -i op^dag
    rho and i rho op^dag, scaled by conj(c_k(t)).

    With ket=True it is -i H(t) on a ket psi, for a model without collapse
    channels: only the rows -i op psi remain.
    """

    def __init__(self, model, terms=(), ket=False):
        d = model.dims.total
        eye = ShiftClass((0, 0, 0), np.arange(d), np.ones(d))
        ops = [replace(c.op, weight=math.sqrt(c.rate) * c.op.weight)
               for c in model.channels]
        cdc = np.zeros(d)
        for c in ops:
            cdc += np.bincount(c.col, (c.weight.conj() * c.weight).real, d)
        a0 = model.drift - 0.5j * np.diag(cdc)
        # (column, scale, left, right) for left @ rho @ right^dag: column
        # -1 marks a static row, k one scaled by c_k(t) and len(terms) + k
        # one scaled by conj(c_k(t))
        rows = [(-1, s, left, right) for a in _split(a0, model.labels, 0.0)
                for s, left, right in ((-1j, a, eye), (1j, eye, a))]
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

    def apply(self, x, c):
        """L(t) x for the coefficients c[k] = c_k(t) of the table's terms.

        x may carry a trailing batch axis, (n, B), with c then (K, B): one
        coefficient per term and column.  numpy alone, no BLAS call, so the
        row sum runs in one fixed order, the same for every column.
        """
        batch = (...,) + (None,) * (x.ndim - 1)
        out = x[self.gather]
        out *= self.weight[batch]
        if len(c):
            scale = np.concatenate((c, c.conj()))[self.column]
            out[len(out) - len(scale):] *= scale[:, None]
        out = out.sum(axis=0)
        out += self.lam[batch] * x
        return out

    def restricted(self, x):
        """(idx, table, y): the table on the elements idx reachable from the
        nonzero elements of x (n, or n x B), and x on them as y.

        An element joins once any nonzero-weight source of it has joined.
        Every other element has a zero derivative from zero sources, so it
        stays exactly zero, under the exact flow and under RK4 alike.  The
        table keeps lam, weight and gather on idx and the rows that still
        gather a reached source; an entry whose source was not reached
        gathers its own element with zero weight, as in the full table.
        Each row sum keeps its order and loses only exact zeros.
        """
        live = self.weight != 0
        reached = (x != 0).reshape(len(x), -1).any(axis=1)
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
        return idx, out, x[idx]


# ---------------------------------------------------------------------------
# the window runner: exact windows and fixed-step RK4
# ---------------------------------------------------------------------------

def _check_dt(dt):
    if not 0.0 < dt < math.inf:
        raise ParameterError(
            f"dt must be a positive finite number of us, got {dt!r}")


def _coefficient(term, t):
    """c(t) of a term at the times t: its amplitude times its carrier phase."""
    coeff = term.amplitude_at(t).astype(complex)
    coeff *= np.exp(1j * (term.carrier * t + term.phase))
    return coeff


def _coefficients(terms, t):
    """(len(t), K): the coefficients of terms[k] at the times t in column k."""
    return np.array([_coefficient(term, t) for term in terms],
                    dtype=complex).reshape(len(terms), len(t)).T


def _invariant(x, diag):
    """Per column of x (m, B): the sum of its rows diag (indices or a
    mask), a trace, or with diag None its squared norm."""
    return np.sum(np.abs(x) ** 2, axis=0) if diag is None \
        else np.sum(x[diag], axis=0)


def _rk4_step(table, x, h, c):
    """One classic RK4 step of dx/dt = table.apply(x, c), in place, with c
    at the step's start, midpoint and end; h may hold one step per column."""
    k1 = table.apply(x, c[0])
    k2 = table.apply(x + 0.5 * h * k1, c[1])
    k3 = table.apply(x + 0.5 * h * k2, c[1])
    k4 = table.apply(x + h * k3, c[2])
    x += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4(table, y, h, coeff, due, diag, t0):
    """Classic RK4 steps of dy/dt = table.apply(y, c(t)), in place: step k
    advances by h[k], with coeff[2k:2k + 3] the coefficients at its start,
    midpoint and end.  y is one column, (m,), with numbers h[k], or B
    columns, (m, B), with one step per column (h = 0 once a column's steps
    are done).  After each step k where due[k] holds, each column's
    invariant (`_invariant` with diag) is checked against its entering
    value, and a drift beyond 1e-6 raises IntegrationError; t0 (one per
    column) only dates it."""
    cols = y.reshape(len(y), -1)
    start = _invariant(cols, diag)
    for k, check in enumerate(due.tolist()):
        _rk4_step(table, y, h[k], coeff[2 * k:2 * k + 3])
        if check:
            drift = np.abs(_invariant(cols, diag) - start)
            if drift.max() > TRACE_DRIFT_TOL:
                j = np.argmax(drift)
                hj = np.broadcast_to(h[k], drift.shape)[j]
                t = np.broadcast_to(t0, drift.shape)[j] + (k + 1) * hj
                raise IntegrationError(
                    f"{'norm' if diag is None else 'trace'} drifted by "
                    f"{drift[j]:.3g} at t = {t:.6g} us; "
                    f"retry with dt <= {hj / 2:.3g} us")


def evolve(model: LindbladModel, rho0, t_span, dt, steps=1):
    """Integrate d rho/dt = -i[H(t), rho] + sum_k D[c_k] rho with classic RK4.

    Returns the states at the steps + 1 equally spaced times of t_span, the
    initial state first.  Each of the steps intervals runs through
    propagate's RK4 route (`_stepped`), stepped everywhere, under the
    LiouvilleTable of the terms active in that interval (built once per set
    of terms): round(interval / h) fixed steps, at least one, for h the
    smaller of dt and the interval's ``model.max_step`` (so dt is the
    largest step the caller allows), on the elements the table reaches
    from the state's nonzero ones (the others stay exactly zero, as under
    the exact flow).  The trace is checked against the interval's entering
    value every max(1, n // 200) of its n steps and at its end; a drift
    beyond 1e-6 raises IntegrationError suggesting a smaller step.  A dt
    that is not a positive finite number, or steps < 1, raises
    ParameterError.
    """
    t0, t1 = t_span
    if t1 < t0:
        raise ParameterError("t_span must be increasing")
    _check_dt(dt)
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps!r}")

    d = model.dims.total
    rho = rho0.rho if isinstance(rho0, QuantumState) else np.asarray(rho0)
    if rho.shape != (d, d):
        raise DimensionError(f"rho0 shape {rho.shape} does not match dim {d}")
    x = rho.astype(complex).reshape(-1, 1)
    diag = np.eye(d, dtype=bool).ravel()
    times = np.linspace(t0, t1, steps + 1)
    states, tables = [x], {}
    for ta, tb in zip(times[:-1, None], times[1:, None]):
        terms = model.active_terms(ta[0], tb[0])
        key = tuple(map(id, terms))
        if key not in tables:
            tables[key] = LiouvilleTable(model, terms)
        h = min(dt, model.max_step(ta[0], tb[0]))
        x = _stepped(tables[key], x, [terms], ta, tb, h, diag)
        states.append(x)
    return [QuantumState(s.reshape(d, d), model.dims) for s in states]


def _stepped(table, x, terms, t0, t1, dt, diag):
    """The columns of x (n, B) propagated by RK4 from t0 to t1 (B,) under
    the table, column j with the coefficients of terms[j]: n = round((t1 -
    t0) / dt) steps, at least one, of (t1 - t0) / n each, one grid per
    column; dt is a number or one per column.  The invariants are checked
    wherever a column reaches a multiple of max(1, n // 200) steps or its
    last (`_rk4`); diag masks the diagonal of vec(rho), None for kets."""
    n = np.maximum(1, np.round((t1 - t0) / dt).astype(int))
    h = (t1 - t0) / n
    coeff = np.zeros((2 * n.max() + 1, len(terms[0]), len(n)), dtype=complex)
    for j, column in enumerate(terms):
        stage_t = t0[j] + 0.5 * h[j] * np.arange(2 * n[j] + 1)
        coeff[:len(stage_t), :, j] = _coefficients(column, stage_t)
    step = np.arange(1, n.max() + 1)[:, None]
    due = (step <= n) & ((step % np.maximum(1, n // 200) == 0) | (step == n))
    due, h = due.any(axis=1), np.where(step <= n, h, 0.0)

    idx, table, y = table.restricted(x)
    diag = None if diag is None else np.flatnonzero(diag[idx])
    if len(n) == 1:     # a vector steps faster than an (m, 1) block
        y, h, coeff = y[:, 0], h[:, 0], coeff[..., 0]
    _rk4(table, y, h, coeff, due, diag, t0)
    out = np.zeros_like(x)
    out[idx] = y.reshape(len(idx), -1)
    return out


# Taylor order of exp(Y) for ||Y||_1 < 1/2: the remainder is below
# 2 * 0.5**17 / 17! < 1e-19, under the float64 rounding of the sum
TAYLOR_ORDER = 16
# entries of a stack of block generators in _exact, which holds four at once
STACK_ENTRIES = 1 << 12


def _static_blocks(table):
    """Decoupled blocks of a table of static rows, grouped by size: the
    connected components of the rows' gathers, which never couple two
    elements of different blocks.  Returns one (m, n) index array per block
    size n, each row one block in ascending order.
    """
    n_el, dst = len(table.lam), table.gather
    src = np.broadcast_to(np.arange(n_el), dst.shape)

    # min-label propagation with pointer jumping: each element ends labeled
    # with the smallest index of its component
    label = np.arange(n_el)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new

    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1), n_el]
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


def _exact(table, x, terms, frames, t0, t1, diag):
    """The columns of x (n, B) propagated exactly from t0 to t1 (B,) under
    the table, column j with the coefficients of terms[j] fixed at t0[j] in
    the frame K = frames[j] (`LindbladModel.carrier_frame`):
    exp(-S tau) exp(tau (L + S)) x, with S = i(K_a - K_b) on vec(rho), or iK
    on a ket (diag None), added to lam.  Only x's reached support is
    propagated (LiouvilleTable.restricted), block by block
    (_static_blocks), with one _block_expm per block size for as many
    columns as a stack of STACK_ENTRIES holds.  A column whose invariant
    (`_invariant` with diag) drifts beyond 1e-6 raises IntegrationError."""
    tau = t1 - t0
    c = np.array([_coefficients(column, np.array([t]))[0]
                  for column, t in zip(terms, t0)]).T
    idx, sub, y = table.restricted(x)
    K = np.array(frames).T                      # (d, B)
    shift = 1j * (K[idx] if diag is None else K[idx // len(K)] - K[idx % len(K)])
    lam = sub.lam[:, None] + shift
    scale = np.ones((len(sub.weight), x.shape[1]), dtype=complex)
    scale[len(scale) - len(sub.column):] = np.concatenate((c, c.conj()))[sub.column]
    out = np.zeros_like(x)
    for blocks in _static_blocks(sub):
        m, n = blocks.shape
        height = max(1, STACK_ENTRIES // (m * n * n))
        for lo in range(0, x.shape[1], height):
            cols = slice(lo, lo + height)
            gen = _block_generators(sub, blocks, lam[:, cols], scale[:, cols])
            gen *= tau[cols, None, None, None]
            prop = _block_expm(gen.reshape(-1, n, n)).reshape(gen.shape)
            new = prop @ np.moveaxis(y[blocks, cols], -1, 0)[..., None]
            out[idx[blocks], cols] = np.moveaxis(new[..., 0], 0, -1)
    out[idx] *= np.exp(-shift * tau)
    drift = np.abs(_invariant(out, diag) - _invariant(x, diag))
    j = np.argmax(drift)
    if drift[j] > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"{'norm' if diag is None else 'trace'} drifted by "
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
    under models[j]; kets need models without collapse channels.  Its span
    is cut at the start, ramp ends and end of each segment that drives
    models[j] (`_cuts`), coincident edges kept, and window k of every
    column runs in step k, a column with fewer edges ending in zero-length
    windows.  A window under 1e-12 us has zero length, and one of zero
    length in every column is skipped.  A column propagates exactly
    (`_exact`) where ``models[j].carrier_frame(t0, t1)`` gives a frame, and
    by RK4 otherwise (`_stepped`), at the smaller of dt and the window's
    ``models[j].max_step(t0, t1)``: dt is the largest step the caller
    allows, and the model bounds it where its carriers are fast, as in the
    ``bare`` frame; see the module docstring.

    Columns on the same route whose models share their drift, channel and
    active term operators (those of one frame) propagate together, under one
    LiouvilleTable built once per call.  Each column's trace (rho) or
    squared norm (ket) is checked against its entering value, and a drift
    beyond 1e-6 raises IntegrationError.  A dt that is not a positive
    finite number raises ParameterError, as does a span with t1 < t0.
    """
    _check_dt(dt)
    x = np.array(x, dtype=complex)
    d = models[0].dims.total
    ket = len(x) == d
    if not ket and len(x) != d * d:
        raise DimensionError(f"columns of length {len(x)} are neither kets "
                             f"nor vec(rho) of dimension {d}")
    if ket and any(model.channels for model in models):
        raise ParameterError(
            "kets propagate only under a model without collapse channels")
    start, stop = (np.full(x.shape[1], t, dtype=float) for t in span)
    if np.any(stop < start):
        raise ParameterError("span must have t1 >= t0")
    cuts = [_cuts(*column) for column in zip(models, start, stop)]
    width = max(map(len, cuts))
    edges = np.array([c + c[-1:] * (width - len(c)) for c in cuts]).T
    diag = None if ket else np.eye(d, dtype=bool).ravel()
    # what a column's table depends on besides its terms (the models live
    # through the call, so the ids of their operators are unique)
    bases = [(id(model.drift), *((c.rate, id(c.op)) for c in model.channels))
             for model in models]
    tables = {}
    for t0, t1 in zip(edges, edges[1:]):
        t1 = np.where(t1 - t0 < 1e-12, t0, t1)
        if not np.any(t1 > t0):
            continue
        routes = {}
        for j, model in enumerate(models):
            terms = model.active_terms(t0[j], t1[j])
            frame = model.carrier_frame(t0[j], t1[j])
            key = (bases[j], *(id(term.op) for term in terms))
            routes.setdefault((frame is None, key), []).append(
                (j, terms, frame))
        for (stepped, key), members in routes.items():
            cols, terms, frames = (list(v) for v in zip(*members))
            if key not in tables:
                tables[key] = LiouvilleTable(models[cols[0]], terms[0], ket=ket)
            if stepped:
                h = np.array([min(dt, models[j].max_step(t0[j], t1[j]))
                              for j in cols])
                x[:, cols] = _stepped(tables[key], x[:, cols], terms,
                                      t0[cols], t1[cols], h, diag)
            else:
                x[:, cols] = _exact(tables[key], x[:, cols], terms, frames,
                                    t0[cols], t1[cols], diag)
    return x
