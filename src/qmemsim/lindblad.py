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
    the step bound is ~0.02 ns).  Useful for cross-validating the dressed
    construction.
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
:func:`effective_bsb_check`.

Propagation
-----------
Every window uses one form of the generator, a :class:`LiouvilleTable`:
each operator is split into label-shift classes, so the Liouvillian on
vec(rho) is a diagonal plus gather rows.  A window whose generator is
constant is propagated exactly, rho(t1) = exp(L (t1 - t0)) rho(t0), on the
decoupled blocks of its rows (Moler & Van Loan scaling and squaring), in
numpy alone and whatever its length:

- a window with no active drive or coupling term
  (``LindbladModel.active_terms``), by :meth:`StaticPropagator.propagate`:
  the storage delays, the gaps between pulses and the cavity ringdowns'
  free decay;
- a window in which every active term is on its plateau, by
  :func:`propagate_plateau`.  In the frame rho~ = exp(iKt) rho exp(-iKt),
  with K = kappa . (n_t, n_s, n_r) diagonal and kappa . k = -carrier for
  each active term's class k (``LindbladModel.carrier_frame``), the
  envelopes and the carriers are both constant: the sideband and qubit
  plateaus, and in the ``bare`` frame also the idle windows, whose
  exchange couplings are always-active terms.

Any other window, the pulse ramps and every driven window of the ``lab``
frame (its dense drift and its +/- carriers admit no such K), is
integrated by :func:`evolve`, classic RK4 at a fixed step (the protocols
use ``dt_pulse``).  ``evolve`` and ``StaticPropagator.propagate`` return
the states at the steps + 1 equally spaced times of the window, the
initial state first.  Noiseless kets, such as the calibration probes,
propagate as one batch: :func:`evolve_kets` steps them with the ket form of
the table and the same RK4 step, and :func:`propagate_plateau_kets` takes
their plateaus exactly.

RK4 and the plateaus act only on the reached support
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
from .errors import (DimensionError, IntegrationError, ParameterError,
                     StepSizeError)
from .pulses import (PulseSegment, PulseSequence, QUBIT_CHANNEL,
                     STORAGE_CHANNEL, READOUT_CHANNEL)
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
class CollapseChannel:
    """One Lindblad dissipator D[sqrt(rate) * op]."""

    op: np.ndarray
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

    op: np.ndarray
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


def class_component(op, labels, dnt, dns, dnr):
    """Part of op whose elements change the label quantum numbers by (dnt,dns,dnr)."""
    keep = np.ones(op.shape, dtype=bool)
    for lab, shift in zip(labels, (dnt, dns, dnr)):
        keep &= lab[:, None] - lab[None, :] == shift
    return np.where(keep, op, 0.0)


def _class_keys(op, labels, tol=1e-12):
    """The label shifts (dnt,dns,dnr) of op's elements above tol, sorted."""
    nt, ns, nr = labels
    rows, cols = np.nonzero(np.abs(op) > tol)
    return sorted(set(zip(nt[rows] - nt[cols], ns[rows] - ns[cols],
                          nr[rows] - nr[cols])))


def _split_classes(op, labels, tol=1e-12):
    """All frequency classes present in op: {(dnt,dns,dnr): component}."""
    return {key: class_component(op, labels, *key)
            for key in _class_keys(op, labels, tol)}


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


@dataclass
class LindbladModel:
    """Drift, drive terms and collapse channels in a concrete frame/basis."""

    dims: SubsystemDims
    params: DeviceParams
    frame: str
    drift: np.ndarray                 # static rotating-frame Hamiltonian
    terms: list                       # HamiltonianTerm entries
    channels: list                    # CollapseChannel entries
    rot: tuple                        # per-subsystem rotation freqs (rad/us)
    dressing: np.ndarray              # U, columns = model basis in the bare basis
    labels: tuple = None
    # per drive channel its lowering operator, and the |g,n> -> |e,n+1>
    # ladder of the two-photon sideband, in the model basis
    drive_ops: dict = None
    two_photon: np.ndarray = None

    def __post_init__(self):
        if self.labels is None:
            self.labels = self.dims.labels()
        if not qsys.is_hermitian(self.drift, 1e-9):
            raise DimensionError("drift Hamiltonian is not Hermitian")

    # -- basis helpers ----------------------------------------------------
    def basis_state(self, nt=0, ns=0, nr=0):
        return qsys.basis_state(self.dims, nt, ns, nr)

    def label_projector(self, nt=None, ns=None, nr=None):
        """Projector onto model basis states matching the given labels."""
        lt, ls, lr = self.labels
        mask = np.ones(self.dims.total, dtype=bool)
        if nt is not None:
            mask &= lt == nt
        if ns is not None:
            mask &= ls == ns
        if nr is not None:
            mask &= lr == nr
        return np.diag(mask.astype(complex))

    # -- frame bookkeeping -------------------------------------------------
    def to_lab_frame(self, state, t):
        """Map a rotating-frame model-basis state to the lab bare basis."""
        gvec = sum(w * lab for w, lab in zip(self.rot, self.labels))
        ph = np.exp(1j * gvec * t)
        rho = (ph.conj()[:, None] * state.rho) * ph[None, :]
        rho = self.dressing @ rho @ self.dressing.conj().T
        return QuantumState(rho, self.dims)

    def with_sequence(self, seq):
        """This model, which carries no sequence, driven by seq: its terms
        plus those of seq's segments (see the module docstring).  Builds no
        basis, so the models of many sequences share one frame."""
        a = self.params.angular()
        cutoff = math.inf if self.frame == "lab" else RWA_CUTOFF
        rot_arr = np.array(self.rot)
        terms = list(self.terms)
        for seg in seq.segments:
            if seg.amplitude == 0.0:
                continue
            lowering = self.drive_ops[seg.target]
            for key, comp in _split_classes(lowering, self.labels).items():
                nu = float(np.dot(key, rot_arr))
                for s in (+1.0, -1.0):
                    carrier = nu + s * seg.carrier
                    if abs(carrier) <= cutoff:
                        terms.append(HamiltonianTerm(
                            op=comp, carrier=carrier, phase=s * seg.phase,
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
        return replace(self, terms=terms)

    # -- integrator support --------------------------------------------------
    def active_terms(self, t0, t1):
        """Terms whose segment overlaps (t0, t1); a coupling is always on."""
        return [term for term in self.terms if term.segment is None
                or (term.segment.end > t0 and term.segment.start < t1)]

    def max_step(self, t0=-math.inf, t1=math.inf):
        """Largest dt satisfying dt <= 1/(20 f_max) for the retained carriers."""
        w = max((abs(t.carrier) for t in self.active_terms(t0, t1)), default=0.0)
        if w < CARRIER_ZERO_TOL:
            return math.inf
        return TWO_PI / (20.0 * w)

    def carrier_frame(self, t0, t1):
        """K = kappa . labels, the diagonal of a frame in which the
        generator of the window (t0, t1) is constant, or None.

        Under rho~ = exp(iK(t - t0)) rho exp(-iK(t - t0)) a term of class k
        and carrier w becomes c(t0) exp(i(w + kappa . k)(t - t0)) while its
        envelope is constant, and a static class k becomes
        exp(i kappa . k (t - t0)).  So each active term must be on its
        plateau and kappa . k = -w must hold for its class, and
        kappa . k = 0 for the drift's classes and the differences of each
        collapse operator's classes.  None when no kappa solves these to
        rounding, as for the lab frame's dense drift and +/- carriers.
        """
        keys, rhs = [], []
        for term in self.active_terms(t0, t1):
            seg = term.segment
            if seg is not None and not (seg.start + seg.ramp <= t0
                                        and t1 <= seg.end - seg.ramp):
                return None
            for key in _class_keys(term.op, self.labels, tol=0.0):
                keys.append(key)
                rhs.append(-term.carrier)
        static = {(0, 0, 0), *_class_keys(self.drift, self.labels, tol=0.0)}
        for channel in self.channels:
            own = _class_keys(channel.op, self.labels, tol=0.0)
            static.update(tuple(np.subtract(k, m)) for k in own for m in own)
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


def build_model(p: DeviceParams, dims: SubsystemDims, seq=None, frame="dispersive",
                *, noiseless=False, storage_t_phi=None):
    """Construct the rotating-frame Lindblad model for a pulse sequence.

    The frame, the model with no sequence, holds everything that does not
    depend on the sequence; LindbladModel.with_sequence adds the drive terms.
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
        couplings = {}
    else:
        U = np.eye(dims.total, dtype=complex)
        if frame == "bare":
            rot = (a.w_q, a.w_s, a.w_ro)
            lt, ls, lr = labels
            diag = (0.5 * a.alpha * lt * (lt - 1)).astype(complex)
            drift = np.diag(diag)
            couplings = {
                "storage": class_component(a.g * (b.conj().T @ a_s), labels, 1, -1, 0),
                "readout": class_component(a.g * (b.conj().T @ a_r), labels, 1, 0, -1),
            }
        else:  # lab
            rot = (0.0, 0.0, 0.0)
            drift = h0.astype(complex)
            couplings = {}

    terms = []
    for name, comp in couplings.items():
        nu = rot[0] * 1 + rot[1] * (-1 if name == "storage" else 0) \
            + rot[2] * (-1 if name == "readout" else 0)
        terms.append(HamiltonianTerm(op=comp, carrier=nu, phase=0.0,
                                     kind="coupling", strength=1.0))

    def to_model(op):
        return U.conj().T @ op @ U

    channel_ops = {QUBIT_CHANNEL: b, STORAGE_CHANNEL: a_s, READOUT_CHANNEL: a_r}
    drive_ops = {target: to_model(op) for target, op in channel_ops.items()}
    sigma_plus = np.zeros((dims.n_transmon,) * 2, dtype=complex)
    sigma_plus[1, 0] = 1.0
    two_photon_bare = (qsys.tensor_embed(sigma_plus, qsys.TRANSMON, dims)
                       @ qsys.tensor_embed(qsys.creation(dims.n_storage),
                                           qsys.STORAGE, dims))
    two_photon = class_component(to_model(two_photon_bare), labels, 1, 1, 0)

    channels = []
    if not noiseless:
        t_phi_q = pure_dephasing_time(a.t1_q, a.t2_q)
        n_t = to_model(qsys.tensor_embed(
            qsys.number_op(dims.n_transmon), qsys.TRANSMON, dims))
        channels.append(CollapseChannel(
            class_component(to_model(a_s), labels, 0, -1, 0), a.k_s, "storage-decay"))
        channels.append(CollapseChannel(
            class_component(to_model(a_r), labels, 0, 0, -1), a.k_ro, "readout-decay"))
        channels.append(CollapseChannel(
            class_component(to_model(b), labels, -1, 0, 0), 1.0 / a.t1_q,
            "qubit-decay"))
        if math.isfinite(t_phi_q):
            # rate 2/T_phi on the number operator gives neighbouring-level
            # coherences the dephasing rate 1/T_phi
            channels.append(CollapseChannel(
                class_component(n_t, labels, 0, 0, 0), 2.0 / t_phi_q,
                "qubit-dephasing"))
        if a.p_e > 0:
            channels.append(CollapseChannel(
                class_component(to_model(b.conj().T), labels, 1, 0, 0),
                a.p_e / a.t1_q, "qubit-thermal"))
        if storage_t_phi is not None and math.isfinite(storage_t_phi):
            n_s = to_model(qsys.tensor_embed(
                qsys.number_op(dims.n_storage), qsys.STORAGE, dims))
            channels.append(CollapseChannel(
                class_component(n_s, labels, 0, 0, 0), 2.0 / storage_t_phi,
                "storage-dephasing"))

    model = LindbladModel(dims=dims, params=p, frame=frame, drift=drift,
                          terms=terms, channels=channels, rot=rot, dressing=U,
                          labels=labels, drive_ops=drive_ops,
                          two_photon=two_photon)
    return model if seq is None else model.with_sequence(seq)


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

def _monomial(op):
    """(columns, weights) of op, which has at most one nonzero per row: row i
    holds weights[i] at column columns[i]; an empty row points at i."""
    rows, nonzero = np.arange(len(op)), op != 0
    cols = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows)
    return cols, op[rows, cols]


def _gather_row(left, right, scale):
    """(P, W) with scale * vec(left @ rho @ right) = W * x[P] on row-major
    x = vec(rho) of a d x m rho (m = 1 for a ket), for monomial left and
    right: entry (i, j) of the product is
    left[i, p(i)] rho[p(i), q(j)] right[q(j), j].  An entry of zero weight
    gathers its own element."""
    m = right.shape[0]
    p, w_left = _monomial(left)
    q, w_right = _monomial(right.T)
    weight = (scale * w_left[:, None] * w_right[None, :]).ravel()
    gather = np.where(weight != 0, (p[:, None] * m + q[None, :]).ravel(),
                      np.arange(weight.size))
    return gather, weight


class LiouvilleTable:
    """The generator of a model with the given terms on, on row-major
    x = vec(rho): L(t) x = lam * x + sum_r s_r(t) * W_r * x[P_r].

    Every operator is split into its label-shift classes (`_split_classes`).
    Labels are unique, so a class has at most one nonzero per row and per
    column, and each product left @ rho @ right of classes is one gather
    row.  The static rows (s = 1) are -i A rho and i rho A^dag for each
    class of A = H0 - (i/2) sum_k c_k^dag c_k, and the sandwiches
    c rho c^dag; those that gather the identity, such as the diagonal of A
    and the qubit dephasing, fold into lam.  Each class of the op of
    terms[k] adds -i op rho and i rho op, scaled by c_k(t), and -i op^dag
    rho and i rho op^dag, scaled by conj(c_k(t)).

    With ket=True it is -i H(t) on a ket psi, for a model without collapse
    channels: only the rows -i op psi remain.
    """

    def __init__(self, model, terms=(), ket=False):
        d = model.dims.total
        eye = np.eye(d)

        def classes(op):
            return _split_classes(op, model.labels, tol=0.0).values()

        ops = [math.sqrt(c.rate) * c.op for c in model.channels]
        a0 = model.drift - 0.5j * sum((c.conj().T @ c for c in ops),
                                      np.zeros((d, d)))
        # (column, scale, left, right): column -1 marks a static row, k one
        # scaled by c_k(t) and len(terms) + k one scaled by conj(c_k(t))
        rows = [(-1, s, left, right) for a in classes(a0) for s, left, right
                in ((-1j, a, eye), (1j, eye, a.conj().T))]
        rows += [(-1, 1.0, k, m.conj().T) for c in ops
                 for k in classes(c) for m in classes(c)]
        for k, term in enumerate(terms):
            for op in classes(term.op):
                rows += [(k, -1j, op, eye), (k, 1j, eye, op),
                         (len(terms) + k, -1j, op.conj().T, eye),
                         (len(terms) + k, 1j, eye, op.conj().T)]
        if ket:
            # the products left @ psi: the rows with the identity on the right
            rows = [(column, scale, left, np.eye(1))
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
# fixed-step RK4 master-equation integrator
# ---------------------------------------------------------------------------

def _initial_rho(model, rho0):
    rho = (rho0.rho if isinstance(rho0, QuantumState) else np.asarray(rho0)) \
        .astype(complex).copy()
    d = model.dims.total
    if rho.shape != (d, d):
        raise DimensionError(f"rho0 shape {rho.shape} does not match dim {d}")
    return rho


def _check_step(model, t0, t1, dt):
    dt_bound = model.max_step(t0, t1)
    if dt > dt_bound * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt = {dt:.3g} us cannot resolve the largest retained carrier; "
            f"require dt <= {dt_bound:.3g} us in this window"
        )


def _coefficient(term, t):
    """c(t) of a term at the times t: its amplitude times its carrier phase."""
    coeff = term.amplitude_at(t).astype(complex)
    coeff *= np.exp(1j * (term.carrier * t + term.phase))
    return coeff


def _rk4_step(table, x, h, c):
    """One classic RK4 step of dx/dt = table.apply(x, c), in place, with c
    at the step's start, midpoint and end; h may hold one step per column."""
    k1 = table.apply(x, c[0])
    k2 = table.apply(x + 0.5 * h * k1, c[1])
    k3 = table.apply(x + 0.5 * h * k2, c[1])
    k4 = table.apply(x + h * k3, c[2])
    x += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def evolve(model: LindbladModel, rho0, t_span, dt, steps=1):
    """Integrate d rho/dt = -i[H(t), rho] + sum_k D[c_k] rho with classic RK4.

    The right-hand side is the LiouvilleTable of the model with the terms
    active in the window on, restricted to the elements it can reach from
    the nonzero elements of rho0 (LiouvilleTable.restricted); the others
    stay exactly zero, as under the exact flow.  Returns the states at the
    steps + 1 equally spaced times of t_span, the initial state first, as
    StaticPropagator.propagate does.  dt is adjusted so that a whole number
    of fixed steps spans each sub-interval.  The trace is checked every
    max(1, n // 200) of the n steps and at every returned state; a drift
    beyond 1e-6 raises IntegrationError suggesting a smaller step.
    """
    t0, t1 = t_span
    if t1 < t0:
        raise ParameterError("t_span must be increasing")
    _check_step(model, t0, t1, dt)

    d = model.dims.total
    x = _initial_rho(model, rho0).reshape(-1)

    per_sample = max(1, int(round((t1 - t0) / steps / dt)))
    n_steps = steps * per_sample
    h = (t1 - t0) / n_steps
    check_every = max(1, n_steps // 200)

    # stage times: grid points and midpoints
    stage_t = t0 + 0.5 * h * np.arange(2 * n_steps + 1)

    terms, coeffs = [], []
    for term in model.active_terms(t0, t1):
        coeff = _coefficient(term, stage_t)
        if np.max(np.abs(coeff)) == 0.0:
            continue
        terms.append(term)
        coeffs.append(coeff)
    idx, table, y = LiouvilleTable(model, terms).restricted(x)
    on_diagonal = np.flatnonzero(idx % (d + 1) == 0)
    coeff = np.stack(coeffs, axis=1) if coeffs else np.empty((len(stage_t), 0))

    states = [QuantumState(x.reshape(d, d).copy(), model.dims)]
    for k in range(n_steps):
        _rk4_step(table, y, h, coeff[2 * k:2 * k + 3])
        keep = (k + 1) % per_sample == 0
        if keep or (k + 1) % check_every == 0:
            trace = np.sum(y[on_diagonal])
            drift = abs(trace.real - 1.0) + abs(trace.imag)
            if drift > TRACE_DRIFT_TOL:
                t = t0 + (k + 1) * h
                raise IntegrationError(
                    f"trace drifted by {drift:.3g} at t = {t:.6g} us; "
                    f"retry with dt <= {h / 2:.3g} us"
                )
            if keep:
                x[idx] = y
                states.append(QuantumState(x.reshape(d, d).copy(), model.dims))
    return states


def _ket_batches(models, spans):
    """The columns of models whose active terms in their spans have the same
    operators, as lists: they share one ket table.  A model with collapse
    channels raises ParameterError."""
    if any(model.channels for model in models):
        raise ParameterError(
            "kets propagate only under a model without collapse channels")
    batches = {}
    for i, (model, (t0, t1)) in enumerate(zip(models, spans)):
        ops = (term.op.tobytes() for term in model.active_terms(t0, t1))
        batches.setdefault((model.drift.tobytes(), *ops), []).append(i)
    return batches.values()


def evolve_kets(models, spans, psi0, dt):
    """Propagate kets under each noiseless model across its span, by
    evolve's RK4 step under the ket table -i H(t); returns the final kets as
    the columns of a (d, B) array.  psi0 is one ket, (d,), entering every
    span, or one per column, (d, B).

    The columns step together, each on the grid evolve would give it,
    n = round(span / dt) steps of span / n, and with h = 0 once those are
    done, on the amplitudes the ket table can reach from the entering kets'
    nonzero ones (LiouvilleTable.restricted); the others stay exactly zero.
    Models whose active terms have different operators step as separate
    batches.  The norms are checked at evolve's cadence, and a drift beyond
    1e-6 raises IntegrationError.  A model with collapse channels raises
    ParameterError, a dt above its max_step StepSizeError.
    """
    batches = _ket_batches(models, spans)
    for model, (t0, t1) in zip(models, spans):
        _check_step(model, t0, t1, dt)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim == 1:
        psi0 = np.repeat(psi0[:, None], len(models), axis=1)

    out = np.zeros(psi0.shape, dtype=complex)
    for cols in batches:
        t0, t1 = np.array([spans[i] for i in cols], dtype=float).T
        n = np.maximum(1, np.round((t1 - t0) / dt).astype(int))
        h = (t1 - t0) / n
        terms = [models[i].active_terms(a, b) for i, a, b in zip(cols, t0, t1)]
        coeff = np.zeros((2 * n.max() + 1, len(terms[0]), len(cols)),
                         dtype=complex)
        for j, column in enumerate(terms):
            stage_t = t0[j] + 0.5 * h[j] * np.arange(2 * n[j] + 1)
            for k, term in enumerate(column):
                coeff[:len(stage_t), k, j] = _coefficient(term, stage_t)
        idx, table, x = LiouvilleTable(models[cols[0]], terms[0],
                                       ket=True).restricted(psi0[:, cols])

        step = np.arange(1, n.max() + 1)[:, None]
        hs = np.where(step <= n, h, 0.0)
        due = (step <= n) & ((step % np.maximum(1, n // 200) == 0) | (step == n))
        for k in range(len(step)):
            _rk4_step(table, x, hs[k], coeff[2 * k:2 * k + 3])
            if due[k].any():
                drift = np.abs(np.sum(np.abs(x[:, due[k]]) ** 2, axis=0) - 1.0)
                if drift.max() > TRACE_DRIFT_TOL:
                    j = np.flatnonzero(due[k])[np.argmax(drift)]
                    raise IntegrationError(
                        f"norm drifted by {drift.max():.3g} at "
                        f"t = {t0[j] + (k + 1) * h[j]:.6g} us; "
                        f"retry with dt <= {h[j] / 2:.3g} us")
        out[np.ix_(idx, cols)] = x
    return out


# ---------------------------------------------------------------------------
# exact propagation of static windows and drive plateaus
# ---------------------------------------------------------------------------

# Taylor order of exp(Y) for ||Y||_1 < 1/2: the remainder is below
# 2 * 0.5**17 / 17! < 1e-19, under the float64 rounding of the sum
TAYLOR_ORDER = 16


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


def _block_generators(table, lam, scale):
    """(idx, gen) per block size of the table (_static_blocks): gen[b, k]
    is the generator of block idx[k] in column b of B, with lam (n, B) on
    its diagonal and the weights of row r times scale[r, b]; every row is
    taken as static."""
    out = []
    for idx in _static_blocks(table):
        m, n = idx.shape
        position = np.empty(len(table.lam), dtype=np.intp)
        position[idx] = np.arange(n)
        block, row = np.arange(m)[:, None], np.arange(n)[None, :]
        gen = np.zeros((lam.shape[1], m, n, n), dtype=complex)
        gen[:, block, row, row] = np.moveaxis(lam[idx], -1, 0)
        for gather, weight, s in zip(table.gather, table.weight, scale):
            gen[:, block, row, position[gather[idx]]] += \
                weight[idx] * s[:, None, None]
        out.append((idx, gen))
    return out


def _block_expm(gen):
    """exp of each matrix in the stack gen (m, n, n).

    Taylor series after scaling each matrix by 2**-s to a 1-norm below 1/2,
    then s squarings (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Every
    matrix gets its own s: a squaring doubles the rounding error of the
    trace, so the slow population block is not squared as often as the
    fast coherences beside it.
    """
    _, s = np.frexp(np.abs(gen).sum(axis=1).max(axis=1))
    s = np.maximum(s + 1, 0)
    y = gen * np.ldexp(1.0, -s)[:, None, None]
    out = np.eye(gen.shape[-1]) + y
    term = y
    for k in range(2, TAYLOR_ORDER + 1):
        term = (term @ y) / k
        out += term
    for k in range(int(s.max())):
        sel = s > k
        out[sel] = out[sel] @ out[sel]
    return out


def _trace_drift(rho):
    trace = np.trace(rho)
    return abs(trace.real - 1.0) + abs(trace.imag)


class StaticPropagator:
    """Exact propagation of a model across windows with no active term.

    With no drive term active, the Liouvillian L is constant and
    rho(t0 + t) = exp(L t) rho(t0) holds exactly; L is the model's
    LiouvilleTable with no term on.  It splits into decoupled blocks
    (`_static_blocks`), so the code holds in any frame.  In the dispersive
    frame the drift and every c^dag c are diagonal and each collapse
    operator shifts the labels by one fixed class, so the blocks are the
    label differences of (i, j): 135 blocks at the default dims (3, 5, 2),
    the largest (the populations) of 30 elements.  Each block's generator
    is read off the table's rows, and same-size blocks are exponentiated
    as one batch.
    """

    def __init__(self, model: LindbladModel):
        self.model = model
        table = LiouvilleTable(model)
        ones = np.ones((len(table.weight), 1))
        # (index (m, n), generator (m, n, n)) per block size
        self.blocks = [(idx, gen[0]) for idx, gen in
                       _block_generators(table, table.lam[:, None], ones)]

    def propagate(self, rho0, t_span, steps=1):
        """States at the steps + 1 equally spaced times of t_span, the
        initial state first; one propagator serves every sub-interval.

        Raises ParameterError if a drive term is active in the window and
        IntegrationError if the trace drifts beyond 1e-6.
        """
        t0, t1 = t_span
        if t1 < t0:
            raise ParameterError("t_span must be increasing")
        if self.model.active_terms(t0, t1):
            raise ParameterError(
                f"drive terms are active in [{t0:.6g}, {t1:.6g}] us; "
                "only a static window propagates exactly")
        dims = self.model.dims
        vec = _initial_rho(self.model, rho0).reshape(-1)
        step = [(idx, _block_expm(gen * ((t1 - t0) / steps)))
                for idx, gen in self.blocks]
        states = [QuantumState(vec.reshape(dims.total, dims.total), dims)]
        for _ in range(steps):
            new = np.empty_like(vec)
            for idx, prop in step:
                new[idx] = (prop @ vec[idx][:, :, None])[:, :, 0]
            vec = new
            states.append(QuantumState(vec.reshape(dims.total, dims.total), dims))
        drift = _trace_drift(states[-1].rho)
        if drift > TRACE_DRIFT_TOL:
            raise IntegrationError(
                f"trace drifted by {drift:.3g} over [{t0:.6g}, {t1:.6g}] us; "
                "the static generator does not conserve the trace")
        return states


def _plateau(table, x, c, shift, tau):
    """exp(-shift tau) exp(tau (L + shift)) x, column by column: the columns
    of x (n, B) across tau (B,) under the table's generator L with the
    constant coefficients c (K, B), in the frame that adds shift (n, B) to
    lam, then rotated back.  Only x's reached support is propagated
    (LiouvilleTable.restricted), block by block (_block_generators), with
    one _block_expm per block size for all columns."""
    idx, sub, y = table.restricted(x)
    lam = sub.lam[:, None] + shift[idx]
    scale = np.ones((len(sub.weight), x.shape[1]), dtype=complex)
    scale[len(scale) - len(sub.column):] = np.concatenate((c, c.conj()))[sub.column]
    out = np.zeros_like(x)
    for blocks, gen in _block_generators(sub, lam, scale):
        n_col, m, n, _ = gen.shape
        prop = _block_expm((gen * tau[:, None, None, None]).reshape(-1, n, n))
        y_blocks = np.moveaxis(y[blocks], -1, 0)[..., None]      # (B, m, n, 1)
        new = prop.reshape(n_col, m, n, n) @ y_blocks
        out[idx[blocks]] = np.moveaxis(new[..., 0], 0, -1)
    out[idx] *= np.exp(-shift[idx] * tau)
    return out


def _plateau_coefficients(terms, t0):
    return np.array([_coefficient(term, np.array([t0]))[0] for term in terms],
                    dtype=complex)


def propagate_plateau(model: LindbladModel, rho0, t_span, frame):
    """The state at the end of t_span, a window whose generator is constant
    in the frame K = frame, from model.carrier_frame(*t_span): exactly.

    The coefficients of the active terms are fixed at their values at t0,
    i(K_i - K_j) is added to lam, and the window's LiouvilleTable, on the
    elements rho0 reaches, is exponentiated on its decoupled blocks and
    rotated back at t1.  Raises IntegrationError if the trace drifts beyond
    1e-6.
    """
    t0, t1 = t_span
    terms = model.active_terms(t0, t1)
    d = model.dims.total
    x = _initial_rho(model, rho0).reshape(-1, 1)
    c = _plateau_coefficients(terms, t0)[:, None]
    shift = 1j * (frame[:, None] - frame[None, :]).reshape(-1, 1)
    x = _plateau(LiouvilleTable(model, terms), x, c, shift,
                 np.array([t1 - t0]))
    state = QuantumState(x.reshape(d, d), model.dims)
    drift = _trace_drift(state.rho)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:.3g} over the plateau [{t0:.6g}, "
            f"{t1:.6g}] us")
    return state


def propagate_plateau_kets(models, spans, psi, frames):
    """The kets psi (d, B), column j propagated exactly under models[j]
    across spans[j], a plateau in the frame frames[j] (from carrier_frame),
    as propagate_plateau does with iK added to the ket table's lam.
    Columns whose active terms have the same operators share one table and
    one _block_expm per block size.  A model with collapse channels raises
    ParameterError, a norm drift beyond 1e-6 IntegrationError."""
    psi = np.asarray(psi, dtype=complex)
    out = np.empty_like(psi)
    for cols in _ket_batches(models, spans):
        t0, t1 = np.array([spans[i] for i in cols], dtype=float).T
        terms = [models[i].active_terms(*spans[i]) for i in cols]
        c = np.array([_plateau_coefficients(column, t)
                      for column, t in zip(terms, t0)]).reshape(len(cols), -1).T
        shift = 1j * np.array([frames[i] for i in cols]).T
        table = LiouvilleTable(models[cols[0]], terms[0], ket=True)
        out[:, cols] = _plateau(table, psi[:, cols], c, shift, t1 - t0)
        drift = np.abs(np.sum(np.abs(out[:, cols]) ** 2, axis=0) - 1.0)
        if drift.max() > TRACE_DRIFT_TOL:
            j = np.argmax(drift)
            raise IntegrationError(
                f"norm drifted by {drift[j]:.3g} over the plateau "
                f"[{t0[j]:.6g}, {t1[j]:.6g}] us")
    return out


# ---------------------------------------------------------------------------
# Eq.-(effective sideband) cross-check against the full integration
# ---------------------------------------------------------------------------

@dataclass
class BsbComparison:
    measured_rate: float       # rad/us
    predicted_rate: float      # rad/us
    ratio: float
    carrier: float
    contrast: float


def effective_bsb_check(p: DeviceParams, omega_drv, *, dims=None,
                        frame="dispersive"):
    """Drive a constant sideband tone and compare the extracted |g0> <-> |e1>
    oscillation rate with the closed-form effective coupling.

    The tone is placed at the model's own two-photon pair resonance, so the
    comparison isolates the rate rather than a detuning.  The noiseless tone
    lasts 2.5 swap periods, sampled 36 times per period.  Returns a
    BsbComparison with the measured/predicted ratio.
    """
    from .analysis import fit_decaying_cosine
    from .device import bsb_effective_rate

    dims = dims or SubsystemDims()
    a = p.angular()
    if a.g > 0.2 * min(abs(a.w_q - a.w_s), abs(a.w_q - a.w_ro)):
        raise ParameterError("effective_bsb_check requires the dispersive regime")
    carrier = two_photon_resonance(p, dims)
    predicted = bsb_effective_rate(p, omega_drv, carrier=carrier)

    period = math.pi / predicted
    rise = 1e-3
    seg = PulseSegment(QUBIT_CHANNEL, omega_drv, carrier, plateau=2.5 * period,
                       rise=rise, start=0.0, label="bsb-tone")
    model = build_model(p, dims, PulseSequence((seg,)), frame=frame,
                        noiseless=True)
    # only slow carriers remain on a resonant sideband tone; a coarse fixed
    # step resolves the MHz-scale dynamics comfortably
    dt = min(5e-4, model.max_step(0.0, seg.end), period / 400.0)
    samples = 90                        # 36 per swap period
    states = evolve(model, model.basis_state(0, 0, 0), (0.0, seg.end), dt,
                    steps=samples)
    proj = model.label_projector(0, 0, 0)
    pop = np.array([qsys.expectation(s, proj).real for s in states])
    fit = fit_decaying_cosine(np.linspace(0.0, seg.end, samples + 1), pop)
    contrast = 2.0 * abs(fit.params["A"])
    if contrast < 0.2:
        raise IntegrationError(
            f"no discernible sideband oscillation (contrast {contrast:.3f} < 0.2)"
        )
    measured = math.pi * abs(fit.params["f"])
    return BsbComparison(measured_rate=measured, predicted_rate=predicted,
                         ratio=measured / predicted, carrier=carrier,
                         contrast=contrast)
