import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from qmemsim import analysis, lindblad, protocol, qsys
from qmemsim.device import (QUBIT_CHANNEL, DeviceParams,
                            dispersive_shift_estimate)
from qmemsim.errors import DimensionError, IntegrationError, ParameterError
from qmemsim.lindblad import LiouvilleTable, build_model, evolve, propagate
from qmemsim.protocol import ProtocolOptions
from qmemsim.pulses import (PulseSegment, PulseSequence,
                            build_memory_sequence)
from qmemsim.qsys import SubsystemDims
from qmemsim.units import GHZ, MHZ, TWO_PI


def decoupled_params(**kw):
    return DeviceParams(g=1e-12, p_e=0.0, **kw)


# small, slow instance on which lab-frame evolution is integrable
SLOW_PARAMS = DeviceParams(omega_ro=0.021, omega_s=0.034, omega_q=0.027,
                           alpha=-3.0, g=0.4, chi_ro=0.1, chi_s=0.1,
                           kappa_ro=0.05, kappa_s=0.02, t1_q=40.0, t2_q=60.0,
                           p_e=0.0)


def real_expectations(states, op):
    """Real expectation of a Hermitian op in each state."""
    return np.array([np.trace(s.rho @ op).real for s in states])


def dense(classes, d):
    """The d x d operator that is the sum of the ShiftClasses classes."""
    op = np.zeros((d, d), dtype=complex)
    for c in classes:
        op[np.arange(d), c.col] += c.weight
    return op


def random_density_matrix(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_build_model_channel_set():
    p = DeviceParams()
    m = build_model(p, SubsystemDims())
    names = {c.name: c.rate for c in m.channels}
    a = p.angular()
    assert names["storage-decay"] == pytest.approx(a.k_s)
    assert names["readout-decay"] == pytest.approx(a.k_ro)
    assert names["qubit-decay"] == pytest.approx(1.0 / a.t1_q)
    assert names["qubit-thermal"] == pytest.approx(a.p_e / a.t1_q)
    assert "qubit-dephasing" in names
    for frame in lindblad.FRAMES:
        h = dense(build_model(p, SubsystemDims(), frame).drift, 30)
        assert np.max(np.abs(h - h.conj().T)) < 1e-9


def test_build_model_leaves_out_channels_of_rate_zero():
    dims = SubsystemDims(2, 2, 1)

    def channels(p=DeviceParams(), **kw):
        return {c.name: c.rate for c in build_model(p, dims, **kw).channels}

    every = ["storage-decay", "readout-decay", "qubit-decay",
             "qubit-dephasing", "qubit-thermal"]
    assert list(channels()) == every
    assert list(channels(DeviceParams(p_e=0.0))) == [
        name for name in every if name != "qubit-thermal"]
    t1_q = DeviceParams().t1_q
    assert list(channels(DeviceParams(t2_q=2.0 * t1_q))) == [
        name for name in every if name != "qubit-dephasing"]
    assert build_model(DeviceParams(), dims, noiseless=True).channels == ()


def test_built_model_is_frozen():
    p = DeviceParams()
    base = build_model(p, SubsystemDims(2, 2, 1))
    seg = PulseSegment(QUBIT_CHANNEL, 10.0, p.angular().w_q, plateau=0.01)
    for model in (base, base.with_sequence(PulseSequence((seg,)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.channels = ()


def test_models_of_one_frame_share_its_drive_classes():
    # the frame splits each drive channel into its classes once, and every
    # model driven from it takes its term operators from that split
    p = DeviceParams()
    base = build_model(p, SubsystemDims(2, 2, 1))
    driven = [base.with_sequence(PulseSequence((PulseSegment(
        QUBIT_CHANNEL, amp, p.angular().w_q, plateau=0.01, start=start),)))
        for amp, start in ((10.0, 0.0), (20.0, 0.5))]
    first, second = ([t.op for t in m.terms if t.power == 1]
                     for m in driven)
    classes = list(base.drive_ops[QUBIT_CHANNEL])
    assert first and len(first) == len(second)
    for a, b in zip(first, second):
        assert a is b
        assert any(a is c for c in classes)


@pytest.mark.parametrize("frame", lindblad.FRAMES)
def test_frame_holds_each_class_as_columns_and_weights(frame):
    # a class has at most one nonzero per row, so a frame holds it as its
    # key, columns and weights, O(d) numbers, not as a d x d array
    m = build_model(DeviceParams(), SubsystemDims(), frame)
    drive = [c for classes in m.drive_ops.values() for c in classes]
    assert sum(c.col.nbytes + c.weight.nbytes for c in drive) < 64 * 1024
    for c in drive + [m.two_photon, *(ch.op for ch in m.channels),
                      *(t.op for t in m.terms)]:
        live = c.col[c.weight != 0]
        assert len(np.unique(live)) == len(live)
        twice = c.adjoint().adjoint()
        assert twice.key == c.key
        assert np.array_equal(twice.col, c.col)
        assert np.array_equal(twice.weight, c.weight)


def dense_class(op, labels, key):
    """(key, col, weight) of op's class of key by masking the whole d x d
    operator, the reference for lindblad's one pass over the nonzeros."""
    keep = op != 0
    for lab, shift in zip(labels, key):
        keep &= lab[:, None] - lab[None, :] == shift
    rows, live = np.arange(len(op)), keep.any(axis=1)
    col = np.where(live, keep.argmax(axis=1), rows)
    return key, col, np.where(live, op[rows, col], 0.0)


def test_split_matches_the_dense_per_key_mask():
    # every class of the default frame's three drive operators, and each
    # collapse-style class of one key, comes out bit for bit as the dense
    # per-key mask gives it
    p, dims = DeviceParams(), SubsystemDims()
    labels = dims.labels()
    b, a_s, a_r, h0 = lindblad._bare_operators(dims, p.angular())
    u = lindblad._dress(h0, dims)[0]
    for op in (b, a_s, a_r):
        dressed = u.conj().T @ op @ u
        nt, ns, nr = labels
        rows, cols = np.nonzero(np.abs(dressed) > 1e-12)
        keys = sorted(set(zip(nt[rows] - nt[cols], ns[rows] - ns[cols],
                              nr[rows] - nr[cols])))
        want = [dense_class(dressed, labels, key) for key in keys]
        got = lindblad._split(dressed, labels, 1e-12)
        got += tuple(lindblad._shift_class(dressed, labels, key)
                     for key in ((0, -1, 0), (2, 2, 1)))
        want += [dense_class(dressed, labels, key)
                 for key in ((0, -1, 0), (2, 2, 1))]
        assert len(got) == len(want) > 2
        for c, (key, col, weight) in zip(got, want):
            assert c.key == key
            assert c.col.dtype == col.dtype and np.array_equal(c.col, col)
            assert c.weight.dtype == weight.dtype
            assert c.weight.tobytes() == weight.tobytes()


def test_carrier_frame_never_splits_the_drift(monkeypatch):
    # the drift is fixed per frame: build_model splits it into its classes
    # once, by key, and every model driven from the frame carries them
    p = DeviceParams()
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                       plateau=0.05)
    for frame in lindblad.FRAMES:
        base = build_model(p, SubsystemDims(2, 2, 1), frame)
        keys = [c.key for c in base.drift]
        assert keys == sorted(set(keys))
        model = base.with_sequence(PulseSequence((seg,)))
        assert model.drift is base.drift
        calls = []
        split = lindblad._split
        monkeypatch.setattr(lindblad, "_split",
                            lambda *a: calls.append(a) or split(*a))
        plateau = model.carrier_frame(seg.start + seg.ramp,
                                      seg.end - seg.ramp)
        idle = model.carrier_frame(seg.end, seg.end + 1.0)
        monkeypatch.undo()
        assert calls == []
        assert (plateau is None) == (frame == "lab")
        # only the bare frame keeps always-active terms, its couplings
        assert (np.count_nonzero(idle) == 0) == (frame != "bare")


def test_a_replaced_drift_sets_the_carrier_frame():
    # carrier_frame reads the keys off the drift's classes: a bare-frame
    # idle window solves kappa . k = -carrier for the two couplings alone,
    # and a drift with storage classes (0, +/-1, 0) adds kappa_s = 0
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    base = build_model(p, dims, "bare")
    assert base.drift == ()
    g, s = dims.index(0, 0, 0), dims.index(0, 1, 0)
    x = np.zeros((dims.total,) * 2, dtype=complex)
    x[g, s] = x[s, g] = 1.0
    drift = lindblad._split(x, base.labels, 0.0)
    assert [c.key for c in drift] == [(0, -1, 0), (0, 1, 0)]
    for model, storage in ((base, False),
                           (dataclasses.replace(base, drift=drift), True)):
        K = model.carrier_frame(0.0, 1.0)           # 0 at |g,0,0>
        kappa_t, kappa_s = K[dims.index(1, 0, 0)], K[s]
        assert (abs(kappa_s) <= 1e-9 * abs(kappa_t)) == storage
        exchange = next(t for t in model.terms if t.op.key == (1, -1, 0))
        assert kappa_t - kappa_s == pytest.approx(-exchange.carrier,
                                                  rel=1e-12)


def test_drift_generator_preserves_trace():
    p = DeviceParams()
    m = build_model(p, SubsystemDims())
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    final = evolve(m, rho, (0.0, 0.05), 1e-3)[-1]
    assert abs(np.trace(final.rho) - 1.0) < 1e-10


def test_decoupled_excited_state_decays_at_t1():
    p = decoupled_params()
    m = build_model(p, SubsystemDims())
    rho0 = qsys.basis_state(m.dims, 1, 0, 0)
    states = evolve(m, rho0, (0.0, 3.0), 1e-3, steps=30)
    pe = real_expectations(states, m.label_projector(nt=1))
    expected = np.exp(-np.linspace(0.0, 3.0, 31) / p.t1_q)
    assert np.max(np.abs(pe - expected) / expected) < 1e-3


def test_drift_dispersive_shift_consistent_with_estimator():
    # qubit-state-dependent storage splitting of the drift's eigenvalues,
    # (E_e1 - E_e0) - (E_g1 - E_g0), against the 2*chi convention
    p = DeviceParams()
    dims = SubsystemDims()
    e, i = lindblad.dressed_energies(p, dims), dims.index
    shift = (e[i(1, 1, 0)] - e[i(1, 0, 0)]) - (e[i(0, 1, 0)] - e[i(0, 0, 0)])
    a = p.angular()
    est = 2.0 * dispersive_shift_estimate(a.g, a.w_q - a.w_s, a.alpha)
    assert abs(shift - est) / abs(est) < 0.15


def test_thermal_steady_state():
    p = DeviceParams(t2_q=2.0 * 1.32)  # no extra dephasing channel
    m = build_model(p, SubsystemDims(2, 2, 1))
    keep = {"qubit-decay", "qubit-thermal"}
    m = dataclasses.replace(
        m, channels=[c for c in m.channels if c.name in keep])
    rho0 = qsys.basis_state(m.dims, 0, 0, 0)
    final = evolve(m, rho0, (0.0, 12.0), 2e-3, steps=12)[-1]
    p_inf = np.trace(final.rho @ m.label_projector(nt=1)).real
    assert abs(p_inf - p.p_e) / p.p_e < 0.05


def test_analytic_decay_of_fock_state():
    p = decoupled_params()
    m = build_model(p, SubsystemDims())
    m = dataclasses.replace(
        m, channels=[c for c in m.channels if c.name == "storage-decay"])
    k_s = p.angular().k_s
    rho0 = qsys.basis_state(m.dims, 0, 1, 0)
    span = 5.0 / k_s
    states = evolve(m, rho0, (0.0, span), 2e-3, steps=50)
    n = real_expectations(states, np.diag(m.labels[1].astype(complex)))
    assert np.max(np.abs(n - np.exp(-k_s * np.linspace(0.0, span, 51)))) < 1e-4


def test_resonant_rabi_analytic():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)
    amp = TWO_PI * 20.0
    seg = PulseSegment(QUBIT_CHANNEL, amp, p.angular().w_q, plateau=0.12,
                       rise=1e-4, start=0.0)
    m = build_model(p, dims, noiseless=True).with_sequence(PulseSequence((seg,)))
    states = evolve(m, qsys.basis_state(m.dims), (0.0, 0.1), 5e-6, steps=100)
    pe = real_expectations(states, m.label_projector(nt=1))
    times = np.linspace(0.0, 0.1, 101)
    # the short ramp advances the rotation by its pulse area; folding it into
    # the time origin leaves the square-pulse law sin^2(Omega t / 2)
    t0_eff = seg.ramp - 0.5 * (seg.equivalent_width() - seg.plateau)
    mask = times > seg.ramp
    expected = np.sin(0.5 * amp * (times[mask] - t0_eff)) ** 2
    assert np.max(np.abs(pe[mask] - expected)) < 1e-4


def test_ramsey_t2_closed_form():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)
    m = build_model(p, dims)
    i_g, i_e = dims.index(0, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[i_g, i_g] = rho[i_e, i_e] = 0.5
    rho[i_g, i_e] = rho[i_e, i_g] = 0.5
    coh_op = np.zeros((4, 4), dtype=complex)
    coh_op[i_g, i_e] = 1.0
    states = evolve(m, rho, (0.0, 5.0), 2e-3, steps=50)
    coh = np.array([np.trace(s.rho @ coh_op) for s in states])
    fit = analysis.fit_exponential(np.linspace(0.0, 5.0, 51), 2.0 * np.abs(coh))
    t2 = 1.0 / (0.5 / p.t1_q + 1.0 / 43.8197)
    assert fit.params["T"] == pytest.approx(t2, rel=0.02)


def test_steps_above_the_bound_run_at_the_bound():
    # dt is the largest step the caller allows: on a bare-frame ramp, a
    # stepped window, dt = 10 x max_step runs at max_step, the same to the
    # bit, through evolve (RK4) and propagate (DOP853) for vec(rho) and
    # through propagate for kets
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                       plateau=0.005)
    noisy, noiseless = (build_model(p, dims, frame="bare", noiseless=flag)
                        .with_sequence(PulseSequence((seg,)))
                        for flag in (False, True))
    span = (0.0, seg.ramp)
    bound = noisy.max_step(*span)
    assert noisy.carrier_frame(*span) is None and bound < 1e-4
    rho = qsys.basis_state(noisy.dims)
    x = rho.rho.reshape(-1, 1)
    for route in (lambda dt: evolve(noisy, rho, span, dt)[-1].rho.reshape(-1),
                  lambda dt: propagate([noisy], x, span, dt)[:, 0]):
        got = [route(dt) for dt in (10.0 * bound, bound)]
        assert not np.array_equal(got[0], x[:, 0])
        assert np.array_equal(*got)
    psi = np.eye(dims.total)[:, [0]]
    kets = [propagate([noiseless], psi, span, dt)
            for dt in (10.0 * bound, bound)]
    assert not np.array_equal(kets[0], psi)
    assert np.array_equal(*kets)


def test_no_step_exceeds_its_bound(monkeypatch):
    # a window takes ceil(window / dt) steps: one 1.4 bounds long takes two,
    # not one of 1.4 dt (which, at STABLE_STEP's bound, would sit near
    # DOP853's stability radius), and a ratio off an integer by rounding
    # alone takes that integer
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 2.0, p.angular().w_q,
                       plateau=0.005)
    m = build_model(p, dims, noiseless=True).with_sequence(PulseSequence((seg,)))
    span = (0.0, seg.ramp)
    lam = np.abs(LiouvilleTable(m, m.active_terms(*span), ket=True).lam).max()
    assert m.carrier_frame(*span) is None
    assert seg.ramp < m.max_step(*span) and seg.ramp * lam < lindblad.STABLE_STEP
    applies, apply = [], LiouvilleTable.apply

    def count(*args, **kw):
        applies.append(None)
        return apply(*args, **kw)

    monkeypatch.setattr(LiouvilleTable, "apply", count)
    psi = np.eye(dims.total)[:, [0]]
    for dt, steps in ((seg.ramp / 1.4, 2), (seg.ramp / 2.6, 3),
                      (np.nextafter(seg.ramp / 12, 0.0), 12)):
        applies.clear()
        propagate([m], psi, span, dt)
        assert len(applies) == steps * len(lindblad.DOP853[2])


def test_bad_steps_raise_parameter_error():
    # a dt that is not a positive finite number, or steps < 1, is refused
    # before any step: a negative dt would step backwards, and dt = 0 or
    # steps = 0 would divide by zero
    p = decoupled_params()
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                       plateau=0.02, start=0.0)
    m = build_model(p, SubsystemDims(2, 2, 1),
                    noiseless=True).with_sequence(PulseSequence((seg,)))
    rho = qsys.basis_state(m.dims)
    for dt in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            evolve(m, rho, (0.0, seg.end), dt)
        with pytest.raises(ParameterError):
            propagate([m], rho.rho.reshape(-1, 1), (0.0, seg.end), dt)
    with pytest.raises(ParameterError):
        evolve(m, rho, (0.0, seg.end), 1e-4, steps=0)


def test_trace_divergence_detected():
    p = decoupled_params(kappa_ro=1e4)  # kappa dt >> 1 destabilizes RK4
    m = build_model(p, SubsystemDims(2, 2, 2), frame="lab")
    rho0 = qsys.basis_state(m.dims, 0, 0, 1)
    with pytest.raises(IntegrationError):
        evolve(m, rho0, (0.0, 2.0), 1e-3, steps=40)


def test_a_drifting_column_names_its_own_time_and_step():
    # one lab-frame ramp of two columns under one table: the same drive at
    # w_q bounds column 0's step, at 1e-3 rad/us it bounds none, so column 1
    # steps at dt, under the bound of the table's diagonal (STABLE_STEP),
    # which does not cover the drive: with amplitude * dt >> 1 only column
    # 1 diverges
    p, dims = decoupled_params(), SubsystemDims(2, 2, 1)
    frame = build_model(p, dims, "lab")
    models = [frame.with_sequence(PulseSequence((PulseSegment(
        QUBIT_CHANNEL, 2e5, carrier, plateau=0.005, rise=0.01),)))
        for carrier in (p.angular().w_q, 1e-3)]
    span, dt = (0.0, 0.012), 4e-5
    assert models[0].max_step(*span) < dt < models[1].max_step(*span)
    assert dt < lindblad.STABLE_STEP / np.abs(LiouvilleTable(frame).lam).max()
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = 0.5
    x = np.stack([rho.reshape(-1)] * 2, axis=1)
    propagate(models[:1], x[:, :1], span, dt)
    with pytest.raises(IntegrationError) as err:
        propagate(models, x, span, dt)
    # the check of a column does not depend on the columns beside it
    with pytest.raises(IntegrationError) as alone:
        propagate(models[1:], x[:, 1:], span, dt)
    assert str(alone.value) == str(err.value)
    # a whole number of column 1's steps of 4e-5 us and half of one, where
    # column 0 steps by 1.2e-5 us
    match = re.fullmatch(r"trace drifted by \S+ at t = (\S+) us; "
                         r"retry with dt <= (\S+) us", str(err.value))
    steps = float(match[1]) / dt
    assert steps > 1 and abs(steps - round(steps)) < 1e-6
    assert match[2] == f"{dt / 2:.3g}"


def test_an_exact_window_whose_generator_drifts_raises():
    # a drift of -0.5j on every level decays the trace of rho and the
    # squared norm of a ket as exp(-t): the idle window takes the exact
    # route, which checks the invariant once, at the window's end
    base = build_model(DeviceParams(), SubsystemDims(2, 2, 1), noiseless=True)
    d = base.dims.total
    leaky = dataclasses.replace(base, drift=(lindblad.ShiftClass(
        (0, 0, 0), np.arange(d), np.full(d, -0.5j)),))
    g = np.zeros(d, dtype=complex)
    g[base.dims.index(0, 0, 0)] = 1.0
    for x, invariant in ((np.outer(g, g).reshape(-1, 1), "trace"),
                         (g[:, None], "norm")):
        with pytest.raises(IntegrationError) as err:
            propagate([leaky], x, (0.0, 1.0), 1e-3)
        assert re.fullmatch(
            rf"{invariant} drifted by 0\.632 over \[0, 1\] us; the generator "
            r"of the window does not conserve it", str(err.value))


def test_propagate_takes_one_model_per_column():
    # zip(models, span) truncated: with one model for two columns the
    # second came back unpropagated, its input bit for bit, and a 1-D x
    # raised a bare IndexError
    m = build_model(DeviceParams(), SubsystemDims(2, 2, 1))
    rho = qsys.basis_state(m.dims, 1, 0, 0).rho.reshape(-1, 1)
    for models, x in (([m], np.tile(rho, 2)), ([m, m], rho), ([m], rho[:, 0]),
                      ([], rho[:, :0])):
        with pytest.raises(DimensionError) as err:
            propagate(models, x, (0.0, 0.1), 1e-3)
        assert f"got {len(models)} models for x of shape {x.shape}" \
            in str(err.value)


def test_propagate_takes_a_span_of_two_finite_times():
    # a NaN end skipped every window and returned the input, an infinite
    # end returned NaN states, and a per-column span of the wrong length
    # raised numpy's broadcast ValueError
    m = build_model(DeviceParams(), SubsystemDims(2, 2, 1))
    x = np.tile(qsys.basis_state(m.dims, 1, 0, 0).rho.reshape(-1, 1), 2)
    for span in ((0.0, math.nan), (math.nan, 0.1), (0.0, math.inf),
                 (0.0, np.array([0.1, 0.2, 0.3])), (0.1, 0.0), (0.0,)):
        with pytest.raises(ParameterError, match="^span must be two finite"):
            propagate([m, m], x, span, 1e-3)


def test_propagate_refuses_a_column_that_is_not_finite(monkeypatch):
    # a NaN column came back all NaN from an exact idle window, and on a
    # ramp raised IntegrationError "trace drifted by nan" with wrong advice
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    m = build_model(p, dims)
    seg = PulseSegment(QUBIT_CHANNEL, 50.0, p.angular().w_q, plateau=0.02)
    driven = m.with_sequence(PulseSequence((seg,)))
    x = np.tile(qsys.basis_state(dims, 1, 0, 0).rho.reshape(-1, 1), 2)

    def no_window(*args):
        raise AssertionError("ran a window before checking x")

    monkeypatch.setattr(lindblad, "_exact", no_window)
    monkeypatch.setattr(lindblad, "_stepped", no_window)
    for model, span in ((m, (0.0, 1.0)), (driven, (0.0, seg.ramp))):
        for bad in (math.nan, math.inf):
            y = x.copy()
            y[3, 1] = bad
            with pytest.raises(ParameterError,
                               match="^column 1 of x holds a value that is "
                               "not finite"):
                propagate([model, model], y, span, 1e-3)


def test_evolve_takes_a_t_span_of_two_finite_times():
    # a NaN or infinite end raised IntegrationError "trace drifted by nan",
    # advising a step of nan us
    m = build_model(DeviceParams(), SubsystemDims(2, 2, 1))
    rho = qsys.basis_state(m.dims, 1, 0, 0)
    for t_span in ((0.0, math.nan), (math.nan, 0.1), (0.0, math.inf),
                   (-math.inf, 0.0), (0.1, 0.0)):
        with pytest.raises(ParameterError, match="^t_span must be two finite"):
            evolve(m, rho, t_span, 1e-3)


def test_evolve_refuses_a_state_that_is_not_finite(monkeypatch):
    # a NaN state raised IntegrationError "trace drifted by nan", advising
    # a smaller step
    m = build_model(DeviceParams(), SubsystemDims(2, 2, 1))

    def no_step(*args):
        raise AssertionError("stepped before checking rho0")

    monkeypatch.setattr(lindblad, "_stepped", no_step)
    for bad in (math.nan, math.inf):
        rho = qsys.basis_state(m.dims, 1, 0, 0).rho.copy()
        rho[0, 1] = bad
        with pytest.raises(ParameterError,
                           match="^rho0 holds a value that is not finite"):
            evolve(m, rho, (0.0, 0.1), 1e-3)


def test_propagate_takes_the_models_of_one_frame():
    # columns share a table by their term operators alone, so each model
    # shares models[0]'s drift and channels; a list mixing dims raised a
    # bare IndexError deep inside the runner
    p, dims = DeviceParams(), SubsystemDims(2, 2, 1)
    m = build_model(p, dims)
    driven = m.with_sequence(PulseSequence((
        PulseSegment(QUBIT_CHANNEL, 50.0, p.angular().w_q, plateau=0.02),)))
    rho = qsys.basis_state(dims, 1, 0, 0).rho.reshape(-1, 1)
    propagate([m, driven], np.tile(rho, 2), (0.0, 0.1), 1e-3)
    for other in (build_model(p, SubsystemDims(4, 2, 1)), build_model(p, dims),
                  dataclasses.replace(m, channels=m.channels[1:]),
                  dataclasses.replace(m, drift=list(m.drift))):
        with pytest.raises(ParameterError, match="^the model of column 2 is "
                           "not of column 0's frame"):
            propagate([m, driven, other], np.tile(rho, 3), (0.0, 0.1), 1e-3)


def test_purity_and_positivity_along_trajectory():
    p = DeviceParams()
    m = build_model(p, SubsystemDims())
    rho0 = qsys.basis_state(m.dims, 1, 1, 0)
    for state in evolve(m, rho0, (0.0, 2.0), 1e-3, steps=20):
        assert np.trace(state.rho @ state.rho).real <= 1.0 + 1e-9
        assert np.min(np.linalg.eigvalsh(state.rho)) >= -1e-9


def test_purity_monotone_for_dephasing():
    p = DeviceParams()
    dims = SubsystemDims(2, 2, 1)
    m = build_model(p, dims)
    m = dataclasses.replace(
        m, channels=[c for c in m.channels if c.name == "qubit-dephasing"])
    i_g, i_e = dims.index(0, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[i_g, i_g] = rho[i_e, i_e] = 0.5
    rho[i_g, i_e] = rho[i_e, i_g] = 0.5
    states = evolve(m, rho, (0.0, 20.0), 5e-3, steps=20)
    purities = np.array([np.trace(s.rho @ s.rho).real for s in states])
    assert np.all(np.diff(purities) <= 1e-12)


def test_step_halving_fourth_order():
    p = decoupled_params()
    dims = SubsystemDims(2, 2, 1)

    def max_err(dt):
        m = build_model(p, dims)
        m = dataclasses.replace(
            m, channels=[c for c in m.channels if c.name == "qubit-decay"])
        # rescale to kappa*dt ~ 0.3 so the truncation error is visible
        m = dataclasses.replace(
            m, channels=[lindblad.CollapseChannel(m.channels[0].op, 1.5,
                                                  "decay")])
        # samples every 0.2 us: one or two steps per sample
        states = evolve(m, qsys.basis_state(m.dims, 1, 0, 0), (0.0, 2.0), dt,
                        steps=10)
        pe = real_expectations(states, m.label_projector(nt=1))
        return np.max(np.abs(pe - np.exp(-1.5 * np.linspace(0.0, 2.0, 11))))

    ratio = max_err(0.2) / max_err(0.1)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("name, order", [("RK4", 4), ("DOP853", 8)])
def test_tableau_meets_its_order_conditions(name, order):
    # each node is its row sum of A, and b . c^(k-1) = 1/k and
    # b . A c^(k-1) = 1/(k (k + 1)) up to the method's order: a mistyped
    # digit of a constant breaks one of them
    a, b, c = getattr(lindblad, name)
    assert np.array_equal(a, np.tril(a, -1))
    assert np.max(np.abs(a.sum(axis=1) - c)) < 1e-13
    for k in range(1, order + 1):
        assert abs(np.sum(b * c ** (k - 1)) - 1.0 / k) < 1e-13
        if k < order:
            assert abs(np.sum(b * (a @ c ** (k - 1))) - 1.0 / (k * (k + 1))) \
                < 1e-13


def test_stepped_error_falls_as_the_eighth_power_of_the_step():
    # one 25 ns ramp of a 100 MHz qubit drive, stepped by propagate at 16,
    # 32 and 64 steps against 256: each halving of the step divides the
    # error by 2^8 = 256 within 10%, in the measured range 244-258
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 100.0,
                       lindblad.dressed_frequencies(p, dims)[0], plateau=0.01)
    m = build_model(p, dims).with_sequence(PulseSequence((seg,)))
    x = qsys.basis_state(dims).rho.reshape(-1, 1)
    span = (0.0, seg.ramp)
    assert m.carrier_frame(*span) is None
    ref = propagate([m], x, span, seg.ramp / 256)
    errors = [np.max(np.abs(propagate([m], x, span, seg.ramp / n) - ref))
              for n in (16, 32, 64)]
    assert errors[-1] > 1e-12
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.9 * 256 <= coarse / fine <= 1.1 * 256


def test_a_non_hermitian_column_steps_as_it_would_alone():
    # |g><e| steps as its Hermitian and anti-Hermitian parts beside |g><g|
    # and |+><+|, across a stepped ramp, an exact plateau and an idle gap:
    # each column comes out the same to the bit as alone, and |g><e| keeps
    # exactly zero every element that the idle window's table cannot reach
    # from it, its conjugate |e><g| among them
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0,
                       lindblad.dressed_frequencies(p, dims)[0], plateau=0.01)
    m = build_model(p, dims).with_sequence(PulseSequence((seg,)))
    d, g, e = dims.total, dims.index(0, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((3, d, d), dtype=complex)
    rho[0, g, g] = 1.0                          # |g><g|
    rho[1, g, e] = 1.0                          # |g><e|
    rho[2][np.ix_([g, e], [g, e])] = 0.5        # |+><+|
    x = rho.reshape(3, -1).T
    span = (0.0, seg.end)
    batch = propagate([m] * 3, x, span, 1.5e-3)
    for j in range(3):
        assert np.array_equal(batch[:, j], propagate([m], x[:, [j]], span,
                                                     1.5e-3)[:, 0])
    idle = build_model(p, dims)
    reach = LiouvilleTable(idle).restricted(x[:, 1])[0]
    out = propagate([idle], x[:, [1]], (0.0, 1.0), 1.5e-3)[:, 0]
    outside = np.ones(d * d, dtype=bool)
    outside[reach] = False
    assert outside[e * d + g] and np.all(out[outside] == 0)
    assert abs(out[g * d + e]) > 0.1


def test_a_one_element_ket_steps_as_it_would_alone():
    # the two-photon term moves |g,n> only, and nothing brings the
    # noiseless |f,0,0> there: alone, its ramp steps a support of one
    # element, whose stage sums numpy would take pairwise; beside |g,0,0>
    # it steps in a wider stack, and comes out the same to the bit
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 5e3,
                       lindblad.two_photon_resonance(p, dims),
                       plateau=0.003, rise=0.002, start=0.0)
    m = build_model(p, dims, noiseless=True).with_sequence(
        PulseSequence((seg,)))
    span = (0.0, seg.ramp)
    assert [t.power for t in m.active_terms(*span)] == [2]
    psi = np.eye(dims.total, dtype=complex)[
        :, [dims.index(2, 0, 0), dims.index(0, 0, 0)]]
    table = LiouvilleTable(m, m.active_terms(*span), ket=True)
    assert len(table.restricted(psi[:, 0])[0]) == 1
    alone = propagate([m], psi[:, :1], span, 1e-4)[:, 0]
    assert np.array_equal(propagate([m, m], psi, span, 1e-4)[:, 0], alone)
    assert alone[dims.index(2, 0, 0)] != 1.0


def test_frame_invariance_small_system():
    # both the bare rotating frame and the lab frame are integrable on the
    # slow instance: eigenstate populations must agree
    p = SLOW_PARAMS
    dims = SubsystemDims(2, 2, 2)
    t_end = 0.8

    rho0 = None
    pops = {}
    for frame in ("bare", "lab"):
        m = build_model(p, dims, frame=frame)
        if rho0 is None:
            v = np.zeros(dims.total, dtype=complex)
            v[dims.index(0, 0, 0)] = 1.0
            v[dims.index(1, 1, 0)] = 1.0
            v[dims.index(0, 0, 1)] = 0.5
            v /= np.linalg.norm(v)
            rho0 = np.outer(v, v.conj())
        final = evolve(m, rho0, (0.0, t_end), 2e-5)[-1]
        # both frames keep the bare basis: undo the rotation exp(-i G t)
        phase = np.exp(1j * t_end * sum(w * lab for w, lab
                                        in zip(m.rot, m.labels)))
        lab_rho = phase.conj()[:, None] * final.rho * phase[None, :]
        h0 = dense(build_model(p, dims, frame="lab").drift, dims.total)
        _, vecs = np.linalg.eigh(h0)
        pops[frame] = np.real(np.diag(vecs.conj().T @ lab_rho @ vecs))

    assert np.max(np.abs(pops["bare"] - pops["lab"])) < 1e-6


def test_effective_bsb_ratio_and_quadratic_scaling():
    p = DeviceParams()
    chk, chk2 = protocol.effective_bsb_check(p, [TWO_PI * 2.0e3,
                                                 TWO_PI * 4.0e3])
    assert 0.8 <= chk.ratio <= 1.25
    assert chk.contrast >= 0.2
    assert chk2.measured_rate / chk.measured_rate == pytest.approx(4.0, rel=0.02)


def test_effective_bsb_requires_dispersive_regime():
    p = DeviceParams(g=900.0)
    with pytest.raises(ParameterError):
        protocol.effective_bsb_check(p, [TWO_PI * 2.0e3])


# ---------------------------------------------------------------------------
# exact propagation of static windows, those with no active term
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_model():
    return build_model(DeviceParams(), SubsystemDims())


def idle(model, rho, span):
    """rho propagated across the span, which has no active term; one column
    per t1 where the span's t1 is an array."""
    columns, d = np.size(span[1]), model.dims.total
    x = propagate([model] * columns, np.repeat(rho.reshape(-1, 1), columns, 1),
                  span, 1e-4)
    return x.T.reshape(-1, d, d)


def record_blocks(monkeypatch):
    """The (m, n) index arrays of the blocks `_static_blocks` returns."""
    blocks, static_blocks = [], lindblad._static_blocks

    def record(*args):
        out = static_blocks(*args)
        blocks.extend(out)
        return out

    monkeypatch.setattr(lindblad, "_static_blocks", record)
    return blocks


def test_static_blocks_partition_liouville_space(default_model, monkeypatch):
    # a rho with full support, Hermitian to the bit, so the window
    # propagates only the kept elements, and all of them
    blocks = record_blocks(monkeypatch)
    rho = random_density_matrix(30, 0)
    idle(default_model, 0.5 * (rho + rho.conj().T), (0.0, 1.0))
    # the blocks index the kept elements; they and the conjugates of their
    # elements, (j, i) for (i, j), cover the space, and overlap only in the
    # blocks that are their own conjugates
    kept = np.flatnonzero(LiouvilleTable(default_model).kept)
    elements = kept[np.concatenate([idx.ravel() for idx in blocks])]
    partners = elements % 30 * 30 + elements // 30
    assert len(np.unique(elements)) == len(elements)
    assert np.array_equal(np.union1d(elements, partners), np.arange(30 * 30))
    # dispersive frame: one block per label difference of (i, j), 135 in
    # all, and one of each conjugate pair; the populations, of difference
    # 0, are their own conjugates
    assert np.array_equal(np.intersect1d(elements, partners),
                          np.arange(30) * 31)
    assert sum(idx.shape[0] for idx in blocks) == 1 + (135 - 1) // 2
    assert max(idx.shape[1] for idx in blocks) == 30


def test_static_propagation_conserves_trace_over_16_us(default_model):
    out = idle(default_model, random_density_matrix(30, 0), (0.0, 16.0))[0]
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_static_propagator_is_a_semigroup(default_model):
    rho = random_density_matrix(30, 1)
    split = idle(default_model, idle(default_model, rho, (0.0, 0.7))[0],
                 (0.7, 16.0))[0]
    whole = idle(default_model, rho, (0.0, 16.0))[0]
    assert np.max(np.abs(split - whole)) < 1e-12


def test_static_propagation_keeps_positivity(default_model):
    states = idle(default_model, random_density_matrix(30, 2),
                  (0.0, np.linspace(0.0, 16.0, 9)))
    assert len(states) == 9
    for rho in states:
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_static_propagation_matches_fine_rk4():
    # three transmon levels keep the fast |f> coherences (~1.2e3 rad/us);
    # the exact columns at the times of evolve's grid
    m = build_model(DeviceParams(), SubsystemDims(3, 2, 1))
    rho = random_density_matrix(6, 3)
    exact = idle(m, rho, (0.0, np.linspace(0.0, 0.2, 9)))
    rk4 = evolve(m, rho, (0.0, 0.2), 5e-6, steps=8)
    assert len(exact) == len(rk4) == 9
    for e, r in zip(exact, rk4):
        assert np.max(np.abs(e - r.rho)) < 1e-9


def test_static_propagation_dense_lab_drift_is_one_block(monkeypatch):
    dims = SubsystemDims(2, 2, 1)
    m = build_model(SLOW_PARAMS, dims, frame="lab")
    x = np.random.default_rng(4).normal(size=(4, 4))
    drift = dense(m.drift, 4) + 10.0 * (x + x.T)
    m = dataclasses.replace(m, drift=lindblad._split(drift, m.labels, 0.0))
    blocks = record_blocks(monkeypatch)
    rho = random_density_matrix(4, 5)
    exact = idle(m, rho, (0.0, 0.2))[0]
    assert [idx.shape for idx in blocks] == [(1, 16)]
    rk4 = evolve(m, rho, (0.0, 0.2), 1e-5)[-1].rho
    assert np.max(np.abs(exact - rk4)) < 1e-9


def test_driven_windows_step_rk4_and_silent_segments_are_exact(monkeypatch):
    p = DeviceParams()
    drive = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                         plateau=0.05, start=0.0)
    silent = PulseSegment(QUBIT_CHANNEL, 0.0, p.angular().w_q, plateau=0.05,
                          start=drive.end)
    m = build_model(p, SubsystemDims(2, 2, 1)).with_sequence(
        PulseSequence((drive, silent)))
    routes = []
    for name in ("_stepped", "_exact"):
        def record(*args, name=name, route=getattr(lindblad, name)):
            routes.append(name)
            return route(*args)
        monkeypatch.setattr(lindblad, name, record)
    rho = qsys.basis_state(m.dims).rho.reshape(-1, 1)
    propagate([m], rho, (0.0, 0.01), 1e-4)
    # a zero-amplitude segment contributes no term: its window is exact
    out = propagate([m], rho, (silent.start, silent.end), 1e-4)
    assert routes == ["_stepped", "_exact"]
    assert np.real(np.trace(out.reshape(4, 4))) == pytest.approx(1.0, abs=1e-12)


def test_zero_length_window_is_an_identity_on_both_routes(monkeypatch):
    # a column whose window has t1 = t0 keeps its input bit for bit, on a
    # ramp (RK4), on the plateau and in an idle gap (exact), beside a
    # column that propagates
    p = DeviceParams()
    drive = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                         plateau=0.05, start=0.01)
    m = build_model(p, SubsystemDims(2, 2, 1)).with_sequence(PulseSequence((drive,)))
    routes = []
    for name in ("_stepped", "_exact"):
        def record(*args, name=name, route=getattr(lindblad, name)):
            routes.append(name)
            return route(*args)
        monkeypatch.setattr(lindblad, name, record)
    x = np.stack([random_density_matrix(4, k).reshape(-1) for k in (6, 7)], 1)
    for t, route in ((drive.start + 0.5 * drive.ramp, "_stepped"),
                     (drive.start + drive.ramp + 0.02, "_exact"),
                     (0.005, "_exact")):
        routes.clear()
        out = propagate([m, m], x, (t, np.array([t, t + 0.002])), 1e-4)
        assert routes == [route]
        assert np.array_equal(out[:, 0], x[:, 0])
        assert not np.array_equal(out[:, 1], x[:, 1])


def test_window_under_a_picosecond_has_zero_length():
    # a segment 1e-13 us after the span's start leaves a first window
    # shorter than 1e-12 us, which propagates as an identity: the span from
    # 0 gives the bits of the span from the segment's start
    p = DeviceParams()
    drive = PulseSegment(QUBIT_CHANNEL, TWO_PI * 20.0, p.angular().w_q,
                         plateau=0.05, start=1e-13)
    m = build_model(p, SubsystemDims(2, 2, 1)).with_sequence(PulseSequence((drive,)))
    x = random_density_matrix(4, 8).reshape(-1, 1)
    t1 = drive.start + 0.5 * drive.ramp
    assert np.array_equal(propagate([m], x, (0.0, t1), 1e-4),
                          propagate([m], x, (drive.start, t1), 1e-4))


# ---------------------------------------------------------------------------
# the generator table against a dense reference
# ---------------------------------------------------------------------------

def dense_lindbladian(model, rho, drive=()):
    """-i[H, rho] + sum_k (c rho c^dag - {c^dag c, rho} / 2) in plain
    matmuls, with H = drift + sum of c op + conj(c) op^dag over the
    (term, c) pairs in drive."""
    d = len(rho)
    h = dense(model.drift, d)
    for term, c in drive:
        op = dense([term.op], d)
        h = h + c * op + np.conj(c) * op.conj().T
    out = -1j * (h @ rho - rho @ h)
    for channel in model.channels:
        c = math.sqrt(channel.rate) * dense([channel.op], d)
        cdc = c.conj().T @ c
        out += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def draw_driven_model(data, plateau, rise):
    """(model, segment): a random device near the default one on dims
    (2-3, 2-3, 1-2), in a random frame, driven by one qubit segment at the
    dressed qubit or the two-photon carrier with a random phase."""
    st = pytest.importorskip("hypothesis").strategies
    t1_q = data.draw(st.floats(0.5, 5.0))
    p = DeviceParams(
        omega_ro=data.draw(st.floats(4.5, 5.5)),
        omega_s=data.draw(st.floats(7.5, 9.0)),
        omega_q=data.draw(st.floats(6.0, 7.0)),
        alpha=data.draw(st.floats(-300.0, -100.0)),
        g=data.draw(st.floats(10.0, 80.0)),
        kappa_ro=data.draw(st.floats(1.0, 10.0)),
        kappa_s=data.draw(st.floats(5.0, 50.0)),
        t1_q=t1_q, t2_q=data.draw(st.floats(0.2, 2.0)) * t1_q,
        p_e=data.draw(st.floats(0.0, 0.1)))
    dims = SubsystemDims(data.draw(st.integers(2, 3)),
                         data.draw(st.integers(2, 3)),
                         data.draw(st.integers(1, 2)))
    frame = data.draw(st.sampled_from(lindblad.FRAMES))
    carriers = [lindblad.dressed_frequencies(p, dims)[0],
                lindblad.two_photon_resonance(p, dims)]
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * data.draw(st.floats(1.0, 5e3)),
                       data.draw(st.sampled_from(carriers)),
                       phase=data.draw(st.floats(-math.pi, math.pi)),
                       plateau=plateau, rise=rise, start=0.0)
    return build_model(p, dims, frame).with_sequence(PulseSequence((seg,))), seg


def test_liouville_table_matches_dense_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, seg = draw_driven_model(data, plateau=0.05, rise=0.01)
        d = m.dims.total
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        t = data.draw(st.floats(0.0, seg.end))
        terms = m.active_terms(0.0, seg.end)
        coeffs = np.array([term.amplitude_at(t)
                           * np.exp(1j * (term.carrier * t + term.phase))
                           for term in terms], dtype=complex)
        table = LiouvilleTable(m, terms)
        got = table.apply(rho.reshape(-1), table.scales(coeffs[:, None]))
        want = dense_lindbladian(m, rho, zip(terms, coeffs))
        assert np.max(np.abs(got.reshape(d, d) - want)) \
            <= 1e-12 * np.max(np.abs(want))

        # the static generator column by column, against its blocks
        basis = np.eye(d * d).reshape(d * d, d, d)
        dense = np.array([dense_lindbladian(m, e).reshape(-1) for e in basis]).T
        scale = np.max(np.abs(dense))
        table = LiouvilleTable(m)
        blocks = [(idx, lindblad._block_generators(
            table, idx, table.lam[:, None], np.ones((len(table.weight), 1))))
            for idx in lindblad._static_blocks(table)]
        member = np.full(d * d, -1)
        for k, (idx, gen) in enumerate(blocks):
            for b in range(idx.shape[0]):
                assert np.all(member[idx[b]] == -1)
                member[idx[b]] = k * d * d + b
                sub = dense[np.ix_(idx[b], idx[b])]
                assert np.max(np.abs(gen[0, b] - sub)) <= 1e-12 * scale
        assert np.all(member >= 0)
        coupling = dense[member[:, None] != member[None, :]]
        assert np.all(np.abs(coupling) <= 1e-12 * scale)

    check()


def dense_split_table(model, terms, ket):
    """(lam, gather, weight, column) of the generator as LiouvilleTable
    lays it out, but with A = H0 - (i/2) sum_k c_k^dag c_k formed as a
    dense d x d array and split into its classes by lindblad._split."""
    d = model.dims.total
    eye = lindblad.ShiftClass((0, 0, 0), np.arange(d), np.ones(d))
    ops = [dataclasses.replace(c.op, weight=math.sqrt(c.rate) * c.op.weight)
           for c in model.channels]
    cdc = np.zeros(d)
    for c in ops:
        cdc += np.bincount(c.col, (c.weight.conj() * c.weight).real, d)
    a0 = dense(model.drift, d) - 0.5j * np.diag(cdc)
    rows = [(-1, s, left, right)
            for a in lindblad._split(a0, model.labels, 0.0)
            for s, left, right in ((-1j, a, eye), (1j, eye, a))]
    rows += [(-1, 1.0, c, c) for c in ops]
    for k, term in enumerate(terms):
        op, adj = term.op, term.op.adjoint()
        rows += [(k, -1j, op, eye), (k, 1j, eye, adj),
                 (len(terms) + k, -1j, adj, eye),
                 (len(terms) + k, 1j, eye, op)]
    if ket:
        one = lindblad.ShiftClass((0, 0, 0), np.zeros(1, dtype=int),
                                  np.ones(1))
        rows = [(k, s, left, one) for k, s, left, right in rows
                if right is eye]
    n = d if ket else d * d
    lam, kept = np.zeros(n, dtype=complex), []
    for column, scale, left, right in rows:
        gather, weight = lindblad._gather_row(left, right, scale)
        if column < 0 and np.array_equal(gather, np.arange(n)):
            lam += weight
        elif np.any(weight):
            kept.append((column, gather, weight))
    kept.sort(key=lambda row: row[0])
    gather = np.array([g for _, g, _ in kept], dtype=np.intp).reshape(-1, n)
    weight = np.array([w for _, _, w in kept], dtype=complex).reshape(-1, n)
    column = np.array([c for c, _, _ in kept if c >= 0], dtype=np.intp)
    return lam, gather, weight, column


@pytest.mark.parametrize("frame", lindblad.FRAMES)
def test_table_of_class_form_a_matches_a_dense_split(frame):
    # the table forms A's classes from the drift's, adding -(i/2) c^dag c
    # to its key-0 class; that gives the table of a dense A split into
    # classes, bit for bit, noisy and noiseless, on rho and on kets, with
    # no term, one and all, and with a drift of no key-0 class
    p = DeviceParams()
    for dims, noiseless in itertools.product(
            (SubsystemDims(3, 3, 2), SubsystemDims(2, 2, 1)), (False, True)):
        base = build_model(p, dims, frame, noiseless=noiseless)
        seg = PulseSegment(QUBIT_CHANNEL, 3e4,
                           lindblad.two_photon_resonance(p, dims),
                           plateau=0.02, start=0.1)
        m = base.with_sequence(PulseSequence((
            PulseSegment(QUBIT_CHANNEL, 50.0, p.angular().w_q, plateau=0.02),
            seg)))
        kets = (False, True) if noiseless else (False,)
        for terms, ket in itertools.product(((), m.terms[:1], m.terms), kets):
            table = LiouvilleTable(m, terms, ket=ket)
            want = dense_split_table(m, terms, ket)
            got = (table.lam, table.gather, table.weight, table.column)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        if frame == "bare" and dims.n_transmon == 2:
            assert all(c.key != (0, 0, 0) for c in m.drift)


# ---------------------------------------------------------------------------
# driven windows step only the elements their initial state can reach
# ---------------------------------------------------------------------------

def full_space_steps(table, x, terms, t_span, n, tableau, samples=1):
    """The explicit Runge-Kutta method tableau = (A, b, c) on dx/dt =
    table.apply(x, s(t)) on the whole vector, n steps across t_span, with
    s(t) the drive rows' scales (table.scales) of c_k(t), the amplitude
    times the carrier phase of terms[k]; x at the samples + 1 equally
    spaced times."""
    a, b, nodes = tableau
    t0, t1 = t_span
    h = (t1 - t0) / n
    t = (t0 + h * (np.arange(n)[:, None] + nodes)).ravel()
    c = np.array([term.amplitude_at(t) * np.exp(1j * (term.carrier * t + term.phase))
                  for term in terms], dtype=complex).reshape(len(terms), -1).T
    s = table.scales(c[:, :, None]).reshape(n, len(nodes), -1, 1)
    out, stages = [x], np.zeros((len(nodes), len(x)), dtype=complex)
    for k in range(n):
        for i in range(len(nodes)):
            stages[i] = table.apply(x + h * (a[i, :i] @ stages[:i]), s[k, i])
        x = x + h * (b @ stages)
        if (k + 1) % (n // samples) == 0:
            out.append(x)
    return out


def check_stepping(m, rho, span, dt):
    """evolve of rho across span (from 0) at dt, in two intervals, matches
    full_space_steps with RK4, evolve's tableau, and keeps every element
    its table cannot reach zero."""
    d = m.dims.total
    terms = m.active_terms(*span)
    table = LiouvilleTable(m, terms)
    outside = np.ones(d * d, dtype=bool)
    outside[table.restricted(rho.reshape(-1))[0]] = False
    n = 2 * max(1, math.ceil(span[1] / 2 / dt - 1e-9))
    got = evolve(m, rho, span, dt, steps=2)
    want = full_space_steps(table, rho.reshape(-1), terms, span, n,
                            lindblad.RK4, samples=2)
    assert len(got) == len(want) == 3
    for state, x in zip(got, want):
        assert np.max(np.abs(state.rho.reshape(-1) - x)) \
            <= 1e-12 * np.max(np.abs(x))
        assert np.all(state.rho.reshape(-1)[outside] == 0)
        assert np.all(x[outside] == 0)


def test_restricted_stepping_matches_full_space_rk4():
    # a window whose restriction drops every drive row: the two-photon
    # term moves |g,n> only, and nothing brings the noiseless |f,0,0>
    # there, so none of its rows gathers a reached source; the diagonal
    # drift folds into lam, so the restricted table keeps no row at all
    p, dims = DeviceParams(), SubsystemDims(3, 2, 1)
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 5e3,
                       lindblad.two_photon_resonance(p, dims),
                       plateau=0.003, rise=0.002, start=0.0)
    m = build_model(p, dims, noiseless=True).with_sequence(
        PulseSequence((seg,)))
    f, e = dims.index(2, 0, 0), dims.index(1, 0, 0)
    rho = np.zeros((dims.total,) * 2, dtype=complex)
    rho[f, f], rho[f, e] = 1.0, 0.5
    terms = m.active_terms(0.0, seg.end)
    sub = LiouvilleTable(m, terms).restricted(rho.reshape(-1))[1]
    assert [t.power for t in terms] == [2]
    assert len(sub.column) == len(sub.gather) == 0
    check_stepping(m, rho, (0.0, seg.end), 2e-5)

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, seg = draw_driven_model(data, plateau=0.003, rise=0.002)
        d = m.dims.total
        span = (0.0, seg.end)
        terms = m.active_terms(*span)
        # a basis projector plus one coherence
        k = data.draw(st.integers(0, d - 1))
        j = (k + data.draw(st.integers(1, d - 1))) % d
        phase = np.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
        rho = np.zeros((d, d), dtype=complex)
        rho[k, k], rho[k, j] = 1.0, 0.5 * phase

        # at most evolve's step bound, 40 RK4 steps per carrier period
        check_stepping(m, rho, span, min(2e-5, m.max_step(*span, 40.0)))

        # kets through propagate, against its DOP853: the norm is no linear
        # invariant of a Runge-Kutta method, unlike the trace, so take 200
        # steps short against the fastest phase, on the ramp-up or the
        # ramp-down: propagate cuts a span at the plateau's edges and takes
        # the plateau exactly; rate bounds |H| by the drift's largest row
        # sum, the drive amplitude and 2e3 rad/us for the couplings
        noiseless = dataclasses.replace(m, channels=[])
        psi = np.zeros(d, dtype=complex)
        psi[k], psi[j] = 0.8, 0.6 * phase
        rate = (np.abs(dense(m.drift, d)).sum(axis=1).max() + seg.amplitude
                + 2e3)
        dt = min(m.max_step(*span), 0.02 / rate)
        t0 = data.draw(st.floats(0.0, seg.ramp - 200 * dt))
        if data.draw(st.booleans()):
            t0 += seg.end - seg.ramp
        ket_span = (t0, t0 + 200 * dt)
        table = LiouvilleTable(noiseless, noiseless.active_terms(*ket_span),
                               ket=True)
        outside = np.ones(d, dtype=bool)
        outside[table.restricted(psi)[0]] = False
        got = propagate([noiseless], psi[:, None], ket_span, dt)[:, 0]
        want = full_space_steps(table, psi, noiseless.active_terms(*ket_span),
                                ket_span, 200, lindblad.DOP853)[-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(got[outside] == 0) and np.all(want[outside] == 0)

    check()


def test_default_protocol_windows_step_their_reached_elements(monkeypatch,
                                                             default_cal):
    # from |g,0,0> the readout stays in vacuum, and the drives and collapse
    # operators shift label differences by fixed classes: the leading idle
    # window reaches the 3 transmon populations, the ramp-up, plateau and
    # ramp-down windows of the default protocol's segments reach 37, 171,
    # 171 and 215 of the 900 elements, and the sideband-store window
    # reaches 37 from the tomography input |e><e| and 34 from its coherence
    # |g><e| or |e><g|.  Of each pair of conjugate components a window keeps
    # one, that of |e><g| here, so the windows propagate 3, 37, 108, 108 and
    # 126 elements.  Only the ramps step, 17 DOP853 steps of 1.5e-3 us each.
    p, options = DeviceParams(), ProtocolOptions()
    dims = options.dims
    seq = build_memory_sequence(0.0, 0.0, default_cal)
    store = seq.labeled("bsb-store")[0]
    model = build_model(p, dims).with_sequence(seq)
    table = LiouvilleTable(model, model.active_terms(store.start, store.end))
    for (i, j), size, kept in (((1, 1), 37, 37), ((0, 1), 34, 0),
                               ((1, 0), 34, 34)):
        rho = np.zeros((dims.total, dims.total), dtype=complex)
        rho[dims.index(i, 0, 0), dims.index(j, 0, 0)] = 1.0
        assert len(table.restricted(rho.reshape(-1))[0]) == size
        assert len(table.restricted(rho.reshape(-1), table.kept)[0]) == kept

    sizes, applies = [], []
    restricted, apply = LiouvilleTable.restricted, LiouvilleTable.apply

    def record(table, x, keep=None):
        out = restricted(table, x, keep)
        sizes.append((len(restricted(table, x)[0]), len(out[0])))
        return out

    def count(*args, **kw):
        applies.append(None)
        return apply(*args, **kw)

    monkeypatch.setattr(LiouvilleTable, "restricted", record)
    monkeypatch.setattr(LiouvilleTable, "apply", count)
    protocol.run_memory_protocol(p, 0.0, 0.0, options, default_cal)
    assert sizes == [(3, 3)] + [(37, 37)] * 3 + [(171, 108)] * 6 \
        + [(215, 126)] * 3
    ramps = [2 * round(s.ramp / options.dt_pulse) for s in seq.segments]
    assert ramps == [34] * 4
    # a step applies the table once per stage, an exact window never
    assert len(applies) == len(lindblad.DOP853[2]) * sum(ramps)


# ---------------------------------------------------------------------------
# drive plateaus propagate exactly in a frame rotating with their carriers
# ---------------------------------------------------------------------------

def test_noisy_sideband_plateau_matches_fine_rk4():
    # ramps at a fine step and the plateau exact, against RK4 at that step
    # across the whole pulse
    p, dims, dt = DeviceParams(), SubsystemDims(), 2.5e-5
    seg = PulseSegment(QUBIT_CHANNEL, TWO_PI * 5.1e3,
                       lindblad.two_photon_resonance(p, dims), plateau=0.02)
    options = ProtocolOptions(dims=dims, dt_pulse=dt)
    model, exact = protocol.simulate_sequence(p, PulseSequence((seg,)), options)
    assert model.carrier_frame(seg.start + seg.ramp, seg.end - seg.ramp) \
        is not None
    rk4 = evolve(model, qsys.basis_state(model.dims), (seg.start, seg.end),
                 dt)[-1]
    assert abs(rk4.rho[dims.index(1, 1, 0), dims.index(1, 1, 0)]) > 0.05
    assert np.max(np.abs(exact.rho - rk4.rho)) <= 1e-12


def test_plateau_propagation_matches_rk4_in_every_frame():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, seg = draw_driven_model(data, plateau=0.001, rise=0.002)
        span = (seg.start + seg.ramp, seg.end - seg.ramp)
        frame = m.carrier_frame(*span)
        assert (frame is None) == (m.frame == "lab")
        if frame is None:
            return
        d = m.dims.total
        k = data.draw(st.integers(0, d - 1))
        j = (k + data.draw(st.integers(1, d - 1))) % d
        rho = np.zeros((d, d), dtype=complex)
        rho[k, k], rho[k, j] = 1.0, 0.5
        exact = propagate([m], rho.reshape(-1, 1), span, 1.0).reshape(d, d)
        # RK4 at dt and dt / 2: their gap bounds the error of the finer one
        rate = (np.abs(dense(m.drift, d)).sum(axis=1).max() + seg.amplitude
                + 2e3)
        dt = min(m.max_step(*span, 40.0), 0.05 / rate)
        coarse = evolve(m, rho, span, dt)[-1].rho
        fine = evolve(m, rho, span, dt / 2)[-1].rho
        bound = 2.0 * np.max(np.abs(coarse - fine)) / 15.0 + 1e-12
        assert np.max(np.abs(exact - fine)) <= bound

    check()


def test_lab_plateaus_step_rk4_and_bare_plateaus_do_not(monkeypatch):
    # the lab frame keeps both carriers +/- w_c of one class, and its dense
    # drift, so no rotating frame makes its plateau constant; in the bare
    # frame the drive and the always-on couplings admit one at the device
    # parameters, and every window between the ramps, the idle ones too, is
    # exact
    spans, stepped = [], lindblad._stepped

    def record(table, y, terms, t0, t1, dt):
        spans.extend(zip(t0.tolist(), t1.tolist()))
        return stepped(table, y, terms, t0, t1, dt)

    monkeypatch.setattr(lindblad, "_stepped", record)
    for frame, p in (("lab", SLOW_PARAMS), ("bare", DeviceParams())):
        seq = PulseSequence(tuple(
            PulseSegment(QUBIT_CHANNEL, TWO_PI * 2.0, p.angular().w_q,
                         plateau=0.02, rise=0.01, start=start)
            for start in (0.0, 0.1)), readout_time=0.15)
        ramps = [(s.start, s.start + s.ramp) for s in seq.segments] \
            + [(s.end - s.ramp, s.end) for s in seq.segments]
        plateaus = [(s.start + s.ramp, s.end - s.ramp) for s in seq.segments]
        options = ProtocolOptions(dims=SubsystemDims(2, 2, 1), frame=frame,
                                  dt_pulse=3e-5)
        spans.clear()
        model, _ = protocol.simulate_sequence(p, seq, options)
        if frame == "lab":
            assert model.carrier_frame(*plateaus[0]) is None
            assert spans == sorted(ramps + plateaus)
        else:
            assert model.carrier_frame(0.05, 0.1) is not None
            assert spans == sorted(ramps)
