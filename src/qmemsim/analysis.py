"""Deterministic curve fitting for the experiment records.

Every fitter hands its model and seed to one numpy Levenberg-Marquardt
least-squares solver (`_run_fit`): a forward-difference Jacobian,
Marquardt's damping scaled by the Jacobian's column norms (Moré, "The
Levenberg-Marquardt algorithm: implementation and theory", LNM 630, 1978),
a fixed relative step tolerance (XTOL = 1e-10) and a budget of
MAXFEV_PER_PARAM * (p + 1) model evaluations for p free parameters.  With
the documented deterministic seeding rules, identical inputs always give
identical results.  Uncertainties are the square roots of the diagonal of
the linearized covariance at the optimum, inv(J^T J) * SSR / (n - p).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ParameterError

XTOL = 1e-10
# MINPACK's default relative tolerance on the reduction of the sum of squares
FTOL = 1.49012e-8
MAXFEV_PER_PARAM = 200
# forward-difference step relative to a parameter's magnitude
DIFF_STEP = math.sqrt(np.finfo(float).eps)
# the fewest points each model's fit takes
MIN_POINTS = {"exponential": 5, "decaying-cosine": 8, "lorentzian": 7,
              "leakage": 4}


@dataclass
class FitResult:
    params: dict
    uncertainties: dict
    residual_norm: float
    converged: bool
    model: str = ""


def _run_fit(fn, xs, ys, p0, names, model):
    """Least-squares fit of fn(xs, *params) to ys by Levenberg-Marquardt
    from the seed p0.

    Each iteration takes a forward-difference Jacobian J: parameter j steps
    by DIFF_STEP times the larger of |p_j| and its typical size, |seed_j|
    or 1 for a zero seed, so a parameter that converges to zero keeps a
    step the model can resolve.  It then tries damped Gauss-Newton steps
    (J^T J + lam D^2) dp = -J^T r, D the running maximum of J's column
    norms.  A step that lowers the sum of squares is taken and lam falls
    tenfold; one that does not raises lam tenfold.  The fit ends at an
    exact fit, when the scaled step |D dp| is at most XTOL |D p|, or when
    both the actual and the predicted relative reduction of the sum of
    squares are at most FTOL.  A fit that spends MAXFEV_PER_PARAM * (p + 1)
    evaluations raises FitError.

    Converged only when every parameter and every uncertainty is finite; a
    numerically rank-deficient J (numpy's default matrix_rank tolerance),
    or no more points than parameters, reports inf uncertainties.
    """
    p = np.array(p0, dtype=float)
    typical = np.where(p != 0.0, np.abs(p), 1.0)
    budget = MAXFEV_PER_PARAM * (p.size + 1)
    nfev = 0

    def residual(q):
        nonlocal nfev
        nfev += 1
        return fn(xs, *q) - ys

    r = residual(p)
    ssr = r @ r
    scale = np.zeros(p.size)
    lam = 1e-3
    done = False
    while not done:
        jac = np.empty((xs.size, p.size))
        for j in range(p.size):
            q = p.copy()
            q[j] += DIFF_STEP * max(abs(p[j]), typical[j])
            jac[:, j] = (residual(q) - r) / (q[j] - p[j])
        if ssr == 0.0:
            break
        scale = np.maximum(scale, np.linalg.norm(jac, axis=0))
        scale[scale == 0.0] = 1.0
        u, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
        c = u.T @ r
        while True:
            if nfev >= budget:
                raise FitError(f"{model} fit did not converge: spent its "
                               f"budget of {budget} model evaluations")
            # the step D dp, in the right singular basis of J D^-1
            w = -s * c / (s**2 + lam)
            trial = p + (vt.T @ w) / scale
            r_trial = residual(trial)
            ssr_trial = r_trial @ r_trial
            actual = 1.0 - ssr_trial / ssr
            predicted = (np.sum((s * w) ** 2) + 2.0 * lam * (w @ w)) / ssr
            done = (abs(actual) <= FTOL and predicted <= FTOL) or \
                np.linalg.norm(w) <= XTOL * np.linalg.norm(scale * p)
            if ssr_trial < ssr:
                p, r, ssr = trial, r_trial, ssr_trial
                lam *= 0.1
                break
            lam *= 10.0
            if done:
                break

    sigma = np.full(p.size, math.inf)
    if xs.size > p.size and np.linalg.matrix_rank(jac) == p.size:
        # sqrt(diag(inv(J^T J))) = row norms of inv(R), J = QR
        rinv = np.linalg.inv(np.linalg.qr(jac, mode="r"))
        spread = np.linalg.norm(rinv, axis=1) * math.sqrt(
            ssr / (xs.size - p.size))
        if np.all(np.isfinite(spread)):
            sigma = spread
    return FitResult(
        params=dict(zip(names, p)),
        uncertainties=dict(zip(names, sigma)),
        residual_norm=float(np.sqrt(np.mean(r**2))),
        converged=bool(np.all(np.isfinite(p)) and np.all(np.isfinite(sigma))),
        model=model,
    )


def check_point_count(model, n):
    """ParameterError unless n points are enough for model's fit."""
    if n < MIN_POINTS[model]:
        raise ParameterError(f"{model}: need >= {MIN_POINTS[model]} points, got {n}")


def _check_series(xs, ys, model):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ParameterError(f"{model}: xs and ys must be 1-d and equal length")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ParameterError(f"{model}: xs and ys must be finite")
    check_point_count(model, xs.size)
    if np.any(np.diff(xs) <= 0):
        raise ParameterError(f"{model}: xs must be strictly increasing")
    return xs, ys


def fit_exponential(xs, ys):
    """Least-squares fit of A*exp(-x/T) + offset.

    Seeding: offset from the final point, amplitude from the first, and T
    from a log-linear regression over the early decade of the decay.
    Constant input returns converged=False with T = inf.
    """
    xs, ys = _check_series(xs, ys, "exponential")
    if np.ptp(ys) < 1e-300:
        return FitResult({"A": 0.0, "T": math.inf, "offset": float(ys[0])},
                         {"A": math.inf, "T": math.inf, "offset": math.inf},
                         0.0, False, "exponential")
    offset0 = float(ys[-1])
    a0 = float(ys[0] - offset0)
    if a0 == 0.0:
        a0 = float(np.ptp(ys))
    span = xs[-1] - xs[0]
    rel = (ys - offset0) / a0
    mask = rel > 0.05
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(xs[mask], np.log(rel[mask]), 1)[0]
        t0 = -1.0 / slope if slope < 0 else span
    else:
        t0 = span / 3.0

    def fn(x, a, t, off):
        return a * np.exp(-x / t) + off

    return _run_fit(fn, xs, ys, [a0, t0, offset0], ["A", "T", "offset"],
                    "exponential")


def fit_decaying_cosine(xs, ys):
    """Least-squares fit of A*exp(-x/T2)*cos(2 pi f x + phi) + offset.

    The frequency seed is the discrete spectral peak of the detrended data
    (including the DC bin, so zero-frequency input degrades gracefully to an
    exponential); the phase seed is the phase of that spectral component.
    Assumes an (approximately) uniform sample grid for the seeding step.
    """
    xs, ys = _check_series(xs, ys, "decaying-cosine")
    if np.ptp(ys) < 1e-300:
        raise FitError("decaying-cosine fit: zero-amplitude input")
    offset0 = float(np.mean(ys))
    a0 = 0.5 * float(np.ptp(ys))
    dx = float(np.mean(np.diff(xs)))
    spec = np.fft.rfft(ys - offset0)
    freqs = np.fft.rfftfreq(xs.size, dx)
    k = int(np.argmax(np.abs(spec)))
    f0 = float(freqs[k])
    phi0 = float(np.angle(spec[k])) if k > 0 else 0.0
    t0 = (xs[-1] - xs[0]) / 2.0

    def fn(x, a, t2, f, phi, off):
        return a * np.exp(-x / t2) * np.cos(2.0 * np.pi * f * x + phi) + off

    result = _run_fit(fn, xs, ys, [a0, t0, f0, phi0, offset0],
                      ["A", "T2", "f", "phase", "offset"], "decaying-cosine")
    # canonical sign conventions: positive amplitude and frequency
    if result.params["A"] < 0:
        result.params["A"] *= -1.0
        result.params["phase"] += math.pi
    if result.params["f"] < 0:
        result.params["f"] *= -1.0
        result.params["phase"] *= -1.0
    return result


def fit_lorentzian(freqs, powers):
    """Least-squares fit of peak / (1 + 4 (f - f0)^2 / fwhm^2) + floor.

    Seeds: floor from the minimum, center from the maximum, width from the
    half-maximum crossing span.  Raises when the scanned span is smaller
    than the estimated linewidth, before the fit or after it: a scan
    narrower than the line sees only its parabolic top.
    """
    xs, ys = _check_series(freqs, powers, "lorentzian")
    floor0 = float(np.min(ys))
    peak0 = float(np.max(ys) - floor0)
    if peak0 <= 0:
        raise FitError("lorentzian fit: flat input")
    f00 = float(xs[np.argmax(ys)])
    above = xs[ys > floor0 + 0.5 * peak0]
    fwhm0 = float(above[-1] - above[0]) if above.size >= 2 else (xs[-1] - xs[0]) / 4.0
    if fwhm0 <= 0:
        fwhm0 = (xs[-1] - xs[0]) / 4.0
    span = xs[-1] - xs[0]
    if span < fwhm0:
        raise FitError(f"lorentzian fit: span {span:.3g} smaller than the "
                       f"linewidth estimate {fwhm0:.3g}")

    def fn(f, peak, f0, fwhm, floor):
        return peak / (1.0 + 4.0 * (f - f0) ** 2 / fwhm**2) + floor

    result = _run_fit(fn, xs, ys, [peak0, f00, fwhm0, floor0],
                      ["peak", "f0", "fwhm", "floor"], "lorentzian")
    result.params["fwhm"] = abs(result.params["fwhm"])
    if span < result.params["fwhm"]:
        raise FitError(f"lorentzian fit: span {span:.3g} smaller than the "
                       f"fitted linewidth {result.params['fwhm']:.3g}")
    return result


def leakage_population(t_p, a, gamma_sp):
    """Steady-state leakage population accumulated over a protocol of length t_p.

    P_L = a / (2a + gamma_sp t_p) * (1 - exp(-2a - gamma_sp t_p)), where a is
    the (protocol-length-independent) excitation ability of the drive pulse
    and gamma_sp the spontaneous emission rate from the higher levels.
    Vectorized over t_p.
    """
    t = np.asarray(t_p, dtype=float)
    if np.any(t <= 0):
        raise ParameterError("t_p must be > 0")
    if a < 0 or gamma_sp < 0:
        raise ParameterError("a and gamma_sp must be >= 0")
    if a == 0.0:
        out = np.zeros_like(t)
        return float(out) if out.ndim == 0 else out
    gt = 2.0 * a + gamma_sp * t
    out = a / gt * (1.0 - np.exp(-gt))
    return float(out) if out.ndim == 0 else out


def leakage_fidelity_floor(a):
    """Short-pulse fidelity limit 1 - (1 - exp(-2a))/2 of the leakage model."""
    return 1.0 - 0.5 * (1.0 - math.exp(-2.0 * a))


def fit_leakage(t_ps, f_corrs):
    """Fit corrected Z fidelities with F = 1 - P_L(t_p, a, gamma_sp).

    Seeds a from the smallest-t_p point (where the closed form approaches
    its floor) and gamma_sp from the largest-t_p point.  The reported params
    include the implied short-pulse fidelity floor.
    """
    xs, ys = _check_series(t_ps, f_corrs, "leakage")
    pl_small = min(0.49, max(1e-6, 1.0 - float(ys[0])))
    a0 = -0.5 * math.log(1.0 - 2.0 * pl_small)
    pl_large = max(1e-9, 1.0 - float(ys[-1]))
    g0 = max(1e-6, a0 / (pl_large * xs[-1]) - 2.0 * a0 / xs[-1])

    def fn(t, a, g):
        gt = 2.0 * a + g * t
        return 1.0 - a / gt * (1.0 - np.exp(-np.clip(gt, -700.0, 700.0)))

    result = _run_fit(fn, xs, ys, [a0, g0], ["a", "gamma_sp"], "leakage")
    result.params["floor"] = leakage_fidelity_floor(result.params["a"])
    return result
