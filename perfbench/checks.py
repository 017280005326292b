"""Correctness checks on the files a `qmemsim run` writes.

Every expected value here is computed by the benchmark itself from the run's
outputs and the config text; nothing is imported from qmemsim.  Each checker
takes an output directory and returns a list of problems (empty = pass).
"""

import csv
import json
import math
import os
import re

import numpy as np

_FREQ_MHZ = {"Hz": 1e-6, "kHz": 1e-3, "MHz": 1.0, "GHz": 1e3}
_TIME_US = {"s": 1e6, "ms": 1e3, "us": 1.0, "ns": 1e-3}


def config_value(cfg_path, key):
    """Value of `key = <number> <unit>` in a config file, in MHz or us."""
    with open(cfg_path) as f:
        for line in f:
            m = re.match(rf"\s*{re.escape(key)}\s*=\s*(\S+)\s*(\w*)", line)
            if m:
                unit = m.group(2)
                if unit not in _FREQ_MHZ and unit not in _TIME_US:
                    raise ValueError(f"{key}: unknown unit {unit!r}")
                return float(m.group(1)) * {**_FREQ_MHZ, **_TIME_US}[unit]
    raise KeyError(f"{key} not in {cfg_path}")


def read_csv(out_dir):
    """(header, rows as float lists) of results.csv."""
    with open(os.path.join(out_dir, "results.csv")) as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as f:
        return json.load(f)


def fit_exp_decay(t, y):
    """Least-squares A*exp(-t/T) + c by variable projection.

    For fixed T the model is linear in (A, c); the residual is then minimised
    over log T by a grid scan and a golden-section search.  Returns
    (A, T, c).
    """
    t, y = np.asarray(t, float), np.asarray(y, float)

    def linear_part(log_t):
        m = np.column_stack([np.exp(-t / math.exp(log_t)), np.ones_like(t)])
        return m, np.linalg.lstsq(m, y, rcond=None)[0]

    def cost(log_t):
        m, coef = linear_part(log_t)
        r = y - m @ coef
        return float(r @ r)

    grid = np.linspace(math.log(0.1), math.log(1e3), 401)
    i = int(np.argmin([cost(g) for g in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = cost(a), cost(b)
    while hi - lo > 1e-12:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = cost(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = cost(b)
    log_t = 0.5 * (lo + hi)
    amplitude, offset = linear_part(log_t)[1]
    return float(amplitude), math.exp(log_t), float(offset)


def _falling(values, strict):
    diffs = np.diff(values)
    return bool(np.all(diffs < 0) if strict else np.all(diffs <= 0))


def check_fock(out_dir, cfg_path, n_rows):
    """Fock-state decay: p_g in (0, 1) falling strictly; fitted T within 10%
    of 1/kappa_s, at least 4 qubit lifetimes, and equal to fits.json's T1_s."""
    problems = []
    header, rows = read_csv(out_dir)
    if header[:2] != ["delay_us", "p_g"] or len(rows) != n_rows:
        return [f"expected {n_rows} rows of delay_us,p_g; got {header}, "
                f"{len(rows)} rows"]
    delays = np.array([r[0] for r in rows])
    pgs = np.array([r[1] for r in rows])
    if not np.all((pgs > 0) & (pgs < 1)):
        problems.append(f"p_g outside (0, 1): {pgs.tolist()}")
    if not _falling(pgs, strict=True):
        problems.append("p_g does not fall strictly with delay")
    t_fit = fit_exp_decay(delays, pgs)[1]
    t_expected = 1.0 / (2.0 * math.pi * config_value(cfg_path, "kappa_s"))
    if abs(t_fit - t_expected) > 0.10 * t_expected:
        problems.append(f"fitted T = {t_fit:.4g} us is not within 10% of "
                        f"1/kappa_s = {t_expected:.4g} us")
    t1_q = config_value(cfg_path, "t1_q")
    if t_fit / t1_q < 4.0:
        problems.append(f"T / t1_q = {t_fit / t1_q:.3g} < 4")
    t_reported = read_json(out_dir, "fits.json")["T1_s"]["params"]["T"]
    if abs(t_reported - t_fit) > 1e-4 * t_fit:
        problems.append(f"fits.json T1_s T = {t_reported!r} disagrees with "
                        f"the independent fit {t_fit!r}")
    return problems


def check_zfidelity(out_dir, cfg_path, n_rows, anchor_row):
    """Z-fidelity sweep: t_p rising, F_Z in (0, 1] falling strictly,
    f_z_corr = f_z exp(t_p / t1_q), and acceptance criterion 8 at the anchor
    working point (row `anchor_row`): t_p in [0.30, 0.45] us and F_Z in
    [0.70, 0.90]."""
    problems = []
    header, rows = read_csv(out_dir)
    if header != ["t_p_us", "f_z", "uncertainty", "f_z_corr"] \
            or len(rows) != n_rows:
        return [f"expected {n_rows} rows of t_p_us,f_z,uncertainty,f_z_corr; "
                f"got {header}, {len(rows)} rows"]
    t_p = np.array([r[0] for r in rows])
    f_z = np.array([r[1] for r in rows])
    f_corr = np.array([r[3] for r in rows])
    if not np.all(np.diff(t_p) > 0):
        problems.append(f"t_p not strictly rising: {t_p.tolist()}")
    if not np.all((f_z > 0) & (f_z <= 1)):
        problems.append(f"F_Z outside (0, 1]: {f_z.tolist()}")
    if not _falling(f_z, strict=True):
        problems.append("F_Z does not fall strictly with t_p")
    expected = f_z * np.exp(t_p / config_value(cfg_path, "t1_q"))
    if np.any(np.abs(f_corr - expected) > 1e-12 * np.abs(expected)):
        problems.append("f_z_corr != f_z * exp(t_p / t1_q)")
    t_anchor, f_anchor = t_p[anchor_row], f_z[anchor_row]
    if not (0.30 <= t_anchor <= 0.45 and 0.70 <= f_anchor <= 0.90):
        problems.append(f"anchor point: t_p = {t_anchor:.4g} us, F_Z = "
                        f"{f_anchor:.4g}; need t_p in [0.30, 0.45] us and F_Z "
                        "in [0.70, 0.90]")
    return problems


def check_qpt(out_dir, n_rows):
    """Process tomography: chi Hermitian, unit trace and positive
    semidefinite; f_qpt >= f_qpt_raw, |f_qpt - f_z| <= 0.08, and f_qpt within
    1e-6 below the closed-form maximum over a Z rotation."""
    problems = []
    _, rows = read_csv(out_dir)
    if len(rows) != n_rows:
        return [f"expected {n_rows} chi rows, got {len(rows)}"]
    chi_dict = read_json(out_dir, "manifest.json")["extra"]["chi"]
    chi = np.array(chi_dict["real"]) + 1j * np.array(chi_dict["imag"])
    if np.max(np.abs(chi - chi.conj().T)) > 1e-10:
        problems.append("chi is not Hermitian")
    if abs(np.trace(chi) - 1.0) > 1e-8:
        problems.append(f"trace(chi) = {np.trace(chi)} != 1")
    eig_min = float(np.min(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))))
    if eig_min < -1e-9:
        problems.append(f"chi is not positive semidefinite (min eig {eig_min:.3g})")
    if not np.allclose([r[1] for r in rows], np.abs(chi).ravel(),
                       rtol=0.0, atol=1e-15):
        problems.append("results.csv abs_chi disagrees with manifest chi")
    fid = read_json(out_dir, "fits.json")["process_fidelity"]
    if fid["f_qpt"] < fid["f_qpt_raw"]:
        problems.append("f_qpt < f_qpt_raw")
    if abs(fid["f_qpt"] - fid["f_z"]) > 0.08:
        problems.append(f"|f_qpt - f_z| = {abs(fid['f_qpt'] - fid['f_z']):.3g} > 0.08")
    c00, c33, c30 = float(chi[0, 0].real), float(chi[3, 3].real), float(chi[3, 0].imag)
    f_max = 0.5 * (c00 + c33) + math.hypot(0.5 * (c00 - c33), c30)
    gap = f_max - fid["f_qpt"]
    if not 0.0 <= gap <= 1e-6:
        problems.append(f"f_qpt is {gap:.3g} below the closed-form maximum "
                        f"{f_max!r} (allowed: 0 to 1e-6)")
    return problems


def check_parallel(out_dir, reference):
    """Pooled memory-protocol sweep: p_g in (0, 1), falling with delay, and
    equal bit for bit to a serial in-process computation `reference`, a list
    of (delay, p_g) pairs."""
    problems = []
    header, rows = read_csv(out_dir)
    if header[:2] != ["delay", "p_g"] or len(rows) != len(reference):
        return [f"expected {len(reference)} rows of delay,p_g; got {header}, "
                f"{len(rows)} rows"]
    pgs = np.array([r[1] for r in rows])
    if not np.all((pgs > 0) & (pgs < 1)):
        problems.append(f"p_g outside (0, 1): {pgs.tolist()}")
    if not _falling(pgs, strict=False):
        problems.append("p_g rises with delay")
    for row, (ref_delay, ref_p_g) in zip(rows, reference):
        delay, p_g = row[:2]
        if delay != ref_delay or p_g != ref_p_g:
            problems.append(f"delay {delay!r}: p_g {p_g!r} differs from the "
                            f"serial computation {ref_p_g!r}")
    return problems
