"""Self-test of the benchmark's correctness checks; no simulation.

    python3 perfbench/test_checks.py

Each checker must pass the real outputs recorded in perfbench/fixtures/ and
reject a tampered copy of them.
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")
SAMPLE_CFG = os.path.join(FIXTURES, "sample.cfg")


def _copy(workload, tmp):
    out = os.path.join(tmp, workload)
    shutil.copytree(os.path.join(FIXTURES, workload), out)
    return out


def _rewrite_csv(out, column, transform):
    header, rows = checks.read_csv(out)
    values = transform(np.array([r[column] for r in rows]))
    with open(os.path.join(out, "results.csv"), "w") as f:
        f.write(",".join(header) + "\n")
        for row, v in zip(rows, values):
            row[column] = v
            f.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _reference(out):
    with open(os.path.join(out, "reference.json")) as f:
        return [tuple(pair) for pair in json.load(f)]


def test_real_outputs_pass():
    assert checks.check_fock(os.path.join(FIXTURES, "fock-lifetime"),
                             SAMPLE_CFG, 8) == []
    assert checks.check_zfidelity(os.path.join(FIXTURES, "zfidelity-sweep"),
                                  SAMPLE_CFG, 7, anchor_row=3) == []
    assert checks.check_qpt(os.path.join(FIXTURES, "qpt"), 16) == []
    out = os.path.join(FIXTURES, "parallel-sweep")
    assert checks.check_parallel(out, _reference(out)) == []


def test_fock_rejects_lifetime_moved_by_20_percent(tmp_path):
    out = _copy("fock-lifetime", tmp_path)
    delays = np.array([r[0] for r in checks.read_csv(out)[1]])
    pgs = np.array([r[1] for r in checks.read_csv(out)[1]])
    a, t, _ = checks.fit_exp_decay(delays, pgs)
    _rewrite_csv(out, 1, lambda p: p + a * (np.exp(-delays / (1.2 * t))
                                            - np.exp(-delays / t)))
    tampered = np.array([r[1] for r in checks.read_csv(out)[1]])
    assert abs(checks.fit_exp_decay(delays, tampered)[1] / t - 1.2) < 0.02
    problems = checks.check_fock(out, SAMPLE_CFG, 8)
    assert any("not within 10%" in p for p in problems), problems
    assert any("disagrees" in p for p in problems), problems


def test_qpt_rejects_non_hermitian_chi(tmp_path):
    out = _copy("qpt", tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest["extra"]["chi"]["imag"][1][0] += 1e-3
    with open(path, "w") as f:
        json.dump(manifest, f)
    assert "chi is not Hermitian" in checks.check_qpt(out, 16)


def test_parallel_rejects_last_bit_change(tmp_path):
    out = _copy("parallel-sweep", tmp_path)
    _rewrite_csv(out, 1, lambda p: np.concatenate(
        [p[:1], [np.nextafter(p[1], 1.0)], p[2:]]))
    problems = checks.check_parallel(out, _reference(out))
    assert len(problems) == 1 and "differs from the serial" in problems[0], problems


def test_zfidelity_rejects_t_p_out_of_order(tmp_path):
    out = _copy("zfidelity-sweep", tmp_path)
    _rewrite_csv(out, 0, lambda t: np.concatenate([t[:2], t[2:4][::-1], t[4:]]))
    problems = checks.check_zfidelity(out, SAMPLE_CFG, 7, anchor_row=3)
    assert any("t_p not strictly rising" in p for p in problems), problems


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fn(tmp) if fn.__code__.co_argcount else fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
