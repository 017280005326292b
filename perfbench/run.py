"""Benchmark of the paper's experiments through the qmemsim CLI.

    python3 perfbench/run.py --workload fock-lifetime --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each round launches a fresh
`python -m qmemsim.cli run` process on the shipped sample config, as a CLI
user does, and checks its outputs (perfbench/checks.py).  Rounds repeat
until --seconds have passed; the set-up probes count towards that time.

--trace 0 reports the end-to-end metrics: the wall time, CPU time and peak
RSS of the CLI process tree (from os.wait4), and setup_s, the median wall
time of a fresh `qmemsim validate` of the same config.  --trace 1 runs the
CLI under perfbench/inproc.py instead and reports per-layer metrics from
its spans.  The last line of stdout is the JSON result; the full report,
with the environment block, goes to .perfbench-out/<workload>/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

SAMPLE_CFG = os.path.join("src", "qmemsim", "data", "sample.cfg")
PACKAGE_DIR = os.path.join("src", "qmemsim")
OUT_ROOT = ".perfbench-out"
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # one run must end within 180 s

PARALLEL_GRID = "3:4.5:2"   # 3 and 4.5 us from the Fock grid: a point per worker

WORKLOADS = {
    "fock-lifetime": {
        "args": ["--experiment", "fock-decay"],
        "rows": 8,
        "check": lambda out, rows, ref: checks.check_fock(out, SAMPLE_CFG, rows),
    },
    "zfidelity-sweep": {
        "args": ["--experiment", "zfidelity-sweep"],
        "rows": 7,
        # row 3 by protocol length is the 6 GHz anchor of acceptance
        # criterion 8; the 7 GHz row also has t_p in [0.30, 0.45] us
        "check": lambda out, rows, ref: checks.check_zfidelity(
            out, SAMPLE_CFG, rows, anchor_row=3),
    },
    "qpt": {
        "args": ["--experiment", "qpt"],
        "rows": 16,
        "check": lambda out, rows, ref: checks.check_qpt(out, rows),
    },
    "parallel-sweep": {
        "args": ["--experiment", "memory-protocol",
                 "--sweep", f"delay={PARALLEL_GRID}", "--jobs", "2"],
        "rows": 2,
        "check": lambda out, rows, ref: checks.check_parallel(out, ref),
    },
}


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def child_env():
    """The caller's environment, unchanged apart from PYTHONPATH=src."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def launch(cmd, log_path, time_limit):
    """Run `cmd` to its end; returns (exit code, wall s, cpu s, peak RSS MB)
    of the process and every child it waited for.  The process group is
    killed once `time_limit` seconds have passed."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(time_limit, 1.0), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def cli_command(seed, out_dir, workload):
    return ["run", "--config", SAMPLE_CFG, "--out", out_dir,
            "--seed", str(seed)] + WORKLOADS[workload]["args"]


def parallel_reference(work_dir, deadline):
    """Serial in-process p_g of the parallel-sweep points, computed once per
    source tree and kept under .perfbench-out (untimed)."""
    digest = hashlib.sha256(PARALLEL_GRID.encode())
    for root, dirs, files in sorted(os.walk(PACKAGE_DIR)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    path = os.path.join(OUT_ROOT, f"reference-{digest.hexdigest()[:16]}.json")
    if not os.path.exists(path):
        result = subprocess.run(
            [sys.executable, os.path.join("perfbench", "inproc.py"),
             "reference", SAMPLE_CFG, PARALLEL_GRID],
            env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0))
        if result.returncode != 0:
            raise RuntimeError(f"serial reference failed:\n{result.stderr}")
        with open(path + ".tmp", "w") as f:
            f.write(result.stdout)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return [tuple(pair) for pair in json.load(f)]


def run_round(workload, seed, work_dir, traced, reference, deadline):
    """One CLI process of `workload`, checked.  Returns a dict with rc, wall,
    cpu, rss, problems and, when traced, the spans."""
    out_dir = os.path.join(work_dir, "out")
    spans_dir = os.path.join(work_dir, "spans")
    for d in (out_dir, spans_dir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(spans_dir)
    args = cli_command(seed, out_dir, workload)
    if traced:
        cmd = [sys.executable, os.path.join("perfbench", "inproc.py"),
               "trace", spans_dir] + args
    else:
        cmd = [sys.executable, "-m", "qmemsim.cli"] + args
    rc, wall, cpu, rss = launch(cmd, os.path.join(work_dir, "cli.log"),
                                deadline - time.perf_counter())
    out = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
           "problems": []}
    if rc != 0:
        with open(os.path.join(work_dir, "cli.log")) as f:
            out["problems"].append(f"exit code {rc}: {f.read()[-2000:]}")
        return out
    try:
        wl = WORKLOADS[workload]
        out["problems"] = wl["check"](out_dir, wl["rows"], reference)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        out["problems"].append(f"unreadable output: {exc!r}")
    if traced:
        spans = []
        for name in sorted(os.listdir(spans_dir)):
            if name.endswith(".json"):
                with open(os.path.join(spans_dir, name)) as f:
                    spans.extend(json.load(f))
        out["spans"] = spans
    return out


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, process_wall):
    """Per-layer metrics of one traced CLI process.  Sums run over every
    process of the tree.  cli.worker.* describe the processes that simulate
    points: the pool workers under --jobs N > 1, else the CLI process."""
    spans = [s for s in spans if "end" in s]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name, pred=lambda s: True):
        return sum((dur(s) for s in named[name] if pred(s)), 0.0)

    def has_ancestor(s, name):
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    run = named["cli.run_experiment"][0]
    run_s = dur(run)
    m = {"cli.run_experiment_s": run_s,
         "cli.outside_experiment_s": process_wall - run_s}

    points = [dur(s) for s in named["protocol.run_memory_protocol"]]
    calibration = defaultdict(float)
    for s in named["protocol.get_calibration"]:
        calibration[s["pid"]] += dur(s)
    m["cli.worker.run_memory_protocol_s"] = (
        statistics.median(points) if points else 0.0)
    m["cli.worker.calibration_s"] = (
        statistics.median(calibration.values()) if calibration else 0.0)

    n_get = len(named["protocol.get_calibration"])
    misses = sum(1 for s in named["pulses.calibrate_pi_pulse"]
                 if by_id.get(s["parent"], {}).get("name")
                 == "protocol.get_calibration")
    m["protocol.get_calibration_s"] = total("protocol.get_calibration")
    m["protocol.calibration_hit_ratio"] = (
        1.0 - misses / (2 * n_get) if n_get else 0.0)
    m["protocol.simulate_sequence_s"] = total("protocol.simulate_sequence")
    m["protocol.simulate_sequence.calls"] = len(named["protocol.simulate_sequence"])

    for kind, is_bsb in (("qubit", False), ("bsb", True)):
        m[f"pulses.calibrate_pi_pulse.{kind}_s"] = total(
            "pulses.calibrate_pi_pulse", lambda s: (s["channel"] == "bsb") == is_bsb)
    m["pulses.calibrate_pi_pulse.probes"] = sum(
        1 for s in named["lindblad.evolve"]
        if has_ancestor(s, "pulses.calibrate_pi_pulse"))

    m["lindblad.build_model_s"] = total("lindblad.build_model")
    m["lindblad.build_model.calls"] = len(named["lindblad.build_model"])
    for kind, idle in (("driven", False), ("idle", True)):
        windows = [s for s in named["lindblad.evolve"] if s["idle"] == idle]
        busy = sum((dur(s) for s in windows), 0.0)
        sim_us = sum(s["sim_us"] for s in windows)
        m[f"lindblad.evolve.{kind}_s"] = busy
        m[f"lindblad.evolve.{kind}.calls"] = len(windows)
        m[f"lindblad.evolve.{kind}.sim_us"] = sim_us
        m[f"lindblad.evolve.{kind}.sim_us_per_s"] = sim_us / busy if busy else 0.0

    m["analysis.fit_s"] = total("analysis.fit")
    m["tomography.process_tomography.self_s"] = sum(
        (dur(s) - sum(dur(c) for c in children[s["id"]])
         for s in named["tomography.process_tomography"]), 0.0)

    leaves = [(max(s["start"], run["start"]), min(s["end"], run["end"]))
              for s in spans if not children[s["id"]]]
    m["trace.unattributed_s"] = run_s - _union_length(
        [(lo, hi) for lo, hi in leaves if hi > lo])
    return m


UNITS = ((".sim_us_per_s", "us/s"), (".sim_us", "us"), ("_s", "s"),
         (".calls", "count"), (".probes", "count"), ("_ratio", "ratio"),
         ("_mb", "MB"))


def unit_of(name):
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def untraced_walls(work_dir, add=()):
    """Untraced CLI wall times recorded in this checkout (for the tracing
    overhead); appends `add`."""
    path = os.path.join(work_dir, "untraced_wall_s.json")
    walls = []
    if os.path.exists(path):
        with open(path) as f:
            walls = json.load(f)
    if add:
        walls += list(add)
        with open(path, "w") as f:
            json.dump(walls, f)
    return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    missing = [p for p in (SAMPLE_CFG, os.path.join(PACKAGE_DIR, "cli.py"))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a qmemsim checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT_ROOT, args.workload)
    os.makedirs(work_dir, exist_ok=True)
    env = environment(args.seed)
    print(json.dumps({"environment": env}), flush=True)
    reference = (parallel_reference(work_dir, deadline)
                 if args.workload == "parallel-sweep" else None)
    traced = bool(args.trace)

    t_measure = time.perf_counter()
    setup = []
    if not traced:
        for _ in range(SETUP_REPEATS):
            rc, wall, _, _ = launch(
                [sys.executable, "-m", "qmemsim.cli", "validate",
                 "--config", SAMPLE_CFG],
                os.path.join(work_dir, "validate.log"),
                deadline - time.perf_counter())
            if rc != 0:
                print(f"error: qmemsim validate exited with {rc}",
                      file=sys.stderr)
                return 1
            setup.append(wall)
    rounds = []
    if traced and not untraced_walls(work_dir):
        # the tracing overhead needs an untraced wall time of this checkout
        rounds.append(run_round(args.workload, args.seed, work_dir, False,
                                reference, deadline))
    measured = []
    while not measured or time.perf_counter() - t_measure < args.seconds:
        measured.append(run_round(args.workload, args.seed, work_dir, traced,
                                  reference, deadline))
    rounds += measured

    for p in (p for r in rounds for p in r["problems"]):
        print(f"check failed: {p}", file=sys.stderr)
    crashed = [r for r in rounds if r["rc"] != 0]
    checked_bad = [r for r in rounds if r["rc"] == 0 and r["problems"]]
    untraced_walls(work_dir, [r["wall_s"] for r in rounds
                              if "spans" not in r and not r["problems"]])
    good = [r for r in measured if not r["problems"]]

    metrics = {}
    if good and not traced:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in good)
        metrics["setup_s"] = statistics.median(setup)
    elif good:
        per_round = [layer_metrics(r["spans"], r["wall_s"]) for r in good]
        metrics = {k: statistics.median(m[k] for m in per_round)
                   for k in per_round[0]}
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in good) - statistics.median(untraced_walls(work_dir))
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}

    rows = WORKLOADS[args.workload]["rows"]
    result = {"correct": not checked_bad,
              "attempted": rows * len(rounds),
              "failed": rows * (len(crashed) + len(checked_bad)),
              "metrics": metrics}
    report = {"workload": args.workload, "trace": args.trace,
              "environment": env, "cli": WORKLOADS[args.workload]["args"],
              "rounds": [{k: v for k, v in r.items() if k != "spans"}
                         for r in rounds],
              "setup_s": setup, "result": result}
    with open(os.path.join(work_dir, f"report-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
