"""Command-line entry point.

    qmemsim run --config sample.cfg --experiment fock-decay --out results/
    qmemsim validate --config sample.cfg

`run` executes one named experiment and writes results.csv, fits.json and
manifest.json into the output directory: run_experiment runs its row of
EXPERIMENTS, the one table of experiments, and returns one
ExperimentRecord, whose extra the manifest stores.  Reruns with identical
configuration and seed are byte-identical, and `run --from-manifest
<manifest.json>` reproduces a previous run at the pulse step it recorded
(run.dt_pulse_us), with the recorded arguments (RECORDED_ARGS) and the
replay's own --out and --jobs.  The manifest does not record the
integrator or the calibration probes' step, so a manifest written while
the ramps and probes stepped by RK4 (probes at 5e-4 us) replays at its
recorded pulse step under DOP853 (probes at pulses.PROBE_STEP): on the
sample config its results.csv values move by at most 1.4e-7
(memory-protocol) and 4.3e-6 (memory-ramsey), about the former probes'
own error, not bit for bit.
A ConfigError (the command line, the config or the manifest) or a
ParameterError (a value the library refuses) is a usage error: it exits
with status 2, before any calibration or simulation.  Any other QmemError
is a physics or fit failure and exits with status 1.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import warnings
from concurrent import futures
from dataclasses import astuple, fields

import numpy as np

from . import __version__, analysis, protocol
from .config import (load_run_settings, parse_run_settings, parse_value,
                     write_sample_config)
from .device import bsb_frequency, purcell_limit
from .errors import ConfigError, ParameterError, QmemError
from .lindblad import dressed_frequencies
from .qsys import DIM_CAP
from .units import GHZ, MHZ, TWO_PI

FIT_MODELS = {
    "exponential": analysis.fit_exponential,
    "decaying-cosine": analysis.fit_decaying_cosine,
    "lorentzian": analysis.fit_lorentzian,
    "leakage": analysis.fit_leakage,
}

# the run arguments a manifest records and a replay restores; --out and
# --jobs are the replay's own
RECORDED_ARGS = ("experiment", "sweep", "seed", "shots", "dt", "mode", "delay",
                 "prep_angle", "detuning", "fit_leakage", "fit_model", "input")


def _parse_sweep(text):
    """VAR=start:stop:steps -> (name, strictly increasing numpy grid)."""
    try:
        name, spec = text.split("=", 1)
        start, stop, steps = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep {text!r}: "
                          "expected VAR=start:stop:steps") from exc
    if grid.size < 1:
        raise ConfigError("sweep needs at least one point")
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"sweep {text!r} must strictly increase: "
                          "give start < stop")
    return name.strip(), grid


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# module-level workers so process pools can pickle them
def _protocol_point(args):
    """memory_sweep of one chunk (p, angles, delays, options, cal)."""
    return protocol.memory_sweep(*args)


def _pmap(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # a fork pool starts all its workers at once, however few the items
    workers = min(jobs, len(items))
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _options_from_args(dims, run_kw, args):
    """The run's ProtocolOptions; --jobs < 1 is a usage error."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    kw = dict(run_kw, seed=args.seed)
    if args.dt is not None:
        # same exact conversion as `dt_pulse = <dt> ns` in a config file
        kw["dt_pulse"] = parse_value("dt_pulse", f"{args.dt!r} ns")
    if args.shots is not None:
        kw["shots"] = args.shots
    return protocol.ProtocolOptions(dims=dims, **kw)


def _memory_protocol(r):
    """memory_sweep in r.jobs chunks that share one calibration."""
    var, grid = r.sweep or ("prep_angle", np.linspace(0, 2 * math.pi, 13))
    angles, delays = ((grid, r.delay) if var.startswith("prep_angle")
                      else (r.prep_angle, grid))
    # memory_sweep's own check, before the calibration
    angles, delays = protocol.sweep_points(angles, delays)
    cal = protocol.get_calibration(r.p, r.options)
    n = min(r.jobs, grid.size)
    chunks = [(r.p, a, d, r.options, cal) for a, d in
              zip(np.array_split(angles, n), np.array_split(delays, n))]
    pgs = np.concatenate(_pmap(_protocol_point, chunks, r.jobs))
    return protocol.ExperimentRecord(
        sweep_variable=var, observable="p_g", xs=grid, ys=pgs)


def _bsb_check(r):
    """effective_bsb_check's record, whose xs are the GHz grid bit for bit."""
    grid = r.sweep[1] if r.sweep else np.array([1.2e3, 2.0e3, 3.4e3]) / 1e3
    checks = protocol.effective_bsb_check(r.p, TWO_PI * 1e3 * grid, r.options)
    rates = np.array([c.measured_rate for c in checks])
    fits = {}
    if len(grid) >= 3:
        slope = float(np.polyfit(np.log(grid), np.log(rates), 1)[0])
        fits["drive_scaling"] = {"log_log_slope": slope}
    return protocol.ExperimentRecord(
        sweep_variable="omega_drv_ghz",
        observable="measured_rate_mhz", xs=grid, ys=rates / MHZ,
        columns={"predicted_rate_mhz":
                 np.array([c.predicted_rate for c in checks]) / MHZ,
                 "ratio": np.array([c.ratio for c in checks])},
        fits=fits)


def _fit(r):
    """The r.fit_model fit of the x,y rows of the CSV file r.input."""
    if not r.input:
        raise ConfigError("--experiment fit requires --input CSV")
    try:
        with warnings.catch_warnings():
            # a file without rows is reported below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(r.input, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --input {r.input!r}: {exc}") from exc
    if data.size == 0 or data.shape[1] < 2:
        raise ConfigError(f"--input {r.input!r} must hold x,y rows "
                          "under a header line")
    try:
        fit = FIT_MODELS[r.fit_model](data[:, 0], data[:, 1])
    except ParameterError as exc:
        raise ParameterError(f"--input {r.input!r}: {exc}") from exc
    return protocol.ExperimentRecord(
        sweep_variable="x", observable="y", xs=data[:, 0], ys=data[:, 1],
        fits={r.fit_model: fit})


# name: (runner, the --sweep variables it takes, the run flags it reads);
# a runner takes the run's arguments with p, options and the parsed sweep
EXPERIMENTS = {
    "memory-protocol": (_memory_protocol, ("prep_angle", "prep_angle_rad",
                        "delay", "delay_us"), ("jobs", "delay", "prep_angle")),
    "fock-decay": (lambda r: protocol.fock_decay_experiment(
        r.p, r.sweep and r.sweep[1], r.options), ("delay", "delay_us"), ()),
    "memory-ramsey": (lambda r: protocol.memory_ramsey_experiment(
        r.p, r.sweep and r.sweep[1], r.detuning, r.options),
        ("delay", "delay_us"), ("detuning",)),
    "ringdown": (lambda r: protocol.mode_ringdown_experiment(
        r.p, r.mode, r.options), (), ("mode",)),
    "zfidelity-sweep": (lambda r: protocol.z_fidelity_sweep(r.p, r.sweep and [
        protocol.WorkingPoint(TWO_PI * 1e3 * a) for a in r.sweep[1]],
        r.options, fit=r.fit_leakage), ("bsb_amp_ghz",), ("fit_leakage",)),
    "bsb-check": (_bsb_check, ("omega_drv_ghz",), ()),
    "qpt": (lambda r: protocol.qpt_experiment(r.p, r.options), (), ("shots",)),
    "fit": (_fit, (), ("fit_model", "input")),
}


def run_experiment(p, options, args, sweep):
    """The ExperimentRecord of args.experiment's runner in EXPERIMENTS."""
    r = argparse.Namespace(**{**vars(args), "p": p, "options": options,
                              "sweep": sweep})
    return EXPERIMENTS[args.experiment][0](r)


def _read_manifest(path):
    """The manifest at path; one that cannot be read, is not JSON or lacks
    a string config_text, a number run.dt_pulse_us or an object run.args
    is a ConfigError naming path and what it lacks."""
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read manifest {path!r}: {exc}") from exc
    top = manifest if isinstance(manifest, dict) else {}
    run = top.get("run") if isinstance(top.get("run"), dict) else {}
    lacking = [name for name, value, kind in (
        ("config_text", top.get("config_text"), str),
        ("run.dt_pulse_us", run.get("dt_pulse_us"), (int, float)),
        ("run.args", run.get("args"), dict)) if not isinstance(value, kind)]
    if lacking:
        raise ConfigError(f"manifest {path!r} lacks {', '.join(lacking)}")
    return manifest


def _replayed(args, recorded, path):
    """args with each value of recorded, a manifest's run.args, as the run
    parser reads its flag; one the parser refuses or reads as another value
    is a ConfigError naming path and its key."""
    args = argparse.Namespace(**vars(args))
    for key in sorted(recorded.keys() & RECORDED_ARGS):
        value, flag = recorded[key], "--" + key.replace("_", "-")
        argv = [] if value is None or value is False else [
            flag if value is True else f"{flag}={value}"]
        # argparse prints its usage and exits on a value it refuses
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.suppress(SystemExit):
            setattr(args, key, getattr(build_parser().parse_args(
                ["run", *argv]), key))
        if getattr(args, key) != value:
            raise ConfigError(f"manifest {path!r}: run.args.{key} = {value!r} "
                              f"is not a value of {flag}")
    return args


def cmd_run(args):
    defaults = vars(build_parser().parse_args(["run"]))
    if args.from_manifest:
        # the manifest holds the config too
        given = ["--" + key.replace("_", "-")
                 for key in ("config",) + RECORDED_ARGS
                 if getattr(args, key) != defaults[key]]
        if given:
            raise ConfigError(f"--from-manifest replays the recorded run "
                              f"arguments; drop {', '.join(given)}")
        manifest = _read_manifest(args.from_manifest)
        config_text = manifest["config_text"]
        p, dims, run_kw = parse_run_settings(config_text, args.from_manifest)
        # the step the run used, whatever the default is now
        run_kw["dt_pulse"] = manifest["run"]["dt_pulse_us"]
        args = _replayed(args, manifest["run"]["args"], args.from_manifest)
    else:
        if not args.config:
            raise ConfigError("--config is required (or --from-manifest)")
        if not os.path.exists(args.config):
            raise ConfigError(f"config file {args.config!r} not found")
        with open(args.config) as f:
            config_text = f.read()
        p, dims, run_kw = parse_run_settings(config_text, args.config)

    if args.experiment is None:
        raise ConfigError("--experiment is required")

    sweep = _parse_sweep(args.sweep) if args.sweep else None
    _, accepted, reads = EXPERIMENTS[args.experiment]
    if sweep and sweep[0] not in accepted:
        raise ConfigError(
            f"{args.experiment} cannot sweep {sweep[0]!r}; it takes "
            + (" or ".join(accepted) if accepted else "no --sweep"))
    # a flag some experiment reads, away from its default, must be read by
    # this one; the swept variable (the row's first without --sweep) stands
    # in for the flag it names, with or without its unit
    swept = sweep[0] if sweep else next(iter(accepted), "")
    some = {flag for _, _, flags in EXPERIMENTS.values() for flag in flags}
    unread = ["--" + key.replace("_", "-") for key in defaults
              if key in some and getattr(args, key) != defaults[key]
              and (key not in reads or swept.startswith(key))]
    if unread:
        raise ConfigError(f"{args.experiment} does not read "
                          + ", ".join(unread))
    options = _options_from_args(dims, run_kw, args)

    rec = run_experiment(p, options, args, sweep)

    os.makedirs(args.out, exist_ok=True)
    rec.to_csv(os.path.join(args.out, "results.csv"))
    _write_json(os.path.join(args.out, "fits.json"), rec.fit_summary())
    manifest = {
        "version": __version__,
        "experiment": args.experiment,
        "config_text": config_text,
        "run": {
            "dims": dims.as_tuple(),
            "frame": options.frame,
            "dt_pulse_us": options.dt_pulse,
            "args": {key: getattr(args, key) for key in RECORDED_ARGS},
        },
    }
    if rec.extra:
        manifest["extra"] = rec.extra
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


def cmd_validate(args):
    if not os.path.exists(args.config):
        raise ConfigError(f"config file {args.config!r} not found")
    try:
        p, dims, run_kw = load_run_settings(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1

    print("normalized device parameters (linear | angular):")
    rows = []
    for f, ang in zip(fields(p), astuple(p.angular())):
        value, unit = getattr(p, f.name), f.metadata["unit"]
        if unit == "us":    # t1_q, t2_q beside their rates gamma1, gamma2
            ang = f"gamma{f.name[1]} {1 / value:.6g} 1/us"
        elif unit:          # a decay rate kappa_* in 1/us
            ang = f"{ang:.6g} {'1/us' if f.name[0] == 'k' else 'rad/us'}"
        if unit:
            rows.append((f.name, f"{value:.9g} {unit}", ang))
    rows += [
        ("bsb carrier", f"{bsb_frequency(p) / 2 / GHZ:.9g} GHz",
         f"{bsb_frequency(p) / 2:.6g} rad/us"),
        ("purcell limit", f"{purcell_limit(p):.4g} us", ""),
    ]
    for name, lin, ang in rows:
        print(f"  {name:14s} {lin:>22s}   {ang}")
    print(f"  truncation     {dims.as_tuple()} (total {dims.total}, cap {DIM_CAP})")

    try:
        protocol.ProtocolOptions(dims=dims, **run_kw)
        # the dressed-state labeling every simulating run starts with
        dressed_frequencies(p, dims)
    except ParameterError as exc:
        print("breach:", exc, file=sys.stderr)
        return 1
    print("config valid")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qmemsim",
        description="Pulse-level simulator for a multimode-cavity transmon "
                    "quantum memory")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("--config", help="device config file")
    run.add_argument("--from-manifest", help="reproduce a previous run")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--sweep", help="VAR=start:stop:steps")
    run.add_argument("--out", default="qmemsim-out", help="output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the memory-protocol points")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--dt", type=float, default=None,
                     help="pulse step in ns (config key dt_pulse)")
    run.add_argument("--shots", type=int, default=None,
                     help="sampled tomography shots")
    run.add_argument("--mode", choices=("readout", "storage"), default="readout")
    run.add_argument("--delay", type=float, default=0.0, help="storage delay us")
    run.add_argument("--prep-angle", dest="prep_angle", type=float, default=0.0)
    run.add_argument("--detuning", type=float, default=0.35,
                     help="Ramsey software detuning MHz")
    run.add_argument("--fit-leakage", action="store_true",
                     help="fit the leakage model to the Z-fidelity sweep")
    run.add_argument("--fit-model", choices=sorted(FIT_MODELS), default="exponential")
    run.add_argument("--input", help="input CSV for --experiment fit")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)

    init = sub.add_parser("init-config", help="write the sample config")
    init.add_argument("path")
    init.set_defaults(func=lambda a: (write_sample_config(a.path), 0)[1])

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmemError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
