"""Command-line entry point.

    qmemsim run --config sample.cfg --experiment fock-decay --out results/
    qmemsim validate --config sample.cfg

`run` executes one named experiment and writes results.csv, fits.json and
manifest.json into the output directory.  Reruns with identical
configuration and seed are byte-identical, and `run --from-manifest
<manifest.json>` reproduces a previous run at the pulse step it recorded
(run.dt_pulse_us).  The manifest does not record the calibration probes'
step, so a manifest written while the probes stepped the qubit at 1e-4 us
(before pulses.PROBE_STEP) reproduces to about 2e-8, not bit for bit.
Physics or fit failures exit with status 1, usage errors (unknown
experiment, missing config, a manifest that cannot be read, is not JSON
or lacks config_text, run.dt_pulse_us or run.args, a truncation size
below its minimum or a total dimension above DIM_CAP, a sweep that does
not strictly increase or of a variable the experiment does not take, an
unknown frame, a dt_pulse <= 0, shots or jobs < 1, a fit input that
cannot be read, holds no rows or a value that is not finite, or whose x
values do not strictly increase) with 2, before any simulation.
"""

import argparse
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, analysis, protocol, tomography
from .config import (load_run_settings, parse_run_settings, parse_value,
                     write_sample_config)
from .device import bsb_frequency, purcell_limit
from .errors import ConfigError, ParameterError, QmemError
from .qsys import DIM_CAP
from .units import GHZ, MHZ, TWO_PI

EXPERIMENTS = ("memory-protocol", "fock-decay", "memory-ramsey", "ringdown",
               "zfidelity-sweep", "bsb-check", "qpt", "fit")

# the --sweep variables each experiment takes; the others take no --sweep
SWEEP_VARIABLES = {
    "memory-protocol": ("prep_angle", "prep_angle_rad", "delay", "delay_us"),
    "fock-decay": ("delay", "delay_us"),
    "memory-ramsey": ("delay", "delay_us"),
    "zfidelity-sweep": ("bsb_amp_ghz",),
    "bsb-check": ("omega_drv_ghz",),
}

FIT_MODELS = {
    "exponential": analysis.fit_exponential,
    "decaying-cosine": analysis.fit_decaying_cosine,
    "lorentzian": analysis.fit_lorentzian,
    "leakage": analysis.fit_leakage,
}


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
    if np.any(np.diff(grid) <= 0):
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
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _options_from_args(dims, run_kw, args):
    """The run's ProtocolOptions; a value it rejects, or --jobs < 1, is a
    usage error."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    kw = dict(run_kw, seed=args.seed)
    if args.dt is not None:
        # same exact conversion as `dt_pulse = <dt> ns` in a config file
        kw["dt_pulse"] = parse_value("dt_pulse", f"{args.dt!r} ns")
    if args.shots is not None:
        kw["shots"] = args.shots
    try:
        return protocol.ProtocolOptions(dims=dims, **kw)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def run_experiment(p, options, args, sweep):
    """Dispatch one experiment; returns (ExperimentRecord, manifest extra)."""
    name = args.experiment

    if name == "memory-protocol":
        var, grid = sweep if sweep else ("prep_angle", np.linspace(0, 2 * math.pi, 13))
        if var in ("prep_angle", "prep_angle_rad"):
            angles, delays = grid, np.full(grid.size, args.delay)
        else:
            angles, delays = np.full(grid.size, args.prep_angle), grid
        # calibrate once here, for every chunk
        cal = protocol.get_calibration(p, options)
        n = min(args.jobs, grid.size)
        chunks = [(p, a, d, options, cal) for a, d in
                  zip(np.array_split(angles, n), np.array_split(delays, n))]
        pgs = np.concatenate(_pmap(_protocol_point, chunks, args.jobs))
        return protocol.ExperimentRecord(
            sweep_variable=var, observable="p_g", xs=grid, ys=pgs), {}

    if name == "fock-decay":
        delays = sweep[1] if sweep else None
        return protocol.fock_decay_experiment(p, delays, options), {}

    if name == "memory-ramsey":
        delays = sweep[1] if sweep else None
        return protocol.memory_ramsey_experiment(p, delays, args.detuning,
                                                 options), {}

    if name == "ringdown":
        return (protocol.mode_ringdown_experiment(p, args.mode, options),
                {"mode": args.mode})

    if name == "zfidelity-sweep":
        wps = None
        if sweep:
            wps = [protocol.WorkingPoint(TWO_PI * 1e3 * a) for a in sweep[1]]
        return protocol.z_fidelity_sweep(p, wps, options, fit=args.fit_leakage), {}

    if name == "bsb-check":
        grid = sweep[1] if sweep else np.array([1.2e3, 2.0e3, 3.4e3]) / 1e3
        checks = protocol.effective_bsb_check(p, TWO_PI * 1e3 * grid, options)
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
            fits=fits), {}

    if name == "qpt":
        out = protocol.qpt_experiment(p, options)
        chi = out["chi"]
        fits = {"process_fidelity": {
            key: out[key] for key in ("f_qpt", "f_qpt_raw", "z_rotation_rad",
                                      "f_z", "t_p_us")}}
        return protocol.ExperimentRecord(
            sweep_variable="chi_index", observable="abs_chi",
            # scalar abs: numpy's vectorized complex abs differs in the last bit
            xs=np.arange(16), ys=[abs(c) for c in chi.entries.ravel()],
            fits=fits), {"chi": tomography.chi_export_dict(chi)}

    if name == "fit":
        if not args.input:
            raise ConfigError("--experiment fit requires --input CSV")
        try:
            with warnings.catch_warnings():
                # a file without rows is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(args.input, delimiter=",", skiprows=1,
                                  ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --input {args.input!r}: {exc}") \
                from exc
        if data.size == 0 or data.shape[1] < 2:
            raise ConfigError(f"--input {args.input!r} must hold x,y rows "
                              "under a header line")
        if not np.all(np.isfinite(data[:, :2])):
            raise ConfigError(f"--input {args.input!r}: every x and y value "
                              "must be finite")
        if np.any(np.diff(data[:, 0]) <= 0):
            raise ConfigError(f"--input {args.input!r}: the x values must "
                              "strictly increase")
        fit = FIT_MODELS[args.fit_model](data[:, 0], data[:, 1])
        return protocol.ExperimentRecord(
            sweep_variable="x", observable="y", xs=data[:, 0], ys=data[:, 1],
            fits={args.fit_model: fit}), {}

    raise ConfigError(f"unknown experiment {name!r}")


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


def cmd_run(args):
    if args.from_manifest:
        manifest = _read_manifest(args.from_manifest)
        config_text = manifest["config_text"]
        p, dims, run_kw = parse_run_settings(config_text, args.from_manifest)
        # the step the run used, whatever the default is now
        run_kw["dt_pulse"] = manifest["run"]["dt_pulse_us"]
        ns = argparse.Namespace(**vars(args))
        for key, val in manifest["run"]["args"].items():
            setattr(ns, key, val)
        args = ns
    else:
        if not args.config:
            print("error: --config is required (or --from-manifest)",
                  file=sys.stderr)
            return 2
        if not os.path.exists(args.config):
            print(f"error: config file {args.config!r} not found", file=sys.stderr)
            return 2
        with open(args.config) as f:
            config_text = f.read()
        p, dims, run_kw = parse_run_settings(config_text, args.config)

    if args.experiment is None:
        print("error: --experiment is required", file=sys.stderr)
        return 2

    sweep = _parse_sweep(args.sweep) if args.sweep else None
    accepted = SWEEP_VARIABLES.get(args.experiment, ())
    if sweep and sweep[0] not in accepted:
        raise ConfigError(
            f"{args.experiment} cannot sweep {sweep[0]!r}; it takes "
            + (" or ".join(accepted) if accepted else "no --sweep"))
    options = _options_from_args(dims, run_kw, args)

    rec, extra = run_experiment(p, options, args, sweep)

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
            "args": {
                "experiment": args.experiment,
                "sweep": args.sweep,
                "seed": args.seed,
                "shots": args.shots,
                "dt": args.dt,
                "mode": args.mode,
                "delay": args.delay,
                "prep_angle": args.prep_angle,
                "detuning": args.detuning,
                "fit_leakage": args.fit_leakage,
                "fit_model": args.fit_model,
                "input": args.input,
            },
        },
    }
    if extra:
        manifest["extra"] = extra
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


def cmd_validate(args):
    if not args.config or not os.path.exists(args.config or ""):
        print(f"error: config file {args.config!r} not found", file=sys.stderr)
        return 2
    breaches = []
    try:
        p, dims, run_kw = load_run_settings(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1

    a = p.angular()
    print("normalized device parameters (linear | angular):")
    rows = [
        ("omega_ro", f"{p.omega_ro:.9g} GHz", f"{a.w_ro:.6g} rad/us"),
        ("omega_s", f"{p.omega_s:.9g} GHz", f"{a.w_s:.6g} rad/us"),
        ("omega_q", f"{p.omega_q:.9g} GHz", f"{a.w_q:.6g} rad/us"),
        ("alpha", f"{p.alpha:.9g} MHz", f"{a.alpha:.6g} rad/us"),
        ("g", f"{p.g:.9g} MHz", f"{a.g:.6g} rad/us"),
        ("g_102", f"{p.g_102:.9g} MHz", f"{a.g_102:.6g} rad/us"),
        ("chi_ro", f"{p.chi_ro:.9g} MHz", f"{a.chi_ro:.6g} rad/us"),
        ("chi_s", f"{p.chi_s:.9g} MHz", f"{a.chi_s:.6g} rad/us"),
        ("kappa_ro", f"{p.kappa_ro:.9g} MHz", f"{a.k_ro:.6g} 1/us"),
        ("kappa_s", f"{p.kappa_s:.9g} kHz", f"{a.k_s:.6g} 1/us"),
        ("t1_q", f"{p.t1_q:.9g} us", f"gamma1 {1 / p.t1_q:.6g} 1/us"),
        ("t2_q", f"{p.t2_q:.9g} us", f"gamma2 {1 / p.t2_q:.6g} 1/us"),
        ("bsb carrier", f"{bsb_frequency(p) / 2 / GHZ:.9g} GHz",
         f"{bsb_frequency(p) / 2:.6g} rad/us"),
        ("purcell limit", f"{purcell_limit(p):.4g} us", ""),
    ]
    for name, lin, ang in rows:
        print(f"  {name:14s} {lin:>22s}   {ang}")
    print(f"  truncation     {dims.as_tuple()} (total {dims.total}, cap {DIM_CAP})")

    try:
        protocol.ProtocolOptions(dims=dims, **run_kw)
    except ParameterError as exc:
        breaches.append(str(exc))

    if breaches:
        for b in breaches:
            print("breach:", b, file=sys.stderr)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmemError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
