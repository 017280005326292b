"""The benchmark's in-process side; run from the root of a source checkout.

    python3 perfbench/inproc.py trace <spans_dir> <qmemsim cli args...>
    python3 perfbench/inproc.py reference <config> <start:stop:steps>

`trace` runs `qmemsim.cli.main` with a span recorder wrapped around the
public functions of each layer, at every site that holds a reference to
them, and writes the spans as JSON into <spans_dir> when the run ends.
Forked `--jobs` workers write their own spans after each sweep point.

`reference` computes memory-protocol points serially in this one process,
with the options the CLI builds for the same config, and prints them as
JSON [[delay, p_g], ...].
"""

import functools
import inspect
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


class SpanRecorder:
    """Spans kept in memory: id, name, pid, start, end, parent id, attrs."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.main_pid = os.getpid()

    def wrap(self, name, fn, attrs=None):
        """`fn` recording a span per call; `attrs` maps the bound arguments
        to extra span fields."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": f"{os.getpid()}:{len(self.spans)}", "name": name,
                    "pid": os.getpid(),
                    "parent": self.stack[-1] if self.stack else None}
            if attrs is not None:
                span.update(attrs(signature.bind(*args, **kwargs).arguments))
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
        return traced

    def dump(self, path):
        """Write the spans this process recorded (not those inherited at
        fork) to `path`."""
        with open(path, "w") as f:
            json.dump([s for s in self.spans if s["pid"] == os.getpid()], f)


def _evolve_attrs(args):
    t0, t1 = args["t_span"]
    return {"sim_us": t1 - t0, "idle": not args["model"].active_terms(t0, t1)}


def _calibrate_attrs(args):
    return {"channel": args["channel"]}


def install(rec, spans_dir):
    """Wrap each layer's public functions wherever the CLI path reaches them:
    `protocol` holds `build_model`, `evolve` and `calibrate_pi_pulse` by
    name, `pulses` imports `build_model` and `evolve` from `lindblad` at call
    time, and `cli.FIT_MODELS` holds the fitters."""
    from qmemsim import analysis, cli, lindblad, protocol, pulses, tomography

    evolve = rec.wrap("lindblad.evolve", lindblad.evolve, _evolve_attrs)
    build_model = rec.wrap("lindblad.build_model", lindblad.build_model)
    calibrate = rec.wrap("pulses.calibrate_pi_pulse", pulses.calibrate_pi_pulse,
                         _calibrate_attrs)
    for module in (lindblad, protocol):
        module.evolve = evolve
        module.build_model = build_model
    for module in (pulses, protocol):
        module.calibrate_pi_pulse = calibrate

    for name in ("get_calibration", "simulate_sequence", "run_memory_protocol"):
        setattr(protocol, name, rec.wrap(f"protocol.{name}", getattr(protocol, name)))
    tomography.process_tomography = rec.wrap(
        "tomography.process_tomography", tomography.process_tomography)

    fitters = {}
    for name in ("fit_exponential", "fit_decaying_cosine", "fit_lorentzian",
                 "fit_leakage"):
        fn = getattr(analysis, name)
        fitters[fn] = rec.wrap("analysis.fit", fn)
        setattr(analysis, name, fitters[fn])
    cli.FIT_MODELS.update({key: fitters.get(fn, fn)
                           for key, fn in cli.FIT_MODELS.items()})

    cli.run_experiment = rec.wrap("cli.run_experiment", cli.run_experiment)

    point = rec.wrap("cli.point", cli._protocol_point)

    @functools.wraps(cli._protocol_point)
    def point_and_flush(args):
        try:
            return point(args)
        finally:
            if os.getpid() != rec.main_pid:
                # pool workers end without running exit handlers
                rec.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))

    cli._protocol_point = point_and_flush
    return cli


def trace(spans_dir, argv):
    rec = SpanRecorder()
    cli = install(rec, spans_dir)
    try:
        return cli.main(argv)
    finally:
        rec.dump(os.path.join(spans_dir, "spans-main.json"))


def reference(config, grid_spec):
    """The delay sweep `grid_spec` run point by point, as `qmemsim run
    --experiment memory-protocol --sweep delay=<grid_spec>` defines it."""
    import numpy as np
    from qmemsim import protocol
    from qmemsim.config import load_run_settings

    p, dims, run_kw = load_run_settings(config)
    options = protocol.ProtocolOptions(dims=dims, **run_kw)
    start, stop, steps = grid_spec.split(":")
    grid = np.linspace(float(start), float(stop), int(steps))
    return [[float(d), protocol.run_memory_protocol(p, 0.0, d, options)]
            for d in grid]


if __name__ == "__main__":
    if sys.argv[1:2] == ["trace"] and len(sys.argv) > 3:
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    if sys.argv[1:2] == ["reference"] and len(sys.argv) == 4:
        print(json.dumps(reference(sys.argv[2], sys.argv[3])))
        sys.exit(0)
    print(__doc__, file=sys.stderr)
    sys.exit(2)
