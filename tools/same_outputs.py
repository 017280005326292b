#!/usr/bin/env python3
"""Check that two source trees of qmemsim write the same outputs.

    python3 tools/same_outputs.py <tree-a> <tree-b>

For each tree, with PYTHONPATH=<tree>/src, writes the tree's sample config
(`qmemsim init-config`), runs the CLI runs of RUNS on it, replays the
REPLAY run from its manifest (`run --from-manifest`), validates the
VALIDATED runs' configs (`qmemsim validate`), runs the tree's demos and
runs the REFUSED inputs, each of which the CLI must refuse.  Then compares
the sample config file, every run's and the replay's results.csv,
fits.json and manifest.json, every validate's stdout, every demo's stdout,
and each refused input's exit status and stderr, byte for byte.  Prints
each output that differs and exits 1 on any difference, 0 when all are the
same; a command that fails, but for a refused input, exits 1 with its
stderr.  Standard library only; the outputs go to a
temporary directory that is removed afterwards.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, lines appended to the sample config, CLI run arguments)
RUNS = [
    *((experiment, "", ["--experiment", experiment]) for experiment in (
        "memory-protocol", "fock-decay", "memory-ramsey", "ringdown",
        "zfidelity-sweep", "bsb-check", "qpt")),
    ("qpt-shots", "", ["--experiment", "qpt", "--shots", "500"]),
    ("zfidelity-leakage", "",
     ["--experiment", "zfidelity-sweep", "--fit-leakage"]),
    ("ringdown-storage", "", ["--experiment", "ringdown", "--mode", "storage"]),
    ("memory-protocol-delays", "", ["--experiment", "memory-protocol",
                                    "--sweep", "delay=3:4.5:2", "--jobs", "2"]),
    ("ringdown-bare", "frame = bare\n", ["--experiment", "ringdown"]),
    ("memory-protocol-dt", "", ["--experiment", "memory-protocol",
                                "--sweep", "delay=3:4.5:2", "--dt", "1"]),
    ("fock-decay-sweep", "", ["--experiment", "fock-decay",
                              "--sweep", "delay=3:16:8"]),
    ("zfidelity-sweep-amps", "", ["--experiment", "zfidelity-sweep",
                                  "--sweep", "bsb_amp_ghz=4:6:3"]),
    ("memory-ramsey-sweep", "", ["--experiment", "memory-ramsey", "--sweep",
                                 "delay=0.25:15.25:16", "--detuning", "0.3"]),
    ("memory-protocol-angle", "", ["--experiment", "memory-protocol",
                                   "--sweep", "delay=3:4.5:2",
                                   "--prep-angle", "1.5"]),
    # runs in order, so it fits the fock-decay run's results
    ("fit", "", ["--experiment", "fit", "--fit-model", "exponential",
                 "--input", "fock-decay/results.csv"]),
]
OUTPUTS = ("results.csv", "fits.json", "manifest.json")
# the run replayed from its manifest, and the runs whose configs are
# validated: the sample config and the sample with frame = bare
REPLAY = "qpt-shots"
VALIDATED = ("qpt", "ringdown-bare")
# (name, lines appended to the sample config, command and its arguments
# after --config <name>.cfg): inputs the CLI refuses, so that a change to
# a usage error or a failure shows
REFUSED = [
    ("fock-decay-short", "", ["run", "--experiment", "fock-decay",
                              "--sweep", "delay=3:4:3"]),
    ("fock-decay-few", "", ["run", "--experiment", "fock-decay",
                            "--sweep", "delay=3:16:4"]),
    ("memory-ramsey-still", "", ["run", "--experiment", "memory-ramsey",
                                 "--detuning", "0"]),
    ("memory-ramsey-few", "", ["run", "--experiment", "memory-ramsey",
                               "--sweep", "delay=0.25:21:7"]),
    ("zfidelity-leakage-few", "", ["run", "--experiment", "zfidelity-sweep",
                                   "--sweep", "bsb_amp_ghz=4:6:3",
                                   "--fit-leakage"]),
    ("zfidelity-sweep-negative", "", ["run", "--experiment",
                                      "zfidelity-sweep",
                                      "--sweep", "bsb_amp_ghz=-1:1:3"]),
    ("bsb-check-zero", "", ["run", "--experiment", "bsb-check",
                            "--sweep", "omega_drv_ghz=0:2:3"]),
    ("fit-one-row", "", ["run", "--experiment", "fit",
                         "--input", "one-row.csv"]),
    ("validate-resonant", "omega_s = 6.25 GHz\n", ["validate"]),
]


def outputs(tree, work):
    """{name: bytes} of every output of tree, written under work."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def run(cmd):
        res = subprocess.run(cmd, env=env, cwd=work, capture_output=True)
        if res.returncode:
            sys.exit(f"failed in {tree}: {' '.join(cmd)}\n"
                     + res.stderr.decode(errors="replace"))
        return res.stdout

    cli = [sys.executable, "-m", "qmemsim.cli"]
    run(cli + ["init-config", "sample.cfg"])
    sample = (work / "sample.cfg").read_text()
    found = {"init-config sample.cfg": (work / "sample.cfg").read_bytes()}
    runs = [(name, ["--config", f"{name}.cfg", *args])
            for name, _, args in RUNS]
    runs.append((f"{REPLAY}-replay",
                 ["--from-manifest", f"{REPLAY}/manifest.json"]))
    for name, extra, _ in RUNS:
        (work / f"{name}.cfg").write_text(sample + extra)
    for name, args in runs:
        run(cli + ["run", "--out", name, *args])
        for out in OUTPUTS:
            found[f"{name}/{out}"] = (work / name / out).read_bytes()
    for name in VALIDATED:
        found[f"validate {name}.cfg stdout"] = run(
            cli + ["validate", "--config", f"{name}.cfg"])
    for demo in sorted((tree / "demos").glob("demo_*.py")):
        found[f"demos/{demo.name} stdout"] = run([sys.executable, str(demo)])
    (work / "one-row.csv").write_text("x,y\n0,1\n")
    for name, extra, (command, *args) in REFUSED:
        (work / f"{name}.cfg").write_text(sample + extra)
        out = ["--out", name] if command == "run" else []
        res = subprocess.run(cli + [command, "--config", f"{name}.cfg",
                                    *args, *out],
                             env=env, cwd=work, capture_output=True)
        found[f"refused {name}: status and stderr"] = (
            f"exit {res.returncode}\n".encode() + res.stderr)
    return found


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: same_outputs.py <tree-a> <tree-b>")
    with tempfile.TemporaryDirectory() as tmp:
        found = []
        for k, tree in enumerate(argv):
            work = Path(tmp, str(k))
            work.mkdir()
            found.append(outputs(Path(tree).resolve(), work))
    a, b = found
    names = sorted(a.keys() | b.keys())
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(f"differs: {name}")
        if name.startswith("refused "):     # short: show both sides
            for tree, side in zip(argv, (a, b)):
                text = side.get(name, b"").decode(errors="replace")
                print(f"  {tree}: {text.rstrip()!r}")
    demos = sum(name.startswith("demos/") for name in names)
    print(f"{len(names) - len(differ)} of {len(names)} outputs byte-identical "
          f"({len(RUNS)} runs, 1 replay, {len(VALIDATED)} validates, "
          f"init-config, {demos} demos, {len(REFUSED)} refused inputs)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
