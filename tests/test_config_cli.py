import dataclasses
import importlib.resources
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qmemsim import config
from qmemsim.device import DeviceParams
from qmemsim.errors import ConfigError

CLI = [sys.executable, "-m", "qmemsim.cli"]


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, env=env)


def sample_text():
    return (importlib.resources.files("qmemsim") / "data" / "sample.cfg").read_text()


@pytest.fixture()
def sample_cfg(tmp_path):
    path = tmp_path / "sample.cfg"
    config.write_sample_config(path)
    return str(path)


def test_parse_sample_config():
    device_kw, run_kw = config.parse_config_text(sample_text())
    p = DeviceParams(**device_kw)
    assert p.omega_s == pytest.approx(8.707546)
    assert p.kappa_s == pytest.approx(24.7)
    assert p.t1_q == pytest.approx(1.32)
    assert run_kw == {}


def test_parse_unit_conversions():
    device_kw, run_kw = config.parse_config_text(
        "omega_q = 6234 MHz\nkappa_s = 0.0247 MHz\nt1_q = 1320 ns\n"
        "dt_pulse = 0.1 ns\nframe = bare\nn_storage = 4\n")
    assert device_kw["omega_q"] == pytest.approx(6.234)
    assert device_kw["kappa_s"] == pytest.approx(24.7)
    assert device_kw["t1_q"] == pytest.approx(1.32)
    assert run_kw["dt_pulse"] == pytest.approx(1e-4)
    assert run_kw["frame"] == "bare"


def test_parse_rejects_unitless_frequency():
    with pytest.raises(ConfigError):
        config.parse_config_text("omega_q = 6.234\n")
    with pytest.raises(ConfigError):
        config.parse_config_text("t1_q = 1.32\n")


def test_parse_rejects_unknown_key_and_unit():
    with pytest.raises(ConfigError):
        config.parse_config_text("bogus = 1 GHz\n")
    with pytest.raises(ConfigError):
        config.parse_config_text("omega_q = 6.234 THz\n")
    with pytest.raises(ConfigError):
        config.parse_config_text("q0_ro = 1.9e6 GHz\n")


def test_parse_rejects_unparseable_number():
    for text in ("omega_q = abc GHz\n", "q0_ro = abc\n", "dt_pulse = snan ns\n"):
        with pytest.raises(ConfigError, match="cannot parse number"):
            config.parse_config_text(text)


@pytest.mark.parametrize("line", ["omega_q = nan GHz", "kappa_s = inf kHz",
                                  "t1_q = -inf us", "p_e = NaN", "q0_ro = 1e400"])
def test_parse_rejects_non_finite_number(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"^{key}: value must be finite"):
        config.parse_config_text(line + "\n")


def test_truncation_sizes_must_be_integers(tmp_path):
    path = tmp_path / "dims.cfg"
    path.write_text("n_storage = 4.7\n")
    with pytest.raises(ConfigError, match="n_storage"):
        config.load_run_settings(path)
    for text in ("n_storage = 4\n", "n_storage = 4.0\n"):
        path.write_text(text)
        _, dims, run_kw = config.load_run_settings(path)
        assert dims.n_storage == 4
        assert run_kw == {}


@pytest.mark.parametrize("text, message", [
    ("n_transmon = 1\n", "need >= 2 transmon levels"),
    ("n_storage = 0\n", "need >= 2 transmon levels"),
    ("n_storage = 100\nn_readout = 10\n", "total dimension 3000 outside"),
])
def test_bad_truncation_size_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                              text, message):
    # a truncation the model cannot take is bad input in the config, as a
    # bad device value is: status 2 naming the file, before any simulation
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the truncation")

    monkeypatch.setattr(protocol, "get_calibration", simulate)
    cfg = tmp_path / "dims.cfg"
    cfg.write_text(sample_text() + text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--experiment", "qpt",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")
    assert not out.exists()
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {cfg}: {message}")


def test_sample_configs_parse_to_default_params(sample_cfg):
    for text in (open(sample_cfg).read(), sample_text()):
        device_kw, run_kw = config.parse_config_text(text)
        assert DeviceParams(**device_kw) == DeviceParams()
        assert run_kw == {}


@pytest.mark.parametrize("key, spelling, storage_spelling", [
    ("omega_q", "6234 MHz", "6.234 GHz"),
    ("kappa_s", "0.0247 MHz", "24.7 kHz"),
    ("t1_q", "1320 ns", "1.32 us"),
    ("dt_pulse", "0.07 ns", "0.00007 us"),
])
def test_cross_unit_spelling_is_exact(key, spelling, storage_spelling):
    assert config.parse_value(key, spelling) == config.parse_value(key, storage_spelling)


def test_dt_flag_matches_config_dt_pulse(tmp_path, sample_cfg):
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x},{np.exp(-x / 3.0):.17g}\n"
                                       for x in range(8)))
    out = tmp_path / "dt"
    res = run_cli("run", "--config", sample_cfg, "--experiment", "fit",
                  "--input", str(data), "--dt", "0.07", "--out", str(out))
    assert res.returncode == 0, res.stderr
    run = json.loads((out / "manifest.json").read_text())["run"]
    assert run["dt_pulse_us"] == config.parse_value("dt_pulse", "0.07 ns")
    assert run["args"]["dt"] == 0.07


def test_device_keys_are_the_device_fields_in_order():
    # each key is stored in the unit its field declares, and renders in it
    fields = dataclasses.fields(DeviceParams)
    assert list(config._DEVICE_KEYS) == [f.name for f in fields]
    assert [unit for _, unit in config._DEVICE_KEYS.values()] == [
        f.metadata["unit"] for f in fields]
    lines = config.device_params_to_config(DeviceParams()).splitlines()
    assert [line.split()[0] for line in lines] == [f.name for f in fields]
    assert lines[8] == "kappa_s  = 24.7 kHz" and lines[12] == "p_e      = 0.0027"


def test_config_render_round_trip():
    p = DeviceParams(omega_q=6.1, chi_s=0.9)
    text = config.device_params_to_config(p)
    device_kw, _ = config.parse_config_text(text)
    assert DeviceParams(**device_kw) == p


def test_validate_accepts_sample(sample_cfg):
    res = run_cli("validate", "--config", sample_cfg)
    assert res.returncode == 0
    assert "8.707546" in res.stdout
    assert "rad/us" in res.stdout


def test_validate_rejects_t2_bound(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("t1_q = 1.0 us\nt2_q = 3.0 us\n")
    res = run_cli("validate", "--config", str(path))
    assert res.returncode == 1
    assert "t2" in res.stderr.lower()


def test_validate_applies_the_model_t2_bound(tmp_path, capsys):
    # validate accepts a t2_q exactly when the model build does: up to
    # 2*t1_q to one part in 1e12, with no absolute slack beyond it
    from qmemsim import cli

    cfg = tmp_path / "t2.cfg"
    cfg.write_text(sample_text().replace("2.49 us", "2.6400000005 us"))
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert "t2" in capsys.readouterr().err
    cfg.write_text(sample_text().replace("2.49 us", "2.64 us"))
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert "config valid" in capsys.readouterr().out


def test_validate_rejects_non_finite_values(tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("omega_q = nan GHz\nkappa_s = inf kHz\nt1_q = nan us\n")
    res = run_cli("validate", "--config", str(path))
    assert res.returncode == 1
    assert "omega_q" in res.stderr
    assert "config valid" not in res.stdout


def test_validate_runs_the_dressed_state_labeling(tmp_path, capsys):
    # it read "config valid" on a config every run of which fails to
    # label the dressed states
    from qmemsim import cli

    cfg = tmp_path / "resonant.cfg"
    cfg.write_text(sample_text().replace("8.707546 GHz", "6.25 GHz"))
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "breach: dressed-state labeling is ambiguous")
    assert "config valid" not in captured.out


def test_validate_shows_the_purcell_limit_as_na_near_resonance(tmp_path):
    # it printed the table's header, then refused a readout 842 rad/us
    # from the qubit that no run refuses, for the Purcell bound no run uses
    cfg = tmp_path / "near.cfg"
    cfg.write_text(sample_text() + "omega_ro = 6.1 GHz\n")
    res = run_cli("validate", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    rows = res.stdout.splitlines()
    assert rows[0] == "normalized device parameters (linear | angular):"
    assert [row.split()[0] for row in rows[1:-1]] == [
        f.name for f in dataclasses.fields(DeviceParams) if f.metadata["unit"]
    ] + ["bsb", "purcell", "truncation"]
    assert rows[1].split()[:3] == ["omega_ro", "6.1", "GHz"]
    assert rows[-3].split()[:3] == ["purcell", "limit", "n/a"]
    assert rows[-3].endswith(
        "Purcell formula invalid near resonance: |w_q - w_ro| = 842 rad/us "
        "< 5.0 g = 1.67e+03 rad/us")
    assert rows[-1] == "config valid"


def test_validate_accepts_any_step_for_bare_frame(tmp_path):
    # dt_pulse is the largest step a run allows; the runner steps each
    # window at no more than its model's max_step, so a dt_pulse above the
    # bare frame's bound (0.01 ns) is no breach, and neither is one below
    path = tmp_path / "bare.cfg"
    for dt in ("1 ns", "0.02 ns"):
        path.write_text(f"frame = bare\ndt_pulse = {dt}\n")
        res = run_cli("validate", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert "config valid" in res.stdout


@pytest.mark.parametrize("flags, name", [
    (["--experiment", "memory-protocol", "--dt", "0"], "dt_pulse"),
    (["--experiment", "memory-protocol", "--dt", "-0.1"], "dt_pulse"),
    (["--experiment", "qpt", "--shots", "0"], "shots"),
    (["--experiment", "qpt", "--shots", "-3"], "shots"),
    (["--experiment", "memory-protocol", "--jobs", "-1"], "--jobs"),
    (["--experiment", "memory-protocol", "--jobs", "0"], "--jobs"),
    # bad memory-protocol points failed with status 1 after calibrating
    (["--experiment", "memory-protocol", "--delay", "-1"],
     "delays must be finite"),
    (["--experiment", "memory-protocol", "--delay", "nan"],
     "delays must be finite"),
    (["--experiment", "memory-protocol", "--sweep", "delay=-1:1:3"],
     "delays must be finite"),
    (["--experiment", "memory-protocol", "--sweep", "delay=3:4:2",
      "--prep-angle", "nan"], "angles must be finite"),
    # a flag the experiment does not read was dropped without a word, and
    # a nan one written to the manifest as invalid JSON
    (["--experiment", "memory-protocol", "--prep-angle", "nan"],
     "memory-protocol does not read --prep-angle"),
    (["--experiment", "memory-protocol", "--sweep", "delay=3:4:2",
      "--delay", "1"], "memory-protocol does not read --delay"),
    (["--experiment", "fock-decay", "--mode", "storage", "--input", "d.csv"],
     "fock-decay does not read --mode, --input"),
    (["--experiment", "memory-ramsey", "--jobs", "2"],
     "memory-ramsey does not read --jobs"),
    (["--experiment", "ringdown", "--detuning", "1"],
     "ringdown does not read --detuning"),
    (["--experiment", "zfidelity-sweep", "--shots", "10"],
     "zfidelity-sweep does not read --shots"),
    (["--experiment", "bsb-check", "--fit-leakage"],
     "bsb-check does not read --fit-leakage"),
    (["--experiment", "qpt", "--fit-model", "lorentzian", "--delay", "3"],
     "qpt does not read --delay, --fit-model"),
    (["--experiment", "fit", "--prep-angle", "1"],
     "fit does not read --prep-angle"),
    # bad fock-decay and memory-ramsey values failed with status 1
    (["--experiment", "memory-ramsey", "--detuning", "nan"],
     "detuning must be a finite"),
    (["--experiment", "fock-decay", "--sweep", "delay=-1:16:8"],
     "delays must be finite"),
    (["--experiment", "memory-ramsey", "--sweep", "delay=-1:20:8"],
     "delays must be finite"),
    # a window too short or too few points for the fit failed with status
    # 1, the point counts only after simulating every point
    (["--experiment", "fock-decay", "--sweep", "delay=3:4:3"],
     "delays must span >= 2x the expected lifetime"),
    (["--experiment", "fock-decay", "--sweep", "delay=3:16:4"],
     "exponential: need >= 5 points, got 4"),
    (["--experiment", "memory-ramsey", "--detuning", "0"],
     "gives fewer than 3 fringes"),
    (["--experiment", "memory-ramsey", "--sweep", "delay=0.25:21:7"],
     "decaying-cosine: need >= 8 points, got 7"),
    (["--experiment", "zfidelity-sweep", "--sweep", "bsb_amp_ghz=4:6:3",
      "--fit-leakage"], "leakage: need >= 4 points, got 3"),
    # a grid holding nan passed as strictly increasing
    (["--experiment", "zfidelity-sweep", "--sweep", "bsb_amp_ghz=nan:1:3"],
     "must strictly increase"),
])
def test_bad_run_values_fail_before_simulating(tmp_path, sample_cfg, capsys,
                                               monkeypatch, flags, name):
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the run values")

    for fn in ("get_calibration", "get_calibrations", "simulate_sequence",
               "simulate_sequences", "effective_bsb_check"):
        monkeypatch.setattr(protocol, fn, simulate)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", sample_cfg, *flags,
                     "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["bsb_amp_ghz=-1:1:3",
                                   "bsb_amp_ghz=nan:nan:1"])
def test_sideband_amplitude_not_above_zero_is_a_usage_error(
        tmp_path, sample_cfg, capsys, monkeypatch, sweep):
    # it failed with status 1, a calibration failure, and a nan amplitude
    # with propagate's span error
    from qmemsim import cli, pulses

    def probe(*args, **kwargs):
        raise AssertionError("probed before rejecting the amplitudes")

    monkeypatch.setattr(pulses, "probe_transfers", probe)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", sample_cfg, "--experiment",
                     "zfidelity-sweep", "--sweep", sweep,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: need drive amplitudes > 0")
    assert not out.exists()


def test_non_positive_config_dt_pulse_is_rejected(tmp_path, capsys):
    from qmemsim import cli

    cfg = tmp_path / "zero.cfg"
    for value in ("0 ns", "-0.1 ns"):
        cfg.write_text(sample_text() + f"dt_pulse = {value}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--experiment", "qpt",
                         "--out", str(out)]) == 2
        assert "dt_pulse must be > 0" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        assert "breach: dt_pulse must be > 0" in capsys.readouterr().err


def test_unknown_frame_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an unknown frame is bad input, refused before any simulation with the
    # valid frames named, not a physics failure of the model build
    from qmemsim import cli, protocol
    from qmemsim.lindblad import FRAMES

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the frame")

    monkeypatch.setattr(protocol, "get_calibration", simulate)
    cfg = tmp_path / "warp.cfg"
    cfg.write_text(sample_text() + "frame = warp\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--experiment", "qpt",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown frame 'warp'" in err
    assert all(repr(frame) in err for frame in FRAMES)
    assert not out.exists()
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert "breach: unknown frame 'warp'" in capsys.readouterr().err


def test_run_requires_existing_config(tmp_path):
    out = tmp_path / "out"
    res = run_cli("run", "--config", str(tmp_path / "missing.cfg"),
                  "--experiment", "ringdown", "--out", str(out))
    assert res.returncode == 2
    assert not out.exists()


def test_descending_sweep_is_a_usage_error(tmp_path, sample_cfg):
    out = tmp_path / "desc"
    res = run_cli("run", "--config", sample_cfg, "--experiment", "fock-decay",
                  "--sweep", "delay=16:3:8", "--out", str(out))
    assert res.returncode == 2
    assert "delay=16:3:8" in res.stderr
    assert not out.exists()


def test_sideband_check_of_a_zero_drive_fails_in_one_line(tmp_path, sample_cfg):
    # it printed two numpy divide-by-zero warnings, then propagate's span
    # error with all 273 sample times
    out = tmp_path / "out"
    res = run_cli("run", "--config", sample_cfg, "--experiment", "bsb-check",
                  "--sweep", "omega_drv_ghz=0:2:3", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: each drive must be a finite amplitude > 0 rad/us, "
        "got 0 rad/us (0 GHz)"]
    assert not out.exists()


@pytest.mark.parametrize("experiment, sweep", [
    ("fock-decay", "prep_angle=3:16:8"),
    ("memory-ramsey", "prep_angle=0.25:9:8"),
    ("bsb-check", "delay=1:3:3"),
    ("memory-protocol", "bsb_amp_ghz=4:6:3"),
    ("zfidelity-sweep", "delay=0:1:2"),
    ("ringdown", "delay=0:1:2"),
    ("qpt", "delay=0:1:2"),
    ("fit", "delay=0:1:2"),
])
def test_sweep_of_a_variable_the_experiment_does_not_take(
        tmp_path, sample_cfg, capsys, monkeypatch, experiment, sweep):
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the sweep")

    for module, name in ((protocol, "get_calibration"),
                         (protocol, "get_calibrations"),
                         (protocol, "simulate_sequence"),
                         (protocol, "simulate_sequences"),
                         (protocol, "effective_bsb_check")):
        monkeypatch.setattr(module, name, simulate)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x},{math.exp(-x / 3.0)!r}\n"
                                      for x in range(10)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", sample_cfg, "--experiment", experiment,
                     "--sweep", sweep, "--input", str(data),
                     "--out", str(out)]) == 2
    assert f"cannot sweep {sweep.split('=')[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, status, message", [
    (None, 2, "cannot read --input"),
    ("y\n" + "".join(f"{y}\n" for y in range(10)), 2, "must hold x,y rows"),
    ("x,y\n0,1\n", 2, "exponential: need >= 5 points, got 1"),
    ("x,y\n", 2, "must hold x,y rows"),
    ("x,y\n" + "".join(f"{5 - k},{k + 1}\n" for k in range(6)), 2,
     "xs must be strictly increasing"),
    ("x,y\n" + "".join(f"{k},{'nan' if k == 3 else k + 1}\n"
                       for k in range(6)), 2, "must be finite"),
    ("x,y\n" + "".join(f"{'inf' if k == 5 else k},{k + 1}\n"
                       for k in range(6)), 2, "must be finite"),
], ids=["missing", "one-column", "one-row", "header-only", "decreasing-x",
        "nan-y", "inf-x"])
def test_fit_input_errors(tmp_path, sample_cfg, capsys, text, status, message):
    from qmemsim import cli

    data = tmp_path / "d.csv"
    if text is not None:
        data.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", sample_cfg, "--experiment", "fit",
                         "--input", str(data), "--out", str(out)]) == status
    assert not caught
    err = capsys.readouterr().err
    assert message in err
    assert str(data) in err
    assert not out.exists()


def test_run_rejects_unknown_experiment(sample_cfg):
    res = run_cli("run", "--config", sample_cfg, "--experiment", "nonsense")
    assert res.returncode == 2


def test_fit_experiment_and_determinism(tmp_path, sample_cfg):
    xs = np.linspace(0.0, 20.0, 30)
    ys = 0.8 * np.exp(-xs / 6.44) + 0.05
    data = tmp_path / "data.csv"
    with open(data, "w") as f:
        f.write("x,y\n")
        for x, y in zip(xs, ys):
            f.write(f"{x:.17g},{y:.17g}\n")

    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        res = run_cli("run", "--config", sample_cfg, "--experiment", "fit",
                      "--fit-model", "exponential", "--input", str(data),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    fits = json.loads((out1 / "fits.json").read_text())
    assert fits["exponential"]["params"]["T"] == pytest.approx(6.44, rel=1e-6)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_manifest_round_trip(tmp_path, sample_cfg):
    xs = np.linspace(0.0, 10.0, 20)
    data = tmp_path / "d.csv"
    with open(data, "w") as f:
        f.write("x,y\n")
        for x in xs:
            f.write(f"{x:.17g},{np.exp(-x / 3.0):.17g}\n")
    out1 = tmp_path / "first"
    res = run_cli("run", "--config", sample_cfg, "--experiment", "fit",
                  "--fit-model", "exponential", "--input", str(data),
                  "--out", str(out1))
    assert res.returncode == 0, res.stderr
    out2 = tmp_path / "replay"
    res = run_cli("run", "--from-manifest", str(out1 / "manifest.json"),
                  "--out", str(out2))
    assert res.returncode == 0, res.stderr
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "fits.json").read_bytes() == (out2 / "fits.json").read_bytes()


def test_replay_restores_only_the_recorded_arguments(tmp_path, sample_cfg):
    # a manifest whose run.args hold out and jobs neither redirects nor
    # parallelizes its replay: the outputs go to the replay's own --out
    from qmemsim import cli

    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x:.17g},{np.exp(-x / 3.0):.17g}\n"
                                      for x in np.linspace(0.0, 10.0, 20)))
    first, elsewhere, replay = (tmp_path / n
                                for n in ("first", "elsewhere", "replay"))
    assert cli.main(["run", "--config", sample_cfg, "--experiment", "fit",
                     "--input", str(data), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["run"]["args"].update(out=str(elsewhere), jobs=2)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    assert cli.main(["run", "--from-manifest", str(edited),
                     "--out", str(replay)]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "d.csv", "edited.json", "first", "replay", "sample.cfg"]
    for name in ("results.csv", "fits.json", "manifest.json"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("flags, named", [
    (["--shots", "20", "--seed", "7"], "--seed, --shots"),
    (["--seed", "0", "--shots", "20", "--fit-leakage"],
     "--shots, --fit-leakage"),
    (["--config", "sample.cfg"], "--config"),
])
def test_recorded_arguments_beside_a_manifest_are_a_usage_error(
        tmp_path, capsys, monkeypatch, flags, named):
    # a replay runs with the arguments its manifest records; a flag that
    # gives one of them a value other than its default is refused by name,
    # before any simulation, instead of being silently overridden
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the flags")

    monkeypatch.setattr(protocol, "get_calibration", simulate)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "config_text": sample_text(),
        "run": {"dt_pulse_us": 2e-4,
                "args": {"experiment": "qpt", "shots": 500, "seed": 0}}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--from-manifest", str(path), *flags,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --from-manifest replays the recorded run arguments; "
        f"drop {named}\n")
    assert not out.exists()


def test_manifest_with_an_unread_argument_fails_to_replay(tmp_path, capsys,
                                                         monkeypatch):
    # run.args that give the experiment a flag it does not read, away from
    # its default, replay to the usage error of that flag on the command line
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the manifest")

    monkeypatch.setattr(protocol, "get_calibration", simulate)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "config_text": sample_text(),
        "run": {"dt_pulse_us": 2e-4, "args": {
            "experiment": "qpt", "shots": 500, "mode": "storage"}}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--from-manifest", str(path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: qpt does not read --mode\n"
    assert not out.exists()


@pytest.mark.parametrize("recorded, key", [
    ({"experiment": ["qpt"]}, "experiment"),
    ({"experiment": "qpt", "shots": "many"}, "shots"),
    ({"experiment": "ringdown", "mode": "sideways"}, "mode"),
])
def test_manifest_value_the_run_parser_refuses_is_a_usage_error(
        tmp_path, capsys, monkeypatch, recorded, key):
    # a list for experiment ended in a TypeError traceback and a string for
    # shots in another: each recorded value is read as the command line
    # reads its flag, and one the run parser refuses exits 2 naming its
    # key, before any simulation
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the manifest")

    for fn in ("get_calibration", "simulate_sequence", "simulate_sequences"):
        monkeypatch.setattr(protocol, fn, simulate)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config_text": sample_text(),
                                "run": {"dt_pulse_us": 2e-4, "args": recorded}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--from-manifest", str(path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"run.args.{key} = {recorded[key]!r}" in err
    assert repr(str(path)) in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "cannot read manifest"),
    ("{not json", "cannot read manifest"),
    (json.dumps({"run": {"dt_pulse_us": 1e-4, "args": {}}}),
     "lacks config_text"),
    (json.dumps({"config_text": ""}), "lacks run.dt_pulse_us, run.args"),
])
def test_unusable_manifest_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            text, message):
    # a manifest that is missing, not JSON or without what a replay needs
    # exits 2 naming the file, before any simulation
    from qmemsim import cli, protocol

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting the manifest")

    monkeypatch.setattr(protocol, "get_calibration", simulate)
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--from-manifest", str(path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and repr(str(path)) in err
    assert not out.exists()


def test_retired_dt_idle_key_is_accepted_and_ignored(tmp_path, sample_cfg):
    # the sample holds the retired g_102, q0_ro and q0_s; dt_idle joins them
    retired = {"dt_idle", "g_102", "q0_ro", "q0_s"}
    text = open(sample_cfg).read() + "dt_idle = 2 ns\n"
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if line.split("=")[0].strip() not in retired]
    assert len(lines) - len(kept) == len(retired)
    cfg, plain = tmp_path / "old.cfg", tmp_path / "plain.cfg"
    cfg.write_text(text)
    plain.write_text("".join(kept))
    settings = config.load_run_settings(str(cfg))
    assert settings == config.load_run_settings(str(plain))
    assert not retired & set(settings[2])
    assert run_cli("validate", "--config", str(cfg)).returncode == 0

    first, without = tmp_path / "first", tmp_path / "without"
    for path, out in ((cfg, first), (plain, without)):
        res = run_cli("run", "--config", str(path), "--experiment", "ringdown",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config_text"] == text
    assert "dt_idle_us" not in manifest["run"]

    # a manifest written before the key was retired also records it
    manifest["run"]["dt_idle_us"] = 0.002
    old_manifest = tmp_path / "old-manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    res = run_cli("run", "--from-manifest", str(old_manifest), "--out", str(replay))
    assert res.returncode == 0, res.stderr
    assert "dt_idle_us" not in json.loads((replay / "manifest.json").read_text())["run"]
    for out in (without, replay):
        for name in ("results.csv", "fits.json"):
            assert (first / name).read_bytes() == (out / name).read_bytes()


def test_manifest_replay_runs_at_the_recorded_pulse_step(tmp_path):
    # a manifest of a run at the default step records that step, with no
    # --dt; its replay runs at the recorded step, whatever the default is
    from qmemsim import cli

    cfg = tmp_path / "small.cfg"
    cfg.write_text(sample_text()
                   + "n_transmon = 2\nn_storage = 2\nn_readout = 1\n")
    argv = ["run", "--config", str(cfg), "--experiment", "memory-protocol",
            "--sweep", "delay=0:1:2"]
    first, direct, replay = (tmp_path / n for n in ("first", "direct", "replay"))
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--dt", "0.05", "--out", str(direct)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["run"]["args"]["dt"] is None
    manifest["run"]["dt_pulse_us"] = 5e-5
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    assert cli.main(["run", "--from-manifest", str(edited),
                     "--out", str(replay)]) == 0
    run = json.loads((replay / "manifest.json").read_text())["run"]
    assert run["dt_pulse_us"] == 5e-5
    assert (replay / "results.csv").read_bytes() == \
        (direct / "results.csv").read_bytes()


def test_ringdown_cli_reproduces_decay_time(tmp_path, sample_cfg):
    out = tmp_path / "ring"
    res = run_cli("run", "--config", sample_cfg, "--experiment", "ringdown",
                  "--mode", "readout", "--out", str(out))
    assert res.returncode == 0, res.stderr
    fits = json.loads((out / "fits.json").read_text())
    t_amp = fits["amplitude_decay"]["params"]["T"]
    assert t_amp * 1e3 == pytest.approx(79.58, rel=0.02)
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "t_us,field_amplitude,uncertainty,n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "ringdown"
    assert manifest["run"]["dims"] == [3, 5, 2]


def test_memory_protocol_sweep_cli(tmp_path, sample_cfg):
    out = tmp_path / "sweep"
    res = run_cli("run", "--config", sample_cfg, "--experiment",
                  "memory-protocol", "--sweep", "prep_angle=0:3.1415926:3",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 4
    first = float(rows[1].split(",")[1])
    last = float(rows[3].split(",")[1])
    assert first > 0.85 and last < 0.15


def test_jobs_workers_reuse_the_parent_calibration(tmp_path, monkeypatch):
    # the pool forks, so the patch reaches the workers: any calibration
    # there fails the run
    from qmemsim import cli, protocol

    cfg = tmp_path / "small.cfg"
    cfg.write_text(sample_text()
                   + "n_transmon = 2\nn_storage = 2\nn_readout = 1\n")
    parent, calibrate = os.getpid(), protocol.get_calibration

    def parent_only(*args, **kwargs):
        assert os.getpid() == parent, "a --jobs worker calibrated"
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(protocol, "get_calibration", parent_only)
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", "--config", str(cfg), "--experiment",
                         "memory-protocol", "--sweep", "delay=0:1:2",
                         "--jobs", jobs, "--out", str(out)]) == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_memory_protocol_sweep_equals_its_points_bit_for_bit(tmp_path,
                                                             monkeypatch):
    from qmemsim import cli, protocol

    cfg = tmp_path / "small.cfg"
    cfg.write_text(sample_text()
                   + "n_transmon = 2\nn_storage = 2\nn_readout = 1\n")
    p, dims, run_kw = config.load_run_settings(cfg)
    options = protocol.ProtocolOptions(dims=dims, **run_kw)
    angles = np.linspace(0.0, 3.0, 3)
    cal = protocol.get_calibration(p, options)
    singles = [protocol.run_memory_protocol(p, a, 0.5, options, cal)
               for a in angles]
    calls, propagate = [], protocol.propagate

    def count(*args):
        calls.append(None)
        return propagate(*args)

    monkeypatch.setattr(protocol, "propagate", count)
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", "--config", str(cfg), "--experiment",
                         "memory-protocol", "--sweep", "prep_angle=0:3:3",
                         "--delay", "0.5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        rows = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        assert list(rows[:, 1]) == singles
        if jobs == "1":
            # the forked --jobs 2 workers count in their own memory
            assert len(calls) == 1


def test_jobs_pool_starts_no_more_workers_than_items(monkeypatch):
    from qmemsim import cli

    workers = []

    class Recorder:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", Recorder)
    assert cli._pmap(abs, [-1, -2], 500) == [1, 2]
    assert cli._pmap(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert workers == [2, 2]


def test_results_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(sample_text()
                   + "n_transmon = 2\nn_storage = 2\nn_readout = 1\n")
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        res = run_cli("run", "--config", str(cfg), "--experiment",
                      "memory-protocol", "--sweep", "delay=0:1:2",
                      "--out", str(out),
                      env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_init_config(tmp_path):
    path = tmp_path / "new.cfg"
    res = run_cli("init-config", str(path))
    assert res.returncode == 0
    assert "omega_s" in path.read_text()
