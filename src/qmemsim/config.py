"""Unit-suffixed key = value configuration files.

Frequencies and times must carry an explicit unit suffix (GHz, MHz, kHz, Hz,
s, ms, us, ns); unit-less entries are rejected for those keys.  Dimensionless
quantities (populations, counts) are plain numbers.  Lines starting with #
are comments.

Example::

    # sample parameters
    omega_ro = 5.518 GHz
    kappa_s  = 24.7 kHz
    t1_q     = 1.32 us
    p_e      = 0.0027

A device key is stored in the unit that its DeviceParams field declares,
the one DeviceParams.angular() scales from (``kappa_s`` in kHz).  Unit
conversion is exact.  Every unit, and the unit each key is stored in,
is a power of ten of the base unit (GHz for frequencies, us for times), so a
value is the decimal literal as written, shifted by the combined exponent
and rounded to the nearest float once.  A value written in its storage unit
is stored bit-for-bit as written, and ``6234 MHz`` gives the same float as
``6.234 GHz``.  :func:`device_params_to_config` writes each value in its
storage unit as the shortest literal that rounds back to it, so render ->
parse returns an equal :class:`DeviceParams`.

Every number must be finite, and the truncation sizes (n_transmon,
n_storage, n_readout) must be integral; anything else raises ConfigError
naming the key.  Truncation sizes that SubsystemDims rejects, and device
values that DeviceParams rejects, raise ConfigError naming the source.
"""

import dataclasses
import decimal
import importlib.resources
import math

from .device import DeviceParams
from .errors import ConfigError, DimensionError, ParameterError
from .qsys import SubsystemDims

# power of ten from each unit to the base unit: GHz for frequencies, us for times
FREQ_UNITS = {"ghz": 0, "mhz": -3, "khz": -6, "hz": -9}
TIME_UNITS = {"s": 6, "ms": 3, "us": 0, "ns": -3}
_UNITS = {"freq": FREQ_UNITS, "time": TIME_UNITS}

# the kind of value each storage unit holds
_KINDS = {"GHz": "freq", "MHz": "freq", "kHz": "freq", "us": "time", None: "plain"}

# key: (kind, unit the value is stored in)
_DEVICE_KEYS = {f.name: (_KINDS[f.metadata["unit"]], f.metadata["unit"])
                for f in dataclasses.fields(DeviceParams)}

_RUN_KEYS = {
    "dt_pulse": ("time", "us"),
    "n_transmon": ("plain", None),
    "n_storage": ("plain", None),
    "n_readout": ("plain", None),
    "frame": ("word", None),
}

# parsed and checked so that older configs and manifests load, then dropped:
# g_102, q0_ro and q0_s never entered the dynamics, nor dt_idle since idle
# windows propagate exactly
_RETIRED_KEYS = {
    "g_102": ("freq", "MHz"),
    "q0_ro": ("plain", None),
    "q0_s": ("plain", None),
    "dt_idle": ("time", "us"),
}

# Unbounded precision and exponent range: constructing the literal and
# shifting its exponent never round, so float() is the only rounding.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.InvalidOperation])


def _scaled_float(key, text, exp):
    """Nearest float to the finite decimal literal ``text`` times 10**exp."""
    try:
        value = float(decimal.Decimal(text, _EXACT).scaleb(exp, _EXACT))
    except decimal.InvalidOperation as exc:
        raise ConfigError(f"{key}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {text!r}")
    return value


def parse_value(key, raw):
    """Parse the value text of a known key into the unit it is stored in."""
    kind, storage_unit = (_DEVICE_KEYS.get(key) or _RUN_KEYS.get(key)
                          or _RETIRED_KEYS[key])
    parts = raw.split()
    if kind == "word":
        if len(parts) != 1:
            raise ConfigError(f"{key}: expected a single word, got {raw!r}")
        return parts[0]
    if kind == "plain":
        if len(parts) != 1:
            raise ConfigError(f"{key}: dimensionless value must not carry a unit")
        return _scaled_float(key, parts[0], 0)
    if len(parts) != 2:
        raise ConfigError(
            f"{key}: frequency/time entries require an explicit unit, got {raw!r}")
    table = _UNITS[kind]
    unit = parts[1].lower()
    if unit not in table:
        raise ConfigError(f"{key}: unknown {kind} unit {parts[1]!r}")
    return _scaled_float(key, parts[0], table[unit] - table[storage_unit.lower()])


def parse_config_text(text):
    """Parse the flat key = value format into (device_kw, run_kw) dicts,
    without the retired keys."""
    device_kw, run_kw = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        if key in _DEVICE_KEYS:
            device_kw[key] = parse_value(key, raw)
        elif key in _RUN_KEYS:
            run_kw[key] = parse_value(key, raw)
        elif key in _RETIRED_KEYS:
            parse_value(key, raw)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return device_kw, run_kw


def _truncation(run_kw, key, default):
    value = run_kw.pop(key, default)
    if value != int(value):
        raise ConfigError(f"{key}: truncation size must be an integer, got {value!r}")
    return int(value)


def parse_run_settings(text, source):
    """(DeviceParams, dims, run settings dict) from config text.

    Missing device keys keep the sample defaults; the run settings dict
    holds the remaining run keys (frame, dt_pulse), the ProtocolOptions
    fields they name.  source names the text in error messages.
    """
    device_kw, run_kw = parse_config_text(text)
    try:
        params = DeviceParams(**device_kw)
    except ParameterError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    try:
        dims = SubsystemDims(*(_truncation(run_kw, f.name, f.default)
                               for f in dataclasses.fields(SubsystemDims)))
    except DimensionError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return params, dims, run_kw


def load_run_settings(path):
    """(DeviceParams, dims, run settings dict) from a config file."""
    with open(path) as f:
        return parse_run_settings(f.read(), path)


def write_sample_config(path):
    """Write the packaged sample config, data/sample.cfg, to path."""
    text = (importlib.resources.files(__package__) / "data"
            / "sample.cfg").read_text()
    with open(path, "w") as f:
        f.write(text)


def device_params_to_config(p: DeviceParams):
    """Render DeviceParams back into the config format, losslessly.

    Each value is written in its storage unit as ``repr`` of the float, the
    shortest literal that parses back to the same float.
    """
    lines = []
    for key, (_, unit) in _DEVICE_KEYS.items():
        value = repr(float(getattr(p, key)))
        lines.append(f"{key:8s} = {value} {unit}" if unit else f"{key:8s} = {value}")
    return "\n".join(lines) + "\n"
