import dataclasses
import math

import numpy as np
import pytest

from qmemsim import device
from qmemsim.device import AngularParams, DeviceParams
from qmemsim.errors import ParameterError
from qmemsim.units import GHZ, KHZ, MHZ, TWO_PI


def test_defaults_match_sample():
    p = DeviceParams()
    assert p.omega_ro == 5.518
    assert p.omega_s == 8.707546
    assert p.omega_q == 6.234
    assert p.alpha == -185.0
    assert p.g == 53.0
    assert p.chi_ro == 3.6
    assert p.chi_s == 1.1
    assert p.kappa_ro == 4.0
    assert p.kappa_s == 24.7
    assert p.t1_q == 1.32
    assert p.t2_q == 2.49
    assert p.n_ro == 0.0


def test_each_field_declares_the_unit_the_paper_quotes():
    units = {f.name: f.metadata["unit"] for f in dataclasses.fields(DeviceParams)}
    assert units == {
        "omega_ro": "GHz", "omega_s": "GHz", "omega_q": "GHz",
        "alpha": "MHz", "g": "MHz", "chi_ro": "MHz", "chi_s": "MHz",
        "kappa_ro": "MHz", "kappa_s": "kHz", "t1_q": "us", "t2_q": "us",
        "n_ro": None, "p_e": None}


def test_angular_scales_each_field_by_its_declared_unit():
    # 13 distinct values, so a field read in another's place shows
    p = DeviceParams(omega_ro=5.1, omega_s=8.3, omega_q=6.7, alpha=-171.0,
                     g=47.0, chi_ro=2.9, chi_s=0.8, kappa_ro=3.3,
                     kappa_s=19.0, t1_q=1.7, t2_q=2.3, n_ro=0.4, p_e=0.011)
    source = {"w_ro": "omega_ro", "w_s": "omega_s", "w_q": "omega_q",
              "alpha": "alpha", "g": "g", "chi_ro": "chi_ro",
              "chi_s": "chi_s", "k_ro": "kappa_ro", "k_s": "kappa_s",
              "t1_q": "t1_q", "t2_q": "t2_q", "n_ro": "n_ro", "p_e": "p_e"}
    scale = {"GHz": GHZ, "MHz": MHZ, "kHz": KHZ, "us": 1.0, None: 1.0}
    units = {f.name: f.metadata["unit"] for f in dataclasses.fields(DeviceParams)}
    a = p.angular()
    assert [f.name for f in dataclasses.fields(AngularParams)] == list(source)
    assert len(set(dataclasses.astuple(p))) == len(source)
    for name, field in source.items():
        assert getattr(a, name) == getattr(p, field) * scale[units[field]], name


def test_invariants_rejected():
    with pytest.raises(ParameterError):
        DeviceParams(t2_q=3.0 * 1.32)
    with pytest.raises(ParameterError):
        DeviceParams(omega_q=-1.0)
    with pytest.raises(ParameterError):
        DeviceParams(kappa_s=0.0)


def test_bsb_frequency_sample_value():
    p = DeviceParams()
    wb = device.bsb_frequency(p)
    # 8.707546 + 6.234 + 0.0011 - 0.0036 GHz
    assert wb / GHZ == pytest.approx(14.939046, abs=1e-9)
    assert wb / 2 / GHZ == pytest.approx(7.469523, abs=1e-9)


def test_bsb_frequency_shift_free_limit():
    p = DeviceParams(chi_s=1e-12, chi_ro=1e-12)
    wb = device.bsb_frequency(p)
    assert wb / GHZ == pytest.approx(8.707546 + 6.234, abs=1e-9)


def test_bsb_frequency_affine_in_nro():
    p0 = DeviceParams(n_ro=0.0)
    deltas = []
    for n in (0.0, 0.5, 1.0, 2.0):
        deltas.append(device.bsb_frequency(p0.replace(n_ro=n)))
    slopes = np.diff(deltas) / np.diff([0.0, 0.5, 1.0, 2.0])
    assert np.allclose(slopes, 2.0 * p0.chi_ro * MHZ, rtol=1e-12)


def test_bsb_rate_zero_drive():
    assert device.bsb_effective_rate(DeviceParams(), 0.0) == 0.0


def test_bsb_rate_quadratic_in_drive():
    p = DeviceParams()
    r1 = device.bsb_effective_rate(p, 100.0)
    r2 = device.bsb_effective_rate(p, 200.0)
    assert r2 / r1 == pytest.approx(4.0, rel=1e-12)


def test_bsb_rate_cubic_in_g():
    p = DeviceParams()
    amp = 500.0
    for g1, g2 in [(20.0, 40.0), (53.0, 106.0)]:
        r1 = device.bsb_effective_rate(p.replace(g=g1), amp)
        r2 = device.bsb_effective_rate(p.replace(g=g2), amp)
        assert r2 / r1 == pytest.approx(8.0, rel=1e-12)


def test_bsb_rate_sample_detunings():
    p = DeviceParams()
    d_s, d_q = device.bsb_detunings(p)
    assert d_s / GHZ == pytest.approx(1.238023, abs=1e-6)
    assert d_q / GHZ == pytest.approx(-1.235523, abs=1e-6)
    # explicit arithmetic from the effective-coupling expression
    a = p.angular()
    expected = a.g**3 * 1.0**2 / (d_s**2 * d_q**2)
    assert device.bsb_effective_rate(p, 1.0) == pytest.approx(expected, rel=1e-12)


def test_bsb_rate_degenerate_drive():
    p = DeviceParams()
    with pytest.raises(ParameterError):
        device.bsb_effective_rate(p, 1.0, carrier=p.angular().w_s)


def test_dispersive_estimate_sample_point():
    # 53 MHz coupling, 716 MHz detuning, -185 MHz anharmonicity -> -1.37 MHz
    chi = device.dispersive_shift_estimate(53.0, 716.0, -185.0)
    assert chi == pytest.approx(-1.3668, abs=5e-4)


def test_dispersive_estimate_two_level_limit():
    g, delta = 50.0, 700.0
    chi = device.dispersive_shift_estimate(g, delta, -1e9)
    assert chi == pytest.approx(g**2 / delta, rel=1e-5)


def test_dispersive_estimate_degenerate():
    assert device.dispersive_shift_estimate(0.0, 700.0, -185.0) == 0.0
    with pytest.raises(ParameterError):
        device.dispersive_shift_estimate(50.0, 185.0, -185.0)


def test_purcell_sample_value():
    t_p = device.purcell_limit(DeviceParams())
    assert t_p == pytest.approx(7.2616, rel=1e-3)
    # consistency requirement: well above the measured qubit lifetime
    assert t_p > 3.0 * DeviceParams().t1_q


def test_purcell_unbounded_for_lossless_readout():
    # kappa -> 0 sends the bound to the unbounded sentinel
    assert device.purcell_limit(DeviceParams(kappa_ro=1e-300)) > 1e250


def test_purcell_inverse_square_in_g():
    p = DeviceParams()
    assert device.purcell_limit(p.replace(g=26.5)) / device.purcell_limit(p) \
        == pytest.approx(4.0, rel=1e-12)


def test_purcell_rejects_near_resonance():
    with pytest.raises(ParameterError):
        device.purcell_limit(DeviceParams(omega_ro=6.234 + 0.010))


def test_pure_dephasing_memory_value():
    t_phi = device.pure_dephasing_time(8.0, 15.5)
    assert t_phi == pytest.approx(496.0, rel=1e-9)
    assert abs(t_phi - 500.0) / 500.0 < 0.02


def test_pure_dephasing_saturated_bound():
    assert device.pure_dephasing_time(5.0, 10.0) == math.inf


def test_pure_dephasing_qubit_value():
    t_phi = device.pure_dephasing_time(1.32, 2.49)
    assert t_phi == pytest.approx(43.82, rel=1e-3)


def test_pure_dephasing_rejects_nonphysical():
    with pytest.raises(ParameterError):
        device.pure_dephasing_time(1.0, 2.5)


def test_pure_dephasing_round_trip():
    t1, t2 = 8.0, 15.5
    t_phi = device.pure_dephasing_time(t1, t2)
    t2_back = 1.0 / (1.0 / t_phi + 1.0 / (2.0 * t1))
    assert t2_back == pytest.approx(t2, rel=1e-10)


def test_thermal_population_sample_value():
    p_e = device.thermal_population(1.0 / 496.0, 1.0 / 1.32)
    assert p_e == pytest.approx(0.00266, abs=5e-5)
    assert abs(p_e - 0.003) < 0.001  # paper rounds to 0.3 %


def test_thermal_population_linear():
    assert device.thermal_population(0.0, 1.0) == 0.0
    assert device.thermal_population(2e-3, 0.5) \
        == pytest.approx(2.0 * device.thermal_population(1e-3, 0.5))
    with pytest.raises(ParameterError):
        device.thermal_population(1e-3, 0.0)
