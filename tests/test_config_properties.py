"""Property test: rendering DeviceParams and parsing the text back is lossless."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from qmemsim import config
from qmemsim.device import DeviceParams

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def device_params(draw):
    t1_q = draw(st.floats(min_value=1e-300, max_value=1e300))
    return DeviceParams(
        omega_ro=draw(positive), omega_s=draw(positive), omega_q=draw(positive),
        alpha=draw(finite), g=draw(finite),
        chi_ro=draw(finite), chi_s=draw(finite),
        kappa_ro=draw(positive), kappa_s=draw(positive),
        t1_q=t1_q,
        t2_q=draw(st.floats(min_value=0.0, max_value=2.0 * t1_q, exclude_min=True)),
        n_ro=draw(st.floats(min_value=0.0, allow_infinity=False)),
        p_e=draw(st.floats(min_value=0.0, max_value=0.5, exclude_max=True)),
    )


@given(device_params())
def test_render_parse_round_trip(p):
    device_kw, run_kw = config.parse_config_text(config.device_params_to_config(p))
    assert DeviceParams(**device_kw) == p
    assert run_kw == {}
