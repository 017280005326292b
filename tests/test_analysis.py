import math

import numpy as np
import pytest

from qmemsim import analysis
from qmemsim.errors import FitError, ParameterError
from qmemsim.units import TWO_PI


def test_exponential_exact_recovery():
    xs = np.linspace(0.0, 20.0, 40)
    ys = 1.0 * np.exp(-xs / 6.44)
    fit = analysis.fit_exponential(xs, ys)
    assert fit.converged
    assert fit.params["T"] == pytest.approx(6.44, rel=1e-6)
    assert fit.params["A"] == pytest.approx(1.0, rel=1e-6)


def test_exponential_with_noise():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 3 * 6.44, 50)
    ys = np.exp(-xs / 6.44) + rng.normal(0.0, 0.01, xs.size)
    fit = analysis.fit_exponential(xs, ys)
    assert fit.params["T"] == pytest.approx(6.44, rel=0.03)


def test_exponential_constant_input():
    xs = np.linspace(0.0, 1.0, 10)
    fit = analysis.fit_exponential(xs, np.full(10, 0.3))
    assert not fit.converged
    assert fit.params["T"] == math.inf


def test_exponential_preconditions():
    with pytest.raises(ParameterError):
        analysis.fit_exponential([0, 1, 2], [1, 2, 3])
    with pytest.raises(ParameterError):
        analysis.fit_exponential([0, 1, 1, 2, 3], [1, 1, 1, 1, 1])


def test_decaying_cosine_exact():
    xs = np.linspace(0.0, 40.0, 400)
    ys = 0.8 * np.exp(-xs / 15.5) * np.cos(2 * np.pi * 0.5 * xs + 0.3) + 0.1
    fit = analysis.fit_decaying_cosine(xs, ys)
    assert fit.params["T2"] == pytest.approx(15.5, rel=1e-4)
    assert fit.params["f"] == pytest.approx(0.5, rel=1e-4)


def test_decaying_cosine_zero_amplitude_fails():
    xs = np.linspace(0.0, 10.0, 50)
    with pytest.raises(FitError):
        analysis.fit_decaying_cosine(xs, np.zeros(50))


def test_zero_frequency_reduces_to_exponential():
    xs = np.linspace(0.0, 30.0, 120)
    ys = 0.9 * np.exp(-xs / 7.0) + 0.05
    f_exp = analysis.fit_exponential(xs, ys)
    f_cos = analysis.fit_decaying_cosine(xs, ys)
    assert f_cos.params["T2"] == pytest.approx(f_exp.params["T"], rel=0.01)


def test_lorentzian_exact():
    f0, fwhm = 8.707546e9, 24.7e3
    xs = np.linspace(f0 - 4 * fwhm, f0 + 4 * fwhm, 81)
    ys = 2.0 / (1.0 + 4.0 * (xs - f0) ** 2 / fwhm**2) + 0.1
    fit = analysis.fit_lorentzian(xs, ys)
    assert fit.params["f0"] == pytest.approx(f0, rel=1e-12)
    assert fit.params["fwhm"] == pytest.approx(fwhm, rel=1e-6)


def test_lorentzian_with_noise():
    rng = np.random.default_rng(5)
    f0, fwhm = 0.0, 24.7
    xs = np.linspace(-5 * fwhm, 5 * fwhm, 101)
    clean = 1.0 / (1.0 + 4.0 * (xs - f0) ** 2 / fwhm**2) + 0.02
    ys = clean * (1.0 + rng.normal(0.0, 0.05, xs.size))
    fit = analysis.fit_lorentzian(xs, ys)
    assert fit.params["fwhm"] == pytest.approx(fwhm, rel=0.02)


def test_lorentzian_symmetric_center():
    xs = np.linspace(-10.0, 10.0, 41)
    ys = 1.0 / (1.0 + 4.0 * xs**2 / 4.0)
    fit = analysis.fit_lorentzian(xs, ys)
    # symmetric data seeds and converges on the grid center
    assert fit.params["f0"] == pytest.approx(0.0, abs=1e-8)


def test_lorentzian_insufficient_span():
    xs = np.linspace(-0.1, 0.1, 21)
    ys = 1.0 / (1.0 + 4.0 * xs**2 / 25.0)  # linewidth 5 >> span 0.2
    with pytest.raises(FitError):
        analysis.fit_lorentzian(xs, ys)


# --- leakage model ---------------------------------------------------------

def test_leakage_no_excitation():
    ts = np.linspace(0.05, 2.0, 20)
    assert np.all(analysis.leakage_population(ts, 0.0, 50.0) == 0.0)


def test_leakage_no_spontaneous_emission_limit():
    for a in (0.1, 0.5, 2.0, 20.0):
        p = analysis.leakage_population(1.0, a, 0.0)
        assert p == pytest.approx(0.5 * (1.0 - math.exp(-2.0 * a)), rel=1e-12)
    assert analysis.leakage_population(1.0, 50.0, 0.0) == pytest.approx(0.5, rel=1e-9)


def test_leakage_monotone_in_protocol_length():
    ts = np.linspace(0.02, 3.0, 200)
    for a in (0.1, 0.5, 2.0):
        vals = analysis.leakage_population(ts, a, TWO_PI * 13.8)
        assert np.all(np.diff(vals) < 0.0)


def test_leakage_bounds():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0.0, 5.0)
        g = rng.uniform(0.0, 200.0)
        t = rng.uniform(1e-3, 5.0)
        val = analysis.leakage_population(t, a, g)
        assert 0.0 <= val < 1.0


def test_leakage_fit_round_trip_noiseless():
    a_true, g_true = 0.5, TWO_PI * 13.8
    ts = np.linspace(0.05, 1.0, 12)
    ys = 1.0 - analysis.leakage_population(ts, a_true, g_true)
    fit = analysis.fit_leakage(ts, ys)
    assert fit.params["a"] == pytest.approx(a_true, rel=0.05)
    assert fit.params["gamma_sp"] == pytest.approx(g_true, rel=0.05)
    assert fit.params["floor"] == pytest.approx(
        1.0 - 0.5 * (1.0 - math.exp(-1.0)), rel=1e-3)


def test_leakage_fit_round_trip_noisy():
    a_true, g_true = 0.5, TWO_PI * 13.8
    rng = np.random.default_rng(0)
    # short protocol lengths pin the short-pulse floor, keeping a and
    # gamma_sp separately identifiable at this noise level
    ts = np.linspace(0.01, 1.0, 16)
    ys = 1.0 - analysis.leakage_population(ts, a_true, g_true)
    ys = ys + rng.normal(0.0, 0.02, ts.size)
    fit = analysis.fit_leakage(ts, ys)
    for name, true in (("a", a_true), ("gamma_sp", g_true)):
        sigma = fit.uncertainties[name]
        assert sigma < 0.6 * true  # meaningfully constrained
        assert abs(fit.params[name] - true) < sigma, \
            f"{name}: {fit.params[name]} vs {true} +- {sigma}"


def test_leakage_fit_zero_gamma():
    ts = np.linspace(0.05, 1.0, 10)
    ys = 1.0 - analysis.leakage_population(ts, 0.4, 0.0)
    fit = analysis.fit_leakage(ts, ys)
    assert abs(fit.params["gamma_sp"]) <= max(fit.uncertainties["gamma_sp"], 1e-6)


def test_leakage_fit_flat_input():
    ts = np.linspace(0.05, 1.0, 10)
    fit = analysis.fit_leakage(ts, np.ones(10))
    assert abs(fit.params["a"]) <= max(fit.uncertainties["a"], 1e-6)


def test_leakage_fit_degenerate_is_not_converged():
    # (t_p_us, f_z_corr) of the default Z-fidelity working points; f_z_corr
    # exceeds 1 everywhere, so the fit runs off to a singular covariance
    t_p = [0.22359761761608127, 0.26619110485492148, 0.32977090722981034,
           0.38788681284348758, 0.5415132608179114, 0.77731306836096126,
           1.0394242336530721]
    f_corr = [1.1021721396602113, 1.1252891841568633, 1.1610228733545394,
              1.1950080105761456, 1.2914378467007284, 1.4607241856220652,
              1.6583747565758404]
    fit = analysis.fit_leakage(t_p, f_corr)
    assert not np.all(np.isfinite(list(fit.uncertainties.values())))
    assert not fit.converged


def test_leakage_fit_with_rank_deficient_jacobian_is_not_converged():
    # the rows `qmemsim run --experiment zfidelity-sweep` writes for the
    # sample config: the fit ends with a finite but rank-1 Jacobian (the
    # model saturates), whose covariance is numerically meaningless
    t_p = [0.22359761774066736, 0.26619110979255378, 0.32977090401420261,
           0.38788681118240442, 0.54151326028126712, 0.77731306775331066,
           1.0394242333677475]
    f_corr = [1.1021721405147122, 1.1252891971604191, 1.1610228667895672,
              1.1950080074771459, 1.2914378458233908, 1.4607241845962482,
              1.6583747557506621]
    fit = analysis.fit_leakage(t_p, f_corr)
    assert fit.uncertainties == {"a": math.inf, "gamma_sp": math.inf}
    assert not fit.converged


# --- the solver ------------------------------------------------------------

FITTERS = {"exponential": (analysis.fit_exponential, 5),
           "decaying-cosine": (analysis.fit_decaying_cosine, 8),
           "lorentzian": (analysis.fit_lorentzian, 7),
           "leakage": (analysis.fit_leakage, 4)}


@pytest.mark.parametrize("model", sorted(FITTERS))
@pytest.mark.parametrize("where, bad", [("xs", math.inf), ("ys", math.nan)])
def test_non_finite_input_is_a_parameter_error(model, where, bad):
    fitter, n = FITTERS[model]
    series = {"xs": np.linspace(0.1, 1.0, n + 2),
              "ys": np.linspace(0.9, 0.1, n + 2)}
    series[where][-1] = bad
    with pytest.raises(ParameterError, match=f"{model}: xs and ys must be finite"):
        fitter(series["xs"], series["ys"])


# the default Fock-lifetime series (delays in us, ground populations)
FOCK_DELAYS = [3.0, 4.5, 6.0, 7.5, 9.0, 11.0, 13.5, 16.0]
FOCK_PG = [0.58536583364455796, 0.48156409604812866, 0.39673950497114463,
           0.3284294676592629, 0.27419529900410189, 0.21885783738197059,
           0.16971490704226377, 0.13628753864620499]


def test_fock_fit_matches_minpack():
    # T and its uncertainty as scipy's MINPACK curve_fit gave them
    fit = analysis.fit_exponential(FOCK_DELAYS, FOCK_PG)
    assert fit.converged
    assert fit.params["T"] == pytest.approx(6.686545178641126, rel=1e-7)
    assert fit.uncertainties["T"] == pytest.approx(0.0505995875618996, rel=1e-5)


def test_fits_are_bit_for_bit_repeatable():
    def bits(fit):
        return [float(v).hex() for v in (*fit.params.values(),
                                         *fit.uncertainties.values(),
                                         fit.residual_norm)]
    assert bits(analysis.fit_exponential(FOCK_DELAYS, FOCK_PG)) == \
        bits(analysis.fit_exponential(FOCK_DELAYS, FOCK_PG))


def test_zero_seed_keeps_a_resolvable_difference_step():
    # the symmetric peak seeds f0 = 0; a step relative to |f0| alone would
    # vanish as f0 converges to 0 and leave J^T J singular
    xs = np.linspace(-10.0, 10.0, 41)
    fit = analysis.fit_lorentzian(xs, 1.0 / (1.0 + xs**2))
    assert fit.converged
    assert fit.params["f0"] == pytest.approx(0.0, abs=1e-12)
    assert fit.uncertainties["f0"] < 1e-12


def test_spent_evaluation_budget_raises(monkeypatch):
    # 1 per parameter and 1 more: the seed and its Jacobian use all 4, so
    # the fit must stop before its first step
    monkeypatch.setattr(analysis, "MAXFEV_PER_PARAM", 1)
    with pytest.raises(FitError, match="budget of 4 model evaluations"):
        analysis.fit_exponential(FOCK_DELAYS, FOCK_PG)
