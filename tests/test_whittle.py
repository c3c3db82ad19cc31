"""Tapered Whittle objective, estimator, and information matrices."""

import math

import numpy as np
import pytest

from taperspec.errors import DomainError, SingularInformationError
from taperspec.models import (
    AR1,
    ARFIMA0d0,
    ARMA,
    FGN,
    WhiteNoise,
    derive_seed,
    gaussian,
    parse_model,
)
from taperspec._quad import spectral_integral
from taperspec.spectrum import canonical_grid, tapered_periodogram
from taperspec.taper import get_taper, tapering_factor
from taperspec.whittle import (
    default_bounds,
    golden_section,
    info_matrices,
    whittle_estimate,
    whittle_objective,
)


class _NegativeDensity(WhiteNoise):
    def density(self, lam):
        return -np.ones_like(np.atleast_1d(np.asarray(lam, float)))


class _Parameterless(WhiteNoise):
    free_names = ()
    scale_name = None


class _FlatScore(AR1):
    def score(self, lam):
        lam_arr = np.atleast_1d(np.asarray(lam, float))
        return np.zeros((2, lam_arr.size))


# --------------------------------------------------------------- objective

def test_objective_theta_substitution():
    ts = AR1(theta=0.5).simulate(gaussian(), 256, seed=1)
    pg = tapered_periodogram(ts, get_taper("tukey"))
    direct = whittle_objective(pg, AR1(theta=0.3))
    via_arg = whittle_objective(pg, AR1(theta=0.9), theta=[0.3])
    assert direct == via_arg


def test_objective_default_weight_is_unit():
    ts = AR1(theta=0.5).simulate(gaussian(), 256, seed=2)
    pg = tapered_periodogram(ts, get_taper("rect"))
    m = AR1(theta=0.5)
    assert whittle_objective(pg, m) == whittle_objective(
        pg, m, weight=lambda lam: np.ones_like(lam))


def test_objective_prefers_truth_over_sign_flip():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    for rep in range(10):
        ts = m.simulate(gaussian(), 512, seed=derive_seed(31, rep))
        pg = tapered_periodogram(ts, tp)
        assert whittle_objective(pg, m) < whittle_objective(pg, AR1(theta=-0.5))


def test_objective_oversample_invariance():
    # The periodogram is a trigonometric polynomial, so for a rational
    # inverse density both grids integrate it exactly; only the smooth
    # ln f term differs, far below 1e-6.
    ts = AR1(theta=0.5).simulate(gaussian(), 512, seed=3)
    tp = get_taper("tukey")
    m = AR1(theta=0.4)
    u4 = whittle_objective(tapered_periodogram(ts, tp, grid=canonical_grid(512, 4)), m)
    u8 = whittle_objective(tapered_periodogram(ts, tp, grid=canonical_grid(512, 8)), m)
    assert abs(u4 - u8) < 1e-6
    # Long-memory integrands lose the exactness but stay quadrature-stable.
    ts2 = ARFIMA0d0(d=0.3).simulate(gaussian(), 512, seed=4)
    lm = ARFIMA0d0(d=0.25)
    v4 = whittle_objective(
        tapered_periodogram(ts2, tp, grid=canonical_grid(512, 4, shifted=True)), lm)
    v8 = whittle_objective(
        tapered_periodogram(ts2, tp, grid=canonical_grid(512, 8, shifted=True)), lm)
    assert abs(v4 - v8) < 1e-4


def test_objective_rejects_bad_density():
    ts = WhiteNoise().simulate(gaussian(), 64, seed=5)
    pg = tapered_periodogram(ts, get_taper("rect"))
    with pytest.raises(DomainError):
        whittle_objective(pg, _NegativeDensity())


# --------------------------------------------------------------- optimizer

def test_golden_section_quadratic():
    x, fx, evals, converged = golden_section(lambda t: (t - 1.3) ** 2, -2.0, 2.0)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert converged
    assert evals < 60


def test_default_bounds_by_parameter_name():
    assert default_bounds(AR1(theta=0.0)) == [(-0.99, 0.99)]
    assert default_bounds(ARFIMA0d0(d=0.0)) == [(-0.49, 0.49)]
    assert default_bounds(FGN(H=0.5)) == [(0.01, 0.99)]


# --------------------------------------------------------------- estimation

def test_white_noise_scale_closed_form():
    ts = WhiteNoise(sigma2=1.3).simulate(gaussian(), 400, seed=6)
    tp = get_taper("tukey")
    fit = whittle_estimate(ts, tp, WhiteNoise())
    h = tp.values(400)
    energy = float(np.sum(h**2 * ts.values**2) / np.sum(h**2))
    assert fit.names == ("sigma2",)
    assert fit.theta_hat[0] == pytest.approx(energy, rel=1e-12)
    s2 = fit.theta_hat[0]
    e_h = tapering_factor(tp)
    assert fit.asym_cov[0, 0] == pytest.approx(e_h * 2.0 * s2**2, rel=1e-8)
    kfit = whittle_estimate(ts, tp, WhiteNoise(), kappa4=6.0)
    assert kfit.asym_cov[0, 0] == pytest.approx(e_h * 8.0 * s2**2, rel=1e-8)


def test_estimate_is_deterministic():
    ts = AR1(theta=0.5).simulate(gaussian(), 1024, seed=7)
    tp = get_taper("tukey")
    a = whittle_estimate(ts, tp, AR1(theta=0.0))
    b = whittle_estimate(ts, tp, AR1(theta=0.0))
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.objective_value == b.objective_value
    assert a.sigma2_hat == b.sigma2_hat


def test_ar1_estimate_recovers_parameter():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    errs = []
    for rep in range(60):
        ts = m.simulate(gaussian(), 2048, seed=derive_seed(41, rep))
        fit = whittle_estimate(ts, tp, AR1(theta=0.0))
        assert fit.converged
        errs.append(abs(fit.theta_hat[0] - 0.5))
    assert np.median(errs) < 0.05


def test_ar1_estimate_attaches_taper_factor_covariance():
    ts = AR1(theta=0.5).simulate(gaussian(), 2048, seed=8)
    tp = get_taper("tukey")
    fit = whittle_estimate(ts, tp, AR1(theta=0.0))
    th = fit.theta_hat[0]
    assert fit.asym_cov[0, 0] == pytest.approx((35.0 / 18.0) * (1.0 - th**2), rel=1e-8)
    assert fit.se[0] == pytest.approx(math.sqrt(fit.asym_cov[0, 0] / 2048.0), rel=1e-12)


def test_covariance_is_computed_on_first_access(monkeypatch):
    import taperspec.whittle as whittle_mod

    calls = []
    real = whittle_mod.info_matrices
    monkeypatch.setattr(whittle_mod, "info_matrices",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    ts = AR1(theta=0.5).simulate(gaussian(), 512, seed=8)
    fit = whittle_estimate(ts, get_taper("tukey"), AR1(theta=0.0))
    assert calls == []
    se = fit.se
    assert calls == [1]
    assert fit.se is se and fit.asym_cov is fit.asym_cov
    assert calls == [1]
    assert not se.flags.writeable and not fit.asym_cov.flags.writeable


def test_singular_information_raises_on_covariance_access():
    ts = AR1(theta=0.5).simulate(gaussian(), 512, seed=8)
    fit = whittle_estimate(ts, get_taper("tukey"), _FlatScore(theta=0.0))
    assert fit.converged
    with pytest.raises(SingularInformationError):
        fit.se


def test_fisher_efficiency_corner_rect_taper():
    # Rectangular taper, Gaussian innovations, unit weight: the attached
    # covariance is exactly W^{-1} at the fitted point.
    ts = AR1(theta=0.5).simulate(gaussian(), 2048, seed=9)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0))
    th = fit.theta_hat[0]
    info = info_matrices(AR1(theta=th, sigma2=fit.sigma2_hat))
    assert fit.asym_cov[0, 0] == pytest.approx(1.0 / info.W[0, 0], rel=1e-8)
    assert fit.asym_cov[0, 0] == pytest.approx(1.0 - th**2, rel=1e-8)


def test_ar1_variance_matches_rect_limit():
    # Var(sqrt(T)(theta_hat - theta0)) -> 1 - theta0^2 for the rectangular
    # taper; moderate replication keeps this a smoke-level band.
    m = AR1(theta=0.5)
    rect = get_taper("rect")
    reps, T = 300, 2048
    est = np.empty(reps)
    for rep in range(reps):
        ts = m.simulate(gaussian(), T, seed=derive_seed(43, rep))
        est[rep] = whittle_estimate(ts, rect, AR1(theta=0.0)).theta_hat[0]
    ratio = T * np.var(est, ddof=1) / 0.75
    assert 0.8 < ratio < 1.25


def test_consistency_ladder():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    medians = []
    for T in (512, 2048, 8192):
        errs = []
        for rep in range(30):
            ts = m.simulate(gaussian(), T, seed=derive_seed(47 + T, rep))
            errs.append(abs(whittle_estimate(ts, tp, AR1(theta=0.0)).theta_hat[0] - 0.5))
        medians.append(float(np.median(errs)))
    assert medians[1] < medians[0]
    assert medians[2] < medians[1]


def test_long_memory_estimate():
    m = ARFIMA0d0(d=0.3)
    tp = get_taper("tukey")
    errs = []
    for rep in range(5):
        ts = m.simulate(gaussian(), 8192, seed=derive_seed(53, rep))
        fit = whittle_estimate(ts, tp, ARFIMA0d0(d=0.0))
        errs.append(abs(fit.theta_hat[0] - 0.3))
    assert np.median(errs) < 0.05


def test_fgn_estimate():
    ts = FGN(H=0.7).simulate(gaussian(), 2048, seed=3)
    fit = whittle_estimate(ts, get_taper("tukey"), FGN(H=0.5))
    assert abs(fit.theta_hat[0] - 0.7) < 0.07


def test_arma_two_parameter_estimate():
    m = ARMA(phi=(0.5,), theta=(0.3,), sigma2=1.0)
    ts = m.simulate(gaussian(), 2048, seed=44)
    fit = whittle_estimate(ts, get_taper("tukey"), ARMA(phi=(0.0,), theta=(0.0,)))
    assert fit.converged
    assert fit.iterations <= 2000
    assert abs(fit.theta_hat[0] - 0.5) < 0.1
    assert abs(fit.theta_hat[1] - 0.3) < 0.1


def test_bounds_override_restricts_search():
    ts = AR1(theta=0.5).simulate(gaussian(), 1024, seed=10)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0),
                           bounds=[(0.45, 0.55)])
    assert 0.45 <= fit.theta_hat[0] <= 0.55


def test_estimate_rejects_parameterless_model():
    ts = WhiteNoise().simulate(gaussian(), 64, seed=11)
    with pytest.raises(DomainError):
        whittle_estimate(ts, get_taper("rect"), _Parameterless())


# ----------------------------------------------------------- info matrices

def test_info_matrix_ar1_closed_forms():
    info0 = info_matrices(AR1(theta=0.0))
    assert info0.W[0, 0] == pytest.approx(1.0, abs=1e-10)
    info = info_matrices(AR1(theta=0.5))
    assert info.W[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert info.gamma[0, 0] == pytest.approx(0.75, rel=1e-10)
    assert np.array_equal(info.A, info.W)  # unit weight: A is W


@pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
def test_ar1_population_integrals_to_roundoff(theta):
    # W = (1/4pi) int s^2 and r(0) = int f both equal 1/(1 - theta^2); the
    # midpoint rule converges geometrically as the pole nears the circle.
    m = AR1(theta=theta)
    exact = 1.0 / (1.0 - theta**2)
    assert info_matrices(m).W[0, 0] == pytest.approx(exact, rel=1e-12)
    for degree in (None, 0):
        assert spectral_integral(m.density, degree=degree) == pytest.approx(exact, rel=1e-12)


def test_info_matrix_log_singular_short_memory_score():
    # At d = 0 the model is short memory but its d-score -2 ln|2 sin(lam/2)|
    # is infinite at the origin, which no node may touch; W = pi^2/6.
    info = info_matrices(parse_model("arfima0d0{d=0}"))
    assert info.W[0, 0] == pytest.approx(math.pi**2 / 6.0, rel=3.8e-4)


def test_info_matrix_kurtosis_term():
    assert np.allclose(info_matrices(AR1(theta=0.5), kappa4=0.0).B, 0.0, atol=0)
    # The AR(1) shape score integrates to zero, so the kurtosis term dies
    # and gamma is kurtosis-free.
    info6 = info_matrices(AR1(theta=0.5), kappa4=6.0)
    assert np.allclose(info6.B, 0.0, atol=1e-10)
    assert info6.gamma[0, 0] == pytest.approx(0.75, rel=1e-9)
    # The scale score does not integrate to zero: white noise keeps it.
    wn = info_matrices(WhiteNoise(sigma2=1.5), kappa4=6.0)
    assert wn.gamma[0, 0] == pytest.approx(1.5**2 * (2.0 + 6.0), rel=1e-9)


def test_info_matrix_long_memory():
    info = info_matrices(ARFIMA0d0(d=0.3))
    assert info.W[0, 0] == pytest.approx(math.pi**2 / 6.0, rel=1e-8)
    assert info.gamma[0, 0] == pytest.approx(6.0 / math.pi**2, rel=1e-8)
    assert np.allclose(info.B, 0.0, atol=1e-9)


def test_info_matrix_weighted():
    # w = 1 + 0.5 cos: for theta = 0 the W integral is unchanged (odd
    # cosine powers drop) while A picks up 3/16 from cos^4.
    w = lambda lam: 1.0 + 0.5 * np.cos(np.asarray(lam, float))
    info = info_matrices(AR1(theta=0.0), weight=w)
    assert info.W[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert info.A[0, 0] == pytest.approx(1.0 + 3.0 / 16.0, rel=1e-9)


def test_info_matrix_singular_score():
    with pytest.raises(SingularInformationError):
        info_matrices(_FlatScore(theta=0.3))


def test_info_matrix_parameterless_model():
    with pytest.raises(DomainError):
        info_matrices(_Parameterless())
