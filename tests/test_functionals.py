"""Spectral functionals: dual estimation routes, variances, smoothing bias."""

import logging
import math

import numpy as np
import pytest

from taperspec._quad import cosine_coefficient
from taperspec.functionals import (
    asymptotic_variance,
    cosine,
    custom,
    fejer_smoothing_error,
    indicator,
    plugin_estimate,
    quadratic_form,
    true_functional,
)
from taperspec.errors import DomainError
from taperspec.models import (AR1, ARFIMA0d0, FGN, ArfimaPDQ, WhiteNoise, derive_seed,
                              gaussian)
from taperspec.spectrum import canonical_grid, tapered_periodogram
from taperspec.taper import fejer_kernel, get_taper, tapering_factor

TAPER_NAMES = ("rect", "linear", "tukey")


# ------------------------------------------------------- generating functions

def test_cosine_fourier_coefficients():
    g = cosine(3)
    assert g.fourier(3) == math.pi
    assert g.fourier(-3) == math.pi
    assert g.fourier(2) == 0.0
    g0 = cosine(0)
    assert g0.fourier(0) == 2.0 * math.pi
    assert g0.fourier(1) == 0.0


def test_indicator_values_and_fourier():
    g = indicator(1.0)
    assert g.eval(0.5) == 0.5
    assert g.eval(-0.5) == 0.5
    assert g.eval(0.0) == 1.0
    assert g.eval(2.0) == 0.0
    assert g.fourier(0) == 1.0
    assert g.fourier(2) == pytest.approx(math.sin(2.0) / 2.0)
    with pytest.raises(ValueError):
        indicator(0.0)
    with pytest.raises(ValueError):
        indicator(4.0)


def test_custom_fourier_quadrature_matches_closed_form():
    g = custom(lambda lam: np.cos(2.0 * lam))
    assert g.fourier(2) == pytest.approx(math.pi, abs=1e-9)
    assert g.fourier(1) == pytest.approx(0.0, abs=1e-9)



def test_midpoint_rule_logs_when_it_stops_unconverged(caplog):
    # a jump at 1 slows the rule to algebraic convergence: it reaches its node
    # cap with lag 0 still about 1.2e-5 off its exact value 1, and says so
    with caplog.at_level(logging.WARNING, logger="taperspec._quad"):
        coefs = custom(lambda lam: 0.5 * (np.abs(lam) <= 1.0)).coefficients(63)
    assert abs(coefs[0] - 1.0) > 1e-6
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "not converged at 65536 nodes" in record.getMessage()


def test_midpoint_rule_is_silent_on_a_smooth_function(caplog):
    with caplog.at_level(logging.DEBUG, logger="taperspec._quad"):
        cosine_coefficient(lambda lam: 1.0 / (1.2 - np.cos(lam)), np.arange(64))
        custom(lambda lam: np.cos(2.0 * lam)).coefficients(63)
    assert not caplog.records

@pytest.mark.parametrize("a", [1.2, 1.05])
def test_cosine_coefficients_match_the_poisson_kernel(a):
    # 1 / (a - cos lam) = (2 / s) (1/2 + sum_u rho^u cos(u lam)), s = sqrt(a^2 - 1)
    # and rho = a - s: its coefficients are 2 pi rho^u / s; at a = 1.05 they
    # decay only like 0.73^u, so the rule must refine past the first level
    lags = np.arange(200)
    s = math.sqrt(a * a - 1.0)
    exact = 2.0 * math.pi * (a - s) ** lags / s
    got = cosine_coefficient(lambda lam: 1.0 / (a - np.cos(lam)), lags)
    assert np.max(np.abs(got - exact)) <= 1e-13 * exact[0]
    assert cosine_coefficient(lambda lam: 1.0 / (a - np.cos(lam)), 3) == pytest.approx(
        exact[3], rel=1e-13)


# ------------------------------------------------------------ true functional

def test_true_functional_cosine_equals_covariance():
    m = AR1(theta=0.5, sigma2=1.0)
    for u in (0, 1, 5):
        assert true_functional(m, cosine(u)) == pytest.approx(
            float(m.covariance(u)), rel=1e-12
        )


def test_true_functional_long_memory_cosine():
    m = ARFIMA0d0(d=0.2)
    assert true_functional(m, cosine(1)) == pytest.approx(float(m.covariance(1)), rel=1e-12)


def test_true_functional_white_noise_indicator():
    m = WhiteNoise(sigma2=2.0)
    assert true_functional(m, indicator(1.3)) == pytest.approx(2.0 * 1.3 / (2.0 * math.pi),
                                                              rel=1e-10)


def test_true_functional_ar1_indicator_closed_form():
    theta, mu = 0.5, 1.2
    m = AR1(theta=theta, sigma2=1.0)
    closed = (1.0 / (2.0 * math.pi)) * (2.0 / (1.0 - theta**2)) * math.atan(
        ((1.0 + theta) / (1.0 - theta)) * math.tan(mu / 2.0)
    )
    assert true_functional(m, indicator(mu)) == pytest.approx(closed, rel=1e-13, abs=0.0)


# -------------------------------------------------------- dual-route identity

@pytest.mark.parametrize("name", TAPER_NAMES)
def test_plugin_times_norm_equals_quadratic_form(name):
    # Exact identity for band-limited weights on a canonical grid.
    tp = get_taper(name)
    m = AR1(theta=0.6)
    for rep in range(5):
        ts = m.simulate(gaussian(), 256, seed=derive_seed(101, rep))
        pg = tapered_periodogram(ts, tp)
        for u in (0, 1, 4):
            g = cosine(u)
            lhs = plugin_estimate(pg, g) * pg.c_norm
            rhs = quadratic_form(ts, tp, g)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_quadratic_form_matches_direct_double_sum():
    rng = np.random.default_rng(3)
    T = 48
    x = rng.standard_normal(T)
    tp = get_taper("tukey")
    h = tp.values(T)
    for g in (cosine(3), indicator(1.0)):
        direct = 0.0
        for t in range(1, T + 1):
            for s in range(1, T + 1):
                direct += float(g.fourier(t - s)) * h[t - 1] * h[s - 1] * x[t - 1] * x[s - 1]
        assert quadratic_form(x, tp, g) == pytest.approx(direct, rel=1e-10)


def test_covariance_estimate_zero_lag_is_tapered_energy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(200)
    for name in TAPER_NAMES:
        tp = get_taper(name)
        h = tp.values(200)
        expect = float(np.sum(h**2 * x**2) / np.sum(h**2))
        assert plugin_estimate(tapered_periodogram(x, tp), cosine(0)) == pytest.approx(
            expect, rel=1e-12)


# -------------------------------------------------------- asymptotic variance

def test_variance_white_noise_mean_square():
    # g = 1: J_T estimates r(0); classic limit sigma^4 (2 + kappa4) scaled
    # by the tapering factor.
    m = WhiteNoise(sigma2=1.5)
    for name in TAPER_NAMES:
        tp = get_taper(name)
        e_h = {"rect": 1.0, "linear": 9.0 / 5.0, "tukey": 35.0 / 18.0}[name]
        got = asymptotic_variance(m, cosine(0), tp, kappa4=6.0)
        assert got == pytest.approx(1.5**2 * e_h * (2.0 + 6.0), rel=1e-8)


def test_variance_ar1_cosine_closed_form():
    # For f of AR(1) with theta=0.5, sigma2=1 and g = cos:
    # 4 pi int f^2 cos^2 = 124/27, and the kurtosis term adds
    # kappa4 r(1)^2 = kappa4 (2/3)^2.
    m = AR1(theta=0.5, sigma2=1.0)
    rect = get_taper("rect")
    assert asymptotic_variance(m, cosine(1), rect) == pytest.approx(124.0 / 27.0, rel=1e-9)
    with_k4 = asymptotic_variance(m, cosine(1), rect, kappa4=6.0)
    assert with_k4 == pytest.approx(124.0 / 27.0 + 6.0 * (2.0 / 3.0) ** 2, rel=1e-9)
    tukey = get_taper("tukey")
    assert asymptotic_variance(m, cosine(1), tukey) == pytest.approx(
        (35.0 / 18.0) * 124.0 / 27.0, rel=1e-9
    )


@pytest.mark.parametrize("u", [1, 64, 256, 512, 4096])
def test_variance_ar1_high_cosine_against_lag_sum(u):
    # int f^2 cos^2(u lam) = c(0)/2 + c(2u)/2 with c(k) = int f^2 e^{ik lam}
    # = (1/2pi) sum_s r(s) r(k - s).  A quadrature that aliases cos(2u lam)
    # onto a constant returns about twice the c(0)/2 term for large u.
    theta = 0.5
    m = AR1(theta=theta, sigma2=1.0)
    tukey = get_taper("tukey")

    r = lambda lag: theta ** np.abs(lag) / (1.0 - theta**2)

    def c(k):
        s = np.arange(-80, k + 81)
        return float(np.sum(r(s) * r(k - s))) / (2.0 * math.pi)

    f2g2 = 0.5 * c(0) + 0.5 * c(2 * u)
    expected = 4.0 * math.pi * tapering_factor(tukey) * f2g2
    assert asymptotic_variance(m, cosine(u), tukey) == pytest.approx(expected, rel=1e-12)


def test_variance_spectral_function_white_noise():
    # T Var(F_hat(pi)) = sigma^4 / 2 for the rectangular taper: the
    # even-symmetrized indicator feeds the generic formula with no extra
    # factor of 2.
    m = WhiteNoise(sigma2=1.0)
    got = asymptotic_variance(m, indicator(math.pi), get_taper("rect"))
    assert got == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("model, converges", [
    (ARFIMA0d0(0.24), True), (ARFIMA0d0(0.25), False), (ARFIMA0d0(0.3), False),
    (ArfimaPDQ(0.24, phi=(0.4,)), True), (ArfimaPDQ(0.25, phi=(0.4,)), False),
    (FGN(0.74), True), (FGN(0.75), False), (FGN(0.8), False),
])
@pytest.mark.parametrize("g", [cosine(1), indicator(1.0)], ids=["cosine", "indicator"])
def test_variance_limit_refused_where_it_diverges(model, converges, g):
    # f ~ |lam|^beta at the origin (beta = -2d, or 1 - 2H) and g is bounded away
    # from 0 there, so int f^2 g^2 converges iff 2 beta > -1.  Quadrature of the
    # divergent integral returned a negative variance (-246.5 at d = 0.3).
    tukey = get_taper("tukey")
    if converges:
        assert asymptotic_variance(model, g, tukey) > 0.0
    else:
        with pytest.raises(DomainError, match="diverges"):
            asymptotic_variance(model, g, tukey)


def test_variance_limit_integrates_a_custom_g_as_given():
    # g = sin^2 vanishes like lam^2 at the origin, so f^2 g^2 ~ |lam|^2.8 there
    with pytest.raises(DomainError, match=r"f\^2 ~ \|lam\|\^-1.2"):
        asymptotic_variance(ARFIMA0d0(0.3), cosine(1), get_taper("tukey"))
    vanishing = custom(lambda lam: np.sin(lam) ** 2, label="sin^2")
    assert asymptotic_variance(ARFIMA0d0(0.3), vanishing, get_taper("tukey")) > 0.0


def test_variance_limit_refuses_a_custom_g_nonzero_at_the_origin():
    # at d = 0.26, f^2 ~ |lam|^-1.04: int f^2 g^2 diverges unless g(0) = 0
    # (quadrature of the divergent integral with g = 1 returned 18,494.13)
    from scipy.integrate import quad

    rect = get_taper("rect")
    with pytest.raises(DomainError, match=r"diverges for arfima0d0\{d=0.26\} and custom"):
        asymptotic_variance(ARFIMA0d0(0.26), custom(lambda lam: np.ones_like(lam)), rect)
    # g = |lam| vanishes there: 4 pi e(h) int f^2 lam^2, e(h) = 1, by QUADPACK
    half, _ = quad(lambda lam: (2.0 * math.sin(lam / 2.0)) ** -1.04 * lam * lam, 0.0, math.pi,
                   epsabs=1e-13, epsrel=1e-13)
    assert asymptotic_variance(ARFIMA0d0(0.26), custom(np.abs), rect) == pytest.approx(
        8.0 * math.pi * half, rel=1e-12)


def test_variance_spectral_function_monte_carlo():
    # Empirical check of the factor above: iid N(0,1), F_hat(pi) = half the
    # tapered sample energy.
    m = WhiteNoise(sigma2=1.0)
    tp = get_taper("rect")
    reps, T = 3000, 512
    vals = np.empty(reps)
    for rep in range(reps):
        ts = m.simulate(gaussian(), T, seed=derive_seed(55, rep))
        vals[rep] = plugin_estimate(tapered_periodogram(ts, tp), indicator(math.pi))
    scaled = T * np.var(vals)
    assert scaled == pytest.approx(0.5, rel=0.12)


def test_plugin_estimate_is_consistent():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    reps, T = 400, 512
    vals = np.empty(reps)
    for rep in range(reps):
        ts = m.simulate(gaussian(), T, seed=derive_seed(77, rep))
        vals[rep] = plugin_estimate(tapered_periodogram(ts, tp), cosine(1))
    assert np.mean(vals) == pytest.approx(2.0 / 3.0, abs=0.03)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("g", [cosine(0), cosine(3), indicator(1.0), indicator(math.pi)],
                         ids=["cosine0", "cosine3", "indicator1", "indicatorpi"])
def test_estimators_match_their_inline_formulas_bitwise(g, shifted):
    # the kept grid values and Fourier coefficients give the bits that
    # evaluating g afresh in every call gave
    tp = get_taper("tukey")
    for T in (200, 256):
        grid = canonical_grid(T, shifted)
        for seed in range(2):
            ts = AR1(theta=0.4).simulate(gaussian(), T, seed=seed)
            pg = tapered_periodogram(ts, tp, shifted)
            gvals = grid.fold(np.asarray(g.eval(grid.points), dtype=float))
            assert plugin_estimate(pg, g) == float(np.sum(pg.node_values * gvals) * grid.weight)
            y = tp.values(T) * ts.values
            max_lag = T - 1 if g.degree is None else min(g.degree, T - 1)
            c = np.array([float(np.dot(y[: T - u], y[u:])) for u in range(max_lag + 1)])
            if max_lag > 64:  # the FFT route of _lagged_products
                n = 1 << int(math.ceil(math.log2(2 * T)))
                spec = np.fft.rfft(y, n)
                c = np.fft.irfft(spec.real**2 + spec.imag**2, n)[: max_lag + 1]
            ghat = np.atleast_1d(g.fourier(np.arange(max_lag + 1)))
            assert quadratic_form(ts, tp, g) == float(ghat[0] * c[0]
                                                      + 2.0 * np.dot(ghat[1:], c[1:]))
        assert pg.grid is grid and g.on_grid(grid) is g.on_grid(canonical_grid(T, shifted))
        assert not g.on_grid(grid).flags.writeable


def test_grid_values_are_kept_per_grid_size_not_per_grid():
    g = indicator(0.7)
    a = g.on_grid(canonical_grid(512, False))
    assert canonical_grid(511, False) is not canonical_grid(512, False)
    assert g.on_grid(canonical_grid(511, False)) is a  # same N = 2048, same points
    assert g.on_grid(canonical_grid(512, True)) is not a
    assert g.coefficients(9) is g.coefficients(9)
    assert np.array_equal(g.coefficients(9), g.fourier(np.arange(10)))


# ------------------------------------------------------------- smoothing bias

def test_smoothing_bias_zero_for_white_noise_indicator():
    m = WhiteNoise(sigma2=1.7)
    for name in TAPER_NAMES:
        got = fejer_smoothing_error(m, indicator(1.1), get_taper(name), 64)
        assert got == pytest.approx(0.0, abs=1e-14)


def test_smoothing_bias_ar1_cosine_rect_closed_form():
    m = AR1(theta=0.5)
    r1 = float(m.covariance(1))
    for T in (16, 128, 1024):
        got = fejer_smoothing_error(m, cosine(1), get_taper("rect"), T)
        assert got == pytest.approx(-r1 / T, rel=1e-12)


def test_smoothing_bias_matches_kernel_convolution():
    # Independent route: E[I] = (F_2 * f) by dense circular convolution.
    T = 16
    tp = get_taper("tukey")
    m = AR1(theta=0.5)
    g = cosine(1)
    n = 2048
    lam = -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n
    w = 2.0 * math.pi / n
    f2 = fejer_kernel(tp, 2, T, 2.0 * math.pi * np.arange(n) / n)
    f = m.density(lam)
    expected_i = np.real(np.fft.ifft(np.fft.fft(f2) * np.fft.fft(f))) * w
    expected_j = float(np.sum(expected_i * g.eval(lam)) * w)
    direct = fejer_smoothing_error(m, g, tp, T) + true_functional(m, g)
    assert expected_j == pytest.approx(direct, rel=1e-10)


def test_smoothing_bias_shrinks_with_sample_size():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    g = indicator(1.0)
    vals = [abs(fejer_smoothing_error(m, g, tp, T)) for T in (16, 64, 256)]
    assert vals[1] < vals[0]
    assert vals[2] < vals[1]
