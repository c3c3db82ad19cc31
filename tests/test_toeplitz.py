"""Tapered Toeplitz traces and Gaussian quadratic-form laws."""

import math

import numpy as np
import pytest
import scipy.stats

from taperspec.errors import DivergenceError, DomainError, SizeGuardError
from taperspec.functionals import cosine, indicator, quadratic_form
from taperspec.models import AR1, ARFIMA0d0, WhiteNoise, derive_seed, gaussian, parse_model
from taperspec.taper import get_taper
from taperspec.toeplitz import (
    build_matrix,
    qf_cumulant,
    qf_distribution,
    trace_deviation,
    trace_limit,
    trace_product,
)


# ---------------------------------------------------------------- build

def test_white_noise_generator_gives_diagonal():
    tp = get_taper("tukey")
    a = build_matrix(WhiteNoise(sigma2=1.0), tp, 16)
    h = tp.values(16)
    assert np.allclose(a.matrix, np.diag(h**2), atol=0)


def test_callable_generator_matches_model_route():
    tp = get_taper("tukey")
    via_model = build_matrix(WhiteNoise(sigma2=1.0), tp, 8).matrix
    via_quad = build_matrix(lambda lam: np.full_like(np.asarray(lam, float),
                                                     1.0 / (2.0 * math.pi)), tp, 8).matrix
    assert np.allclose(via_quad, via_model, atol=1e-9)


def test_rect_taper_gives_classical_toeplitz():
    m = AR1(theta=0.6, sigma2=2.0)
    a = build_matrix(m, get_taper("rect"), 12).matrix
    for t in range(12):
        for s in range(12):
            assert a[t, s] == pytest.approx(float(m.covariance(abs(t - s))), rel=1e-12)


def test_tapered_entries_closed_form():
    m = AR1(theta=0.5)
    tp = get_taper("linear")
    h = tp.values(10)
    a = build_matrix(m, tp, 10).matrix
    assert np.allclose(a, a.T, atol=0)
    for t in range(10):
        assert a[t, t] == pytest.approx(float(m.covariance(0)) * h[t] ** 2, rel=1e-12)
    assert a[2, 5] == pytest.approx(float(m.covariance(3)) * h[2] * h[5], rel=1e-12)


def test_build_size_guard():
    with pytest.raises(SizeGuardError):
        build_matrix(WhiteNoise(), get_taper("rect"), 2049)


# --------------------------------------------------------------- traces

def test_trace_product_diagonal_pair_is_h4_mean():
    tp = get_taper("tukey")
    T = 128
    a = build_matrix(WhiteNoise(sigma2=1.0), tp, T)
    h = tp.values(T)
    assert trace_product([a, a]) == pytest.approx(float(np.mean(h**4)), rel=1e-13)


def test_trace_product_cyclic_invariance():
    tp = get_taper("tukey")
    T = 32
    mats = [build_matrix(p, tp, T) for p in (AR1(theta=0.4), cosine(1), indicator(1.0))]
    a, b, c = mats
    v1 = trace_product([a, b, c])
    v2 = trace_product([b, c, a])
    v3 = trace_product([c, a, b])
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert v1 == pytest.approx(v3, rel=1e-12)


def test_trace_product_arity_and_order_checks():
    tp = get_taper("rect")
    a = build_matrix(WhiteNoise(), tp, 8)
    b = build_matrix(WhiteNoise(), tp, 9)
    with pytest.raises(DomainError):
        trace_product([a])
    with pytest.raises(DomainError):
        trace_product([a, a, a, a, a])
    with pytest.raises(DomainError):
        trace_product([a, b])


def test_trace_limit_closed_forms():
    wn = WhiteNoise(sigma2=1.0)
    assert trace_limit([wn, wn], get_taper("rect")) == pytest.approx(1.0, rel=1e-10)
    # For m = 2 the taper enters through its fourth moment: each factor
    # carries h at both indices, so the diagonal pair must reproduce the
    # H4 limit that its finite-T trace (1/T) sum h^4 visibly converges to.
    tukey = get_taper("tukey")
    assert trace_limit([wn, wn], tukey) == pytest.approx(35.0 / 128.0, rel=1e-10)
    assert trace_limit([wn, lambda lam: np.zeros_like(np.asarray(lam, float))],
                       tukey) == pytest.approx(0.0, abs=1e-12)


def test_trace_limit_consistent_with_finite_traces():
    tukey = get_taper("tukey")
    wn = WhiteNoise(sigma2=1.0)
    lim = trace_limit([wn, wn], tukey)
    devs = [abs(trace_product([build_matrix(wn, tukey, T)] * 2) - lim)
            for T in (64, 256, 1024)]
    assert devs[1] < devs[0]
    assert devs[2] < devs[1]
    assert devs[-1] < 5e-3


def test_single_matrix_trace_invariant():
    # (1/T) tr A(psi) = psihat(0) (1/T) sum h^2 -> H2 int psi, for five
    # generator flavours including a long-memory density.
    tukey = get_taper("tukey")
    gens = [
        WhiteNoise(sigma2=1.3),
        AR1(theta=0.5),
        ARFIMA0d0(d=0.2),
        indicator(1.0),
        lambda lam: (1.0 + 0.5 * np.cos(np.asarray(lam, float))) / (2.0 * math.pi),
    ]
    for psi in gens:
        lim = trace_limit([psi], tukey)
        devs = [trace_deviation([psi], tukey, T) for T in (64, 256, 1024)]
        assert devs[1] < devs[0]
        assert devs[2] < devs[1]
        assert devs[-1] < 2e-3 * max(1.0, abs(lim))


def test_trace_deviation_rect_ar1_cosine_closed_form():
    m = AR1(theta=0.5)
    r1 = float(m.covariance(1))
    rect = get_taper("rect")
    for T in (64, 128, 256, 512, 1024):
        got = trace_deviation([m, cosine(1)], rect, T)
        assert got == pytest.approx(2.0 * math.pi * r1 / T, rel=1e-8)


def test_trace_deviation_tukey_sequence_decreases():
    m = AR1(theta=0.5)
    tukey = get_taper("tukey")
    devs = [trace_deviation([m, cosine(1)], tukey, T) for T in (64, 128, 256, 512, 1024)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.01


def test_trace_deviation_long_memory_pair():
    m = ARFIMA0d0(d=0.2)
    tukey = get_taper("tukey")
    devs = [trace_deviation([m, indicator(1.0)], tukey, T) for T in (128, 512)]
    assert devs[-1] < devs[0]
    assert devs[-1] < 0.05


@pytest.mark.parametrize("spec", ["arfima0d0{d=0.25}", "arfima0d0{d=0.3}",
                                  "fgn{H=0.75}", "fgn{H=0.8}"])
def test_trace_limit_divergent_product(spec):
    # f^2 ~ |lam|^{2 beta} with 2 beta <= -1: log-divergent at the boundary
    m = parse_model(spec)
    with pytest.raises(DivergenceError):
        trace_limit([m, m], get_taper("rect"))


@pytest.mark.parametrize("spec", ["arfima0d0{d=0.24}", "fgn{H=0.74}"])
def test_trace_limit_just_inside_the_boundary_is_finite(spec):
    m = parse_model(spec)
    limit = trace_limit([m, m], get_taper("rect"))
    assert math.isfinite(limit) and limit > 0.0


# ------------------------------------------------------------- cumulants

def test_qf_cumulant_first_order_is_expected_value():
    m = AR1(theta=0.5)
    g = cosine(1)
    tp = get_taper("tukey")
    T = 24
    h = tp.values(T)
    direct = 0.0
    for t in range(T):
        for s in range(T):
            direct += float(g.fourier(t - s)) * h[t] * h[s] * float(m.covariance(t - s))
    assert qf_cumulant(m, g, tp, T, 1) == pytest.approx(direct, rel=1e-12)


def test_qf_cumulant_guards():
    with pytest.raises(SizeGuardError):
        qf_cumulant(WhiteNoise(), cosine(1), get_taper("rect"), 1025, 2)
    with pytest.raises(DomainError):
        qf_cumulant(WhiteNoise(), cosine(1), get_taper("rect"), 64, 5)


def test_qf_cumulant_second_order_limit():
    # chi_2 / T -> 16 pi^3 H4 int f^2 g^2 for the AR(1) theta = 0.5,
    # g = cos pair, where int f^2 cos^2 = 31 / (27 pi).
    m = AR1(theta=0.5)
    g = cosine(1)
    tukey = get_taper("tukey")
    lim = 16.0 * math.pi**3 * (35.0 / 128.0) * 31.0 / (27.0 * math.pi)
    at_128 = qf_cumulant(m, g, tukey, 128, 2) / 128.0
    at_512 = qf_cumulant(m, g, tukey, 512, 2) / 512.0
    assert at_512 == pytest.approx(lim, rel=0.05)
    assert abs(at_512 - lim) < abs(at_128 - lim)


def test_qf_cumulant_ties_to_functional_variance():
    from taperspec.functionals import asymptotic_variance

    m = AR1(theta=0.5)
    g = cosine(1)
    tukey = get_taper("tukey")
    T = 512
    c_norm = 2.0 * math.pi * tukey.sum_of_powers(2, T)
    scaled = qf_cumulant(m, g, tukey, T, 2) * T / c_norm**2
    assert scaled == pytest.approx(asymptotic_variance(m, g, tukey), rel=0.05)


def test_qf_cumulants_match_monte_carlo():
    # Sample k-statistics of the simulated quadratic form against the
    # trace formulas, batched for honest standard errors.
    m = AR1(theta=0.5)
    g = cosine(1)
    tp = get_taper("tukey")
    T = 64
    reps, batches = 6000, 30
    q = np.empty(reps)
    for rep in range(reps):
        ts = m.simulate(gaussian(), T, seed=derive_seed(909, rep))
        q[rep] = quadratic_form(ts, tp, g)
    per_batch = q.reshape(batches, -1)
    for k in (1, 2, 3):
        stats = np.array([scipy.stats.kstat(b, k) for b in per_batch])
        est = float(np.mean(stats))
        se = float(np.std(stats, ddof=1) / math.sqrt(batches))
        chi = qf_cumulant(m, g, tp, T, k)
        assert abs(est - chi) < 3.0 * se, f"k={k}: {est} vs {chi} (se {se})"


# ----------------------------------------------------------- distribution

def test_qf_distribution_diagonal_case():
    dist = qf_distribution(WhiteNoise(sigma2=1.0), WhiteNoise(sigma2=1.0),
                           get_taper("rect"), 40)
    assert np.allclose(dist.eigenvalues, 1.0, atol=1e-12)
    assert dist.near_zero == 0
    assert dist.symmetrized
    draws = dist.sample(20000, seed=7)
    assert np.mean(draws) == pytest.approx(40.0, rel=0.05)
    assert np.var(draws) == pytest.approx(80.0, rel=0.1)


def test_qf_distribution_matches_nonsymmetric_spectrum():
    m = AR1(theta=0.5)
    g = cosine(1)
    tp = get_taper("tukey")
    dist = qf_distribution(m, g, tp, 32)
    from taperspec.toeplitz import _covariance_matrix

    prod = _covariance_matrix(m, 32) @ build_matrix(g, tp, 32).matrix
    raw = np.sort(np.linalg.eigvals(prod).real)[::-1]
    assert np.allclose(dist.eigenvalues, raw, atol=1e-8)


def test_qf_distribution_two_path_ks():
    m = AR1(theta=0.5)
    g = cosine(1)
    tp = get_taper("tukey")
    T = 64
    reps = 3000
    sim = np.empty(reps)
    for rep in range(reps):
        ts = m.simulate(gaussian(), T, seed=derive_seed(505, rep))
        sim[rep] = quadratic_form(ts, tp, g)
    dist = qf_distribution(m, g, tp, T)
    mix = dist.sample(reps, seed=606)
    stat = scipy.stats.ks_2samp(sim, mix).statistic
    assert stat < 0.05


def test_qf_distribution_rank_deficiency_reported():
    dist = qf_distribution(WhiteNoise(sigma2=1.0), cosine(5), get_taper("rect"), 4)
    assert dist.near_zero == 4
    assert np.allclose(dist.eigenvalues, 0.0, atol=0)
    assert np.allclose(dist.sample(10, seed=1), 0.0, atol=0)


def test_qf_distribution_indefinite_fallback():
    # cos(lam) is not a density; its "covariance" matrix is indefinite, so
    # the symmetrized route is unavailable and the plain eigensolve runs.
    dist = qf_distribution(lambda lam: np.cos(np.asarray(lam, float)),
                           indicator(1.0), get_taper("tukey"), 16)
    assert not dist.symmetrized
    from taperspec.toeplitz import _covariance_matrix

    prod = _covariance_matrix(lambda lam: np.cos(np.asarray(lam, float)), 16) @ \
        build_matrix(indicator(1.0), get_taper("tukey"), 16).matrix
    assert np.sum(dist.eigenvalues) == pytest.approx(float(np.trace(prod)), abs=1e-9)


def test_qf_distribution_size_guard():
    with pytest.raises(SizeGuardError):
        qf_distribution(WhiteNoise(), cosine(1), get_taper("rect"), 513)
