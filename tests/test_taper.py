"""Taper moments, Dirichlet sums, and Fejer kernel properties.

Closed-form oracles used below (h on [0,1], H_k = int h^k):

    rectangular: H_k = 1 for all k, e(h) = 1
    linear 1-t:  H_k = 1/(k+1)  -> H_2 = 1/3, H_4 = 1/5, e(h) = 9/5
    tukey (1-cos(pi t))/2: H_1 = 1/2, H_2 = 3/8, H_3 = 5/16,
                           H_4 = 35/128, e(h) = 35/18
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperspec import errors, taper
from taperspec.taper import (
    dirichlet_kernel,
    fejer_kernel,
    get_taper,
    taper_moment,
    tapering_factor,
)

CLOSED_FORM = {
    "rect": {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, "e": 1.0},
    "linear": {1: 0.5, 2: 1.0 / 3.0, 3: 0.25, 4: 0.2, "e": 9.0 / 5.0},
    "tukey": {1: 0.5, 2: 3.0 / 8.0, 3: 5.0 / 16.0, 4: 35.0 / 128.0, "e": 35.0 / 18.0},
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_moments_match_closed_forms(name):
    tp = get_taper(name)
    for k in (1, 2, 3, 4):
        assert taper_moment(tp, k) == pytest.approx(CLOSED_FORM[name][k], abs=1e-10)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_tapering_factor(name):
    assert tapering_factor(get_taper(name)) == pytest.approx(CLOSED_FORM[name]["e"], abs=1e-10)


def test_builtin_moments_are_the_closed_forms():
    # rect 1, linear 1/(k+1), Tukey-Hanning C(2k,k)/4^k (Wallis' integral);
    # the Tukey values are dyadic, so they are exact doubles
    for k in range(1, 9):
        assert taper_moment(get_taper("rect"), k) == 1.0
        assert taper_moment(get_taper("tukey"), k) == float(Fraction(math.comb(2 * k, k), 4**k))
        linear = float(Fraction(1, k + 1))
        assert abs(taper_moment(get_taper("linear"), k) - linear) <= math.ulp(linear)


def test_tukey_tapering_factor_is_exactly_35_over_18():
    assert tapering_factor(get_taper("tukey")) == 35 / 18


def test_tapering_factor_moves_within_the_former_quadrature_tolerance():
    # e(h) as adaptive Simpson (absolute tolerance 1e-12 per moment) gave it
    assert tapering_factor(get_taper("tukey")) == pytest.approx(1.9444444444444677, rel=1e-11)
    assert tapering_factor(get_taper("linear")) == pytest.approx(1.8, rel=1e-11)


def test_custom_taper_keeps_every_moment(monkeypatch):
    tp = taper.custom("parabola", lambda t: np.asarray(t) * (1.0 - np.asarray(t)))
    orders = range(1, 13)
    first = [tp.moment(k) for k in orders]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("moment integrated twice")

    monkeypatch.setattr(taper, "adaptive_simpson", no_quadrature)
    assert [tp.moment(k) for k in orders] == first
    # int (t(1-t))^k = k!^2 / (2k+1)!, the Beta function B(k+1, k+1)
    for k, val in zip(orders, first):
        exact = math.factorial(k) ** 2 / math.factorial(2 * k + 1)
        assert val == pytest.approx(exact, abs=1e-11)


def test_tapering_factor_at_least_one():
    # Cauchy-Schwarz: H_2^2 <= H_4 * H_0-ish; e(h) >= 1 with equality only for
    # tapers that are constant where positive.
    for name in CLOSED_FORM:
        assert tapering_factor(get_taper(name)) >= 1.0 - 1e-12


def test_discrete_sum_convention():
    # Linear taper, T = 4: h(1/4) + h(2/4) + h(3/4) + h(1) = 1.5
    tp = get_taper("linear")
    assert tp.sum_of_powers(1, 4) == pytest.approx(1.5, abs=1e-14)
    assert dirichlet_kernel(tp, 1, 4, 0.0) == pytest.approx(1.5 + 0.0j, abs=1e-14)


def test_dirichlet_direct_sum_oracle():
    tp = get_taper("tukey")
    T = 17
    lam = 0.73
    h = tp.values(T)
    expect = sum(h[t - 1] * np.exp(-1j * lam * t) for t in range(1, T + 1))
    assert dirichlet_kernel(tp, 1, T, lam) == pytest.approx(expect, abs=1e-12)


def test_dirichlet_vectorized_matches_scalar():
    tp = get_taper("linear")
    lam = np.linspace(-math.pi, math.pi, 7)
    vec = dirichlet_kernel(tp, 2, 33, lam)
    for i, x in enumerate(lam):
        assert vec[i] == pytest.approx(dirichlet_kernel(tp, 2, 33, float(x)), abs=1e-12)


def _full_period_grid(n):
    # Trapezoid on [-pi, pi] with endpoints identified: exact for trig polys
    # of degree < n.
    lam = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return lam, 2.0 * math.pi / n


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
@pytest.mark.parametrize("T", [8, 33, 128])
def test_fejer2_normalization_exact(name, T):
    tp = get_taper(name)
    n = 1 << max(6, (2 * T + 2).bit_length())
    lam, w = _full_period_grid(n)
    vals = fejer_kernel(tp, 2, T, lam)
    assert np.all(vals >= -1e-15)
    assert float(np.sum(vals) * w) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", ["rect", "tukey"])
def test_fejer3_normalization_exact(name):
    tp = get_taper(name)
    T = 12
    n = 64
    lam, w = _full_period_grid(n)
    u1, u2 = np.meshgrid(lam, lam, indexing="ij")
    pts = np.stack([u1, u2], axis=-1)
    vals = fejer_kernel(tp, 3, T, pts)
    total = np.sum(vals) * w * w
    assert total.real == pytest.approx(1.0, abs=1e-10)
    assert abs(total.imag) < 1e-10


def test_fejer2_concentrates_near_zero():
    tp = get_taper("tukey")
    delta = 0.5
    masses = []
    for T in (16, 64, 256, 1024):
        n = 1 << (2 * T + 2).bit_length()
        lam, w = _full_period_grid(n)
        vals = fejer_kernel(tp, 2, T, lam)
        masses.append(float(np.sum(vals[np.abs(lam) > delta]) * w))
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 1e-2


def test_fejer_rejects_unsupported_order():
    with pytest.raises(errors.UnsupportedArityError):
        fejer_kernel(get_taper("rect"), 4, 16, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, u", [(2, [0.0, 1.0]), (3, [[0.0, 1.0]])])
def test_fejer_refuses_a_taper_that_vanishes_on_the_sample(k, u):
    # the linear taper is h(1) = 0 at T = 1, so sum h^k = 0 and no
    # normalization exists
    with pytest.raises(errors.DomainError, match="'linear' vanishes on the sample"):
        fejer_kernel(get_taper("linear"), k, 1, u)
    assert np.all(np.isfinite(fejer_kernel(get_taper("linear"), k, 2, u)))


def test_custom_taper_rejects_negative():
    with pytest.raises(errors.InvalidTaperError):
        taper.custom("bad", lambda t: np.cos(3.0 * math.pi * np.asarray(t)))


def test_custom_taper_rejects_zero():
    with pytest.raises(errors.InvalidTaperError):
        taper.custom("null", lambda t: np.zeros_like(np.asarray(t, dtype=float)))


def test_unknown_name_rejected():
    with pytest.raises(errors.InvalidTaperError):
        get_taper("hamming")


def test_custom_scalar_function_accepted():
    tp = taper.custom("parabola", lambda t: float(t) * (1.0 - float(t)))
    # int t(1-t) = 1/6; int t^2(1-t)^2 = 1/30
    assert tp.moment(1) == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert tp.moment(2) == pytest.approx(1.0 / 30.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    T=st.integers(min_value=2, max_value=64),
)
def test_dirichlet_at_zero_equals_power_sum(k, T):
    tp = get_taper("linear")
    val = dirichlet_kernel(tp, k, T, 0.0)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(tp.sum_of_powers(k, T), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=-math.pi, max_value=math.pi))
def test_fejer2_is_even_for_symmetric_sums(lam):
    # |H_1(lam)|^2 = |H_1(-lam)|^2 for any real taper.
    tp = get_taper("tukey")
    a = fejer_kernel(tp, 2, 31, lam)
    b = fejer_kernel(tp, 2, 31, -lam)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
