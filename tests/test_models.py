"""Model densities, scores, covariances, simulators, and the CLI grammar."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taperspec import models
from taperspec.errors import DomainError, SchemaError
from taperspec.models import (
    AR1,
    ARMA,
    ARFIMA0d0,
    ArfimaPDQ,
    FGN,
    FrequencyConstants,
    WhiteNoise,
    centered_exponential,
    derive_seed,
    gaussian,
    get_driver,
    laplace,
    make_rng,
    parse_model,
)
from taperspec.spectrum import canonical_grid


# ------------------------------------------------------- graded-mesh oracle

def even_nodes(n: int, graded: bool = False) -> np.ndarray:
    """Nodes in (0, pi] for integrating an even function over [-pi, pi].

    With graded=True the nodes follow pi * (j/n)^2, clustering near the
    origin so that integrable singularities (long-memory poles) are resolved.
    The origin itself is excluded; the first cell is closed by treating the
    integrand as its value at the first node (safe for any integrable pole
    because the cell width shrinks like n^-2).
    """
    j = np.arange(1, n + 1, dtype=float)
    if graded:
        return math.pi * (j / n) ** 2
    return math.pi * j / n


def integrate_even(values: np.ndarray, nodes: np.ndarray) -> float:
    """Trapezoid integral of an even function over [-pi, pi].

    `values` holds the integrand at `nodes` (inside (0, pi]); the value at 0
    is extrapolated as values[0], which for graded meshes contributes
    O(width of first cell).  This rule shares no code with the library's
    quadrature, which makes it an independent check on it.
    """
    x = np.concatenate(([0.0], nodes))
    y = np.concatenate(([values[0]], values))
    return 2.0 * float(np.trapezoid(y, x))


# ---------------------------------------------------------------- densities

def test_white_noise_density_constant():
    m = WhiteNoise(sigma2=2.0)
    lam = np.linspace(-math.pi, math.pi, 9)
    assert np.allclose(m.density(lam), 1.0 / math.pi)


def test_ar1_density_values():
    m = AR1(theta=0.5, sigma2=1.0)
    assert m.density(0.0) == pytest.approx(1.0 / (2.0 * math.pi * 0.25), rel=1e-12)
    assert m.density(math.pi) == pytest.approx(1.0 / (2.0 * math.pi * 2.25), rel=1e-12)


@pytest.mark.parametrize("theta", [0.5, 0.99, 0.999])
def test_ar1_density_integrates_to_variance_near_unit_root(theta):
    # r(0) = 1/(1 - theta^2); the density's denominator (1 - theta)^2 +
    # theta (2 sin(lam/2))^2 keeps its relative precision near lam = 0
    from taperspec._quad import spectral_integral

    exact = 1.0 / (1.0 - theta**2)
    assert spectral_integral(AR1(theta=theta).density) == pytest.approx(exact, rel=1e-13)


def test_arfima_density_pinned_value():
    m = ARFIMA0d0(d=0.25)
    assert m.density(math.pi) == pytest.approx(2.0**-0.5, rel=1e-12)
    assert m.density(-math.pi) == pytest.approx(2.0**-0.5, rel=1e-12)


def test_arfima_density_diverges_at_origin():
    m = ARFIMA0d0(d=0.3)
    assert math.isinf(m.density(0.0))
    assert ARFIMA0d0(d=-0.3).density(0.0) == 0.0


def test_arma_density_reduces_to_ar1():
    lam = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(
        ARMA(phi=(0.4,), sigma2=1.5).density(lam), AR1(theta=0.4, sigma2=1.5).density(lam)
    )


def test_arfima_pdq_density_factors():
    lam = np.linspace(0.1, 3.0, 7)
    m = ArfimaPDQ(d=0.2, phi=(0.3,), theta=(0.1,), sigma2=1.3)
    arma = ARMA(phi=(0.3,), theta=(0.1,), sigma2=1.3)
    frac = (2.0 * np.sin(lam / 2.0)) ** (-0.4)
    assert np.allclose(m.density(lam), frac * arma.density(lam), rtol=1e-12)


def test_fgn_density_integrates_to_unit_variance():
    # Normalization is the closed form c(H); cross-check with an
    # independent graded trapezoid rule.
    for H in (0.3, 0.5, 0.7):
        m = FGN(H)
        nodes = even_nodes(1 << 15, graded=H != 0.5)
        total = integrate_even(m.density(nodes), nodes)
        assert total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_fgn_closed_form_constant_gives_unit_variance(H):
    # c(H) = sin(pi H) Gamma(2H+1) / (2 pi) is exact for the full aliased
    # sum, which the density sums in closed form, so adaptive quadrature
    # of the density must give r(0) = 1.
    from taperspec._quad import spectral_integral

    m = FGN(H)
    assert m._norm() == math.sin(math.pi * H) * math.gamma(2 * H + 1) / (2 * math.pi)
    total = spectral_integral(m.density, exponent=m.origin_exponent if m.long_memory else None)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("H", [0.1, 0.3, 0.7, 0.9, 0.95, 0.99])
def test_fgn_density_integrates_to_one_within_the_quadrature_tolerance(H):
    # the former |k| <= 100 cut-off left 2.5e-7 at H = 0.1, and its
    # 2 - 2 cos(lam) cancellation stalled QUADPACK's extrapolation at the
    # pole for H >= 0.9 (an IntegrationWarning, 1e-8 off); the graded
    # Gauss rule with the origin exponent 1 - 2H resolves the pole
    from taperspec._quad import spectral_integral

    m = FGN(H)
    assert abs(spectral_integral(m.density, exponent=m.origin_exponent) - 1.0) <= 1e-13


def _qawo_split(fn, u: int) -> float:
    """int_{-pi}^{pi} fn(lam) cos(u lam) dlam for an even fn with a pole at
    the origin, u >= 1.  QAWO cannot extrapolate through an endpoint pole,
    so [0, a] goes through plain adaptive Gauss-Kronrod (cos is smooth there
    when a u is of order one) and only [a, pi] through the oscillatory rule."""
    from scipy.integrate import quad

    def scalar_fn(x: float) -> float:
        return float(np.asarray(fn(np.array([x])))[0])

    a = min(math.pi / 2.0, 2.0 / u)
    v1, _ = quad(lambda x: scalar_fn(x) * math.cos(u * x), 0.0, a,
                 limit=200, epsabs=1e-9, epsrel=1e-9)
    v2, _ = quad(scalar_fn, a, math.pi, weight="cos", wvar=float(u),
                 limit=400, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * (v1 + v2)


_ARFIMA_R0_CASES = (
    [f"arfima0d0{{d={d}}}" for d in (-0.45, 0.3, 0.45, 0.49)]
    + [f"arfima_pdq{{d={d},phi={phi},theta={theta},sigma2=1.3}}" for d in (-0.45, 0.2, 0.45)
       for phi, theta in (("[]", "[]"), ("[0.4]", "[]"), ("[]", "[0.3]"),
                          ("[0.5,-0.2]", "[0.3]"))])


@pytest.mark.parametrize("spec", _ARFIMA_R0_CASES)
def test_arfima_density_integrates_to_its_variance(spec):
    # r(0) in closed form (the Gamma ratio, the convolution identity)
    # against the graded Gauss rule with the model's origin exponent
    from taperspec._quad import spectral_integral

    m = parse_model(spec)
    total = spectral_integral(m.density, exponent=m.origin_exponent)
    assert total == pytest.approx(m.covariance(0), rel=1e-13)


def test_fgn_at_one_half_is_white_noise():
    # sum_k (lam + 2 pi k)^{-2} = 1 / (2 sin(lam/2))^2, so f = 1 / 2pi
    lam = np.linspace(1e-3, math.pi, 4001)
    f = FGN(0.5).density(np.concatenate((-lam, lam)))
    assert np.max(np.abs(f - 1.0 / (2.0 * math.pi))) <= 1e-13


def test_fgn_covariances_against_density_quadrature():
    # r(u) closed form versus oscillatory quadrature of the density: an
    # independent check that the aliased-power-law density matches the
    # increment covariance of fractional Brownian motion.
    H = 0.7
    m = FGN(H)
    for u in (1, 2):
        quad_val = _qawo_split(m.density, u)
        closed = 0.5 * (
            (u + 1.0) ** (2 * H) - 2.0 * u ** (2 * H) + (u - 1.0) ** (2 * H)
        )
        assert quad_val == pytest.approx(closed, abs=1e-7)


_EVERY_FAMILY = [
    WhiteNoise(sigma2=1.7),
    AR1(theta=0.6, sigma2=1.3),
    ARMA(phi=(0.5, -0.2), theta=(0.3,), sigma2=0.8),
    ARFIMA0d0(d=0.3),
    ArfimaPDQ(d=0.2, phi=(0.4,), theta=(-0.3,), sigma2=1.4),
    FGN(H=0.7),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", _EVERY_FAMILY, ids=lambda m: m.family)
def test_density_through_shared_constants_is_bit_identical(m):
    # a search reuses one FrequencyConstants for every candidate; it must give
    # exactly the values of a plain call, on both canonical grid variants
    # (offset 1 samples the origin)
    for offset in (1.0, 0.5):
        lam = -math.pi + 2.0 * math.pi * (np.arange(512) + offset) / 512
        shared = FrequencyConstants(lam)
        first = m.density(shared)
        again = m.density(shared)
        plain = m.density(lam)
        assert not np.isnan(plain).any()
        assert np.array_equal(first, plain)
        assert np.array_equal(again, plain)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fgn_density_at_origin():
    # the limit of |lam|^{1-2H} at 0, not 0 * inf; other nodes keep their bits
    lam = np.array([0.0, 0.3, -0.0, -1.2])
    for H, limit in ((0.7, math.inf), (0.3, 0.0)):
        m = FGN(H)
        assert m.density(0.0) == limit
        vals = m.density(lam)
        assert vals[0] == vals[2] == limit
        assert np.array_equal(vals[[1, 3]], m.density(lam[[1, 3]]))
    white = FGN(0.5)  # the k = 0 term alone keeps its limit 1
    at_origin = white.density(0.0)
    assert at_origin == white._norm()
    assert at_origin == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-8)


@pytest.mark.parametrize("m", [
    ARMA(phi=(0.5, -0.2), sigma2=0.8),
    ARMA(theta=(0.3,), sigma2=0.8),
    ARMA(sigma2=0.8),
    ArfimaPDQ(d=0.2, sigma2=1.4),
    ArfimaPDQ(d=0.2, theta=(-0.3,), sigma2=1.4),
], ids=lambda m: m.describe())
def test_unit_polynomial_factors_skipped_bitwise(m):
    # an order-0 polynomial is identically 1; skipping it must not move a bit
    lam = -math.pi + 2.0 * math.pi * (np.arange(256) + 0.5) / 256
    z = np.exp(-1j * lam)
    num = np.abs(np.polyval(m._b[::-1], z)) ** 2
    den = np.abs(np.polyval(m._a[::-1], z)) ** 2
    top = m.sigma2
    if isinstance(m, ArfimaPDQ):
        top = top * (2.0 * np.sin(np.abs(lam) / 2.0)) ** (-2.0 * m.d)
    assert np.array_equal(m.density(lam), top * num / (2.0 * math.pi * den))



@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0).map(lambda v: v + 0.0), min_size=1, max_size=7),
       lead=st.sampled_from((None, 0.0, -1.5)))
def test_horner_is_polyval_bitwise(coeffs, lead):
    # real coefficients of degree 0-6 on e^{-i lam} and e^{+i lam} of a
    # canonical grid, with zero and negative leading coefficients drawn on
    # purpose; -0 is mapped to +0, as polyval's 0 z start can give a zero
    # either sign
    if lead is not None:
        coeffs[-1] = lead
    c = np.array(coeffs)
    lam = canonical_grid(64, len(coeffs) % 2 == 1).points
    for z in (np.exp(-1j * lam), np.exp(1j * lam)):
        got, ref = models._poly_on_circle(c, z), np.polyval(c[::-1], z)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

def test_exp_table_is_computed_once_per_j(monkeypatch):
    c = FrequencyConstants(np.linspace(-math.pi, math.pi, 64))
    calls = []
    real_exp = np.exp
    monkeypatch.setattr(models.np, "exp", lambda x: calls.append(x) or real_exp(x))
    tables = [c.exp_ij(j) for j in (1, 4, 2, 1, 4, 2, 1)]
    assert len(calls) == 3
    assert tables[0] is tables[3] is tables[6] and tables[1] is tables[4]


def test_density_constants_match_the_plain_formulas_bitwise():
    lam = -math.pi + 2.0 * math.pi * (np.arange(256) + 0.5) / 256
    c = FrequencyConstants(lam)
    assert np.array_equal(c.cos, np.cos(lam))
    assert np.array_equal(c.z, np.exp(-1j * lam))
    assert np.array_equal(c.two_sin_half, 2.0 * np.sin(np.abs(lam) / 2.0))
    for arr in (c.cos, c.z, c.two_sin_half):
        assert not arr.flags.writeable
    assert c.cos is c.cos  # computed once, then kept
    assert np.asarray(c, dtype=float) is lam
    for j in range(-2, 9):
        assert np.array_equal(c.exp_ij(j), np.exp(1j * j * lam))
        assert not c.exp_ij(j).flags.writeable
    ar = AR1(theta=0.6, sigma2=1.3)
    assert np.array_equal(
        ar.density(c),
        1.3 / (2.0 * math.pi * ((1.0 - 0.6) ** 2 + 0.6 * (2.0 * np.sin(np.abs(lam) / 2.0)) ** 2)))
    pdq = ArfimaPDQ(d=0.2, phi=(0.4,), sigma2=1.4)
    z = np.exp(-1j * lam)
    ref = (1.4 * (2.0 * np.sin(np.abs(lam) / 2.0)) ** (-0.4)
           * np.abs(np.polyval([1.0], z)) ** 2
           / (2.0 * math.pi * np.abs(np.polyval([-0.4, 1.0], z)) ** 2))
    assert np.array_equal(pdq.density(c), ref)


# ------------------------------------------------------------------- scores

def _numeric_score(model, name, lam, h=1e-6):
    lo = model.with_params(**{name: getattr(model, name) - h})
    hi = model.with_params(**{name: getattr(model, name) + h})
    return (np.log(hi.density(lam)) - np.log(lo.density(lam))) / (2.0 * h)


def test_ar1_score_closed_form_and_numeric():
    m = AR1(theta=0.6, sigma2=1.7)
    lam = np.linspace(-3.0, 3.0, 13)
    denom = 1.0 - 2.0 * 0.6 * np.cos(lam) + 0.36
    expect = 2.0 * (np.cos(lam) - 0.6) / denom
    rows = m.score(lam)
    assert np.allclose(rows[0], expect, rtol=1e-12)
    assert np.allclose(rows[0], _numeric_score(m, "theta", lam), atol=1e-7)
    assert np.allclose(rows[1], 1.0 / 1.7)


def test_ar1_score_integrates_to_zero():
    # int dtheta log f dlambda = 0: the theta direction carries no scale
    # information, which is what keeps the kurtosis correction out of the
    # AR(1) variance.
    m = AR1(theta=0.45)
    lam = np.linspace(-math.pi, math.pi, 1 << 16, endpoint=False)
    val = np.mean(m.score(lam)[0]) * 2.0 * math.pi
    assert abs(val) < 1e-10


def test_arfima_score_formula():
    m = ARFIMA0d0(d=0.3)
    lam = np.array([0.2, 1.0, 3.0])
    assert np.allclose(m.score(lam)[0], -2.0 * np.log(2.0 * np.sin(lam / 2.0)))
    assert np.allclose(m.score(lam)[0], _numeric_score(m, "d", lam), atol=1e-7)


def test_arma_score_matches_numeric():
    m = ARMA(phi=(0.5, -0.2), theta=(0.3,), sigma2=1.0)
    lam = np.linspace(-3.0, 3.0, 9)
    rows = m.score(lam)
    for i, (vals, step) in enumerate([((0.5, -0.2), 0), ((0.5, -0.2), 1)]):
        h = 1e-6
        lo = list(vals)
        hi = list(vals)
        lo[step] -= h
        hi[step] += h
        num = (
            np.log(ARMA(phi=tuple(hi), theta=(0.3,)).density(lam))
            - np.log(ARMA(phi=tuple(lo), theta=(0.3,)).density(lam))
        ) / (2.0 * h)
        assert np.allclose(rows[i], num, atol=1e-6)
    num_ma = (
        np.log(ARMA(phi=(0.5, -0.2), theta=(0.3 + 1e-6,)).density(lam))
        - np.log(ARMA(phi=(0.5, -0.2), theta=(0.3 - 1e-6,)).density(lam))
    ) / 2e-6
    assert np.allclose(rows[2], num_ma, atol=1e-6)


def test_arfima_pdq_score_arma_rows_bitwise(monkeypatch):
    m = ArfimaPDQ(d=0.2, phi=(0.5, -0.2), theta=(0.3,), sigma2=1.4)
    lam = np.linspace(0.01, math.pi, 301)
    expected = ARMA(phi=m.phi, theta=m.theta, sigma2=m.sigma2).score(lam)
    checks = []
    real = models._check_arma
    monkeypatch.setattr(models, "_check_arma", lambda *a: checks.append(a) or real(*a))
    s = m.score(lam)
    assert not checks  # no throwaway ARMA, so no root finding per call
    assert np.array_equal(s[1:], expected)
    assert np.array_equal(s[0], -2.0 * np.log(2.0 * np.sin(lam / 2.0)))


def test_fgn_score_is_finite():
    m = FGN(0.6)
    vals = m.score(np.array([0.5, 1.5, 3.0]))
    assert np.all(np.isfinite(vals))


# -------------------------------------------------------------- covariances

def test_ar1_covariance_closed_form():
    m = AR1(theta=0.5, sigma2=2.0)
    u = np.arange(6)
    expect = 2.0 * 0.5**u / 0.75
    assert np.allclose(m.covariance(u), expect, rtol=1e-12)
    assert m.covariance(-3) == pytest.approx(m.covariance(3))


def test_ar1_covariance_matches_density_quadrature():
    m = AR1(theta=0.5, sigma2=1.0)
    lam = np.linspace(-math.pi, math.pi, 1 << 14, endpoint=False)
    f = m.density(lam)
    for u in (0, 1, 4):
        quad = np.mean(f * np.cos(u * lam)) * 2.0 * math.pi
        assert m.covariance(u) == pytest.approx(quad, abs=1e-9)


def test_arma_covariance_matches_quadrature():
    m = ARMA(phi=(0.5, -0.2), theta=(0.4,), sigma2=1.2)
    lam = np.linspace(-math.pi, math.pi, 1 << 14, endpoint=False)
    f = m.density(lam)
    for u in (0, 1, 2, 7):
        quad = np.mean(f * np.cos(u * lam)) * 2.0 * math.pi
        assert m.covariance(u) == pytest.approx(quad, abs=1e-9)


def test_arfima_r0_two_routes_agree():
    # Gamma-function closed form against direct density quadrature.
    d = 0.2
    m = ARFIMA0d0(d=d)
    closed = 2.0 * math.pi * math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    assert m.covariance(0) == pytest.approx(closed, rel=1e-14)
    nodes = even_nodes(1 << 17, graded=True)
    quad = integrate_even(m.density(nodes), nodes)
    assert quad == pytest.approx(closed, rel=1e-6)


def test_arfima_covariance_recursion_against_quadrature():
    m = ARFIMA0d0(d=0.2)
    nodes = even_nodes(1 << 17, graded=True)
    f = m.density(nodes)
    for u in (1, 2, 5):
        quad = integrate_even(f * np.cos(u * nodes), nodes)
        assert m.covariance(u) == pytest.approx(quad, rel=1e-5)


def test_arfima_pdq_covariance_oracle():
    # Independent oracle: the mixed model is the AR(1) filter applied to the
    # unit-innovation fractional process, so r_X(v) = sigma2 * sum_{j,k}
    # phi^{j+k} r_u(v+j-k) with r_u(0) = Gamma(1-2d)/Gamma(1-d)^2.
    d, phi, s2 = 0.2, 0.3, 1.3
    m = ArfimaPDQ(d=d, phi=(phi,), theta=(), sigma2=s2)
    L = 60
    top = 2 * L + 4
    r_u = np.empty(top + 1)
    r_u[0] = math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    for k in range(1, top + 1):
        r_u[k] = r_u[k - 1] * (k - 1.0 + d) / (k - d)
    psi = phi ** np.arange(L + 1)
    for v in (0, 1, 3):
        total = 0.0
        for j in range(L + 1):
            for k in range(L + 1):
                total += psi[j] * psi[k] * r_u[abs(v + j - k)]
        assert m.covariance(v) == pytest.approx(s2 * total, rel=1e-12)


@pytest.mark.parametrize("d", [-0.45, 0.2, 0.45])
@pytest.mark.parametrize("phi,theta", [((), ()), ((0.4,), ()), ((), (0.3,)),
                                       ((0.5, -0.2), (0.3,))], ids=["00", "10", "01", "21"])
def test_arfima_pdq_covariance_matches_density_quadrature(d, phi, theta):
    # the convolution identity against QAWO quadrature of the density
    from taperspec._quad import spectral_integral

    m = ArfimaPDQ(d=d, phi=phi, theta=theta, sigma2=1.3)
    u = np.arange(9)
    quad = [spectral_integral(m.density, exponent=m.origin_exponent)]
    quad += [_qawo_split(m.density, int(k)) for k in u[1:]]
    assert np.max(np.abs(m.covariance(u) - quad)) <= 1e-9
    assert m.covariance(-4) == m.covariance(4) == m.covariance(u)[4]


def test_arfima_pdq_lag0_moves_within_the_former_quadrature_tolerance():
    # the sp study's lag0_theory as QUADPACK (epsabs 1e-10) gave it
    m = parse_model("arfima_pdq{d=0.2,phi=[0.4],theta=[-0.3]}")
    assert abs(m.covariance(0) - 1.1920007896220413) <= 2e-10


def test_fgn_covariance_closed_form():
    m = FGN(0.7)
    assert m.covariance(0) == pytest.approx(1.0)
    assert m.covariance(1) == pytest.approx(0.5 * (2.0**1.4 - 2.0))
    assert m.covariance(-1) == pytest.approx(m.covariance(1))
    assert FGN(0.5).covariance(1) == pytest.approx(0.0, abs=1e-14)


# ------------------------------------------------------------------ drivers

def test_driver_moments():
    rng = make_rng(123)
    n = 200_000
    for drv, kappa4 in ((gaussian(), 0.0), (centered_exponential(), 6.0), (laplace(), 3.0)):
        x = drv.sample(rng, n)
        assert abs(np.mean(x)) < 0.02
        assert np.var(x) == pytest.approx(1.0, abs=0.03)
        excess = np.mean(x**4) / np.var(x) ** 2 - 3.0
        assert excess == pytest.approx(kappa4, abs=0.5)
        assert drv.kappa4 == kappa4


def test_get_driver_names():
    assert get_driver("gaussian").name == "gaussian"
    with pytest.raises(SchemaError):
        get_driver("uniform")


# reference draws: each distribution's own Generator call, into a new array
_DIRECT_DRAWS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "centered_exponential": lambda rng, n: rng.exponential(1.0, n) - 1.0,
    "laplace": lambda rng, n: rng.laplace(0.0, 1.0 / math.sqrt(2.0), n),
}


@pytest.mark.parametrize("name", sorted(models._DRIVERS))
@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3000), lead=st.integers(0, 7), pad=st.integers(0, 7),
       seed=st.integers(0, 2**63))
@example(n=0, lead=3, pad=2, seed=0)
@example(n=1, lead=0, pad=1, seed=1)
def test_driver_fill_matches_sample_bitwise(name, n, lead, pad, seed):
    driver = get_driver(name)
    buf = np.zeros(lead + n + pad)
    rng = make_rng(seed)
    driver.fill(rng, buf[lead:lead + n])
    direct = make_rng(seed)
    assert np.array_equal(buf[lead:lead + n], _DIRECT_DRAWS[name](direct, n))
    assert np.array_equal(buf[lead:lead + n], driver.sample(make_rng(seed), n))
    assert not buf[:lead].any() and not buf[lead + n:].any()
    assert rng.standard_normal() == direct.standard_normal()  # same stream consumed


# --------------------------------------------------------------- simulation

def test_simulation_deterministic_and_seed_sensitive():
    m = AR1(theta=0.5)
    drv = gaussian()
    a = m.simulate(drv, 64, seed=42).values
    b = m.simulate(drv, 64, seed=42).values
    c = m.simulate(drv, 64, seed=43).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(7, rep) for rep in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 3) == derive_seed(7, 3)


def test_ar1_burn_in_recorded():
    ts = AR1(theta=0.95).simulate(gaussian(), 32, seed=0)
    assert ts.provenance["burn_in"] == 1000
    ts2 = AR1(theta=0.1).simulate(gaussian(), 32, seed=0)
    assert ts2.provenance["burn_in"] == 500


def test_ar1_sample_moments():
    m = AR1(theta=0.6)
    x = m.simulate(gaussian(), 100_000, seed=5).values
    lag1 = np.mean(x[1:] * x[:-1])
    assert np.var(x) == pytest.approx(m.covariance(0), rel=0.05)
    assert lag1 == pytest.approx(m.covariance(1), rel=0.05)


def test_arma_sample_variance():
    m = ARMA(phi=(0.5,), theta=(0.4,), sigma2=1.0)
    x = m.simulate(gaussian(), 100_000, seed=9).values
    assert np.var(x) == pytest.approx(float(m.covariance(0)), rel=0.05)


def test_arfima_simulation_variance_and_provenance():
    m = ARFIMA0d0(d=0.2)
    ts = m.simulate(gaussian(), 50_000, seed=11)
    assert ts.provenance["ma_truncation"] >= 1
    assert 0.0 <= ts.provenance["ma_tail_fraction"] < 1e-3
    assert np.var(ts.values) == pytest.approx(m.covariance(0), rel=0.1)


def test_arfima_log_periodogram_slope():
    # Low-frequency log-log slope of the periodogram estimates -2d.
    from taperspec.spectrum import tapered_periodogram
    from taperspec.taper import get_taper

    d = 0.3
    T = 1 << 14
    ts = ARFIMA0d0(d=d).simulate(gaussian(), T, seed=2024)
    pg = tapered_periodogram(ts, get_taper("rect"))
    lam = pg.grid.points
    keep = []
    for k in range(1, 51):
        target = 2.0 * math.pi * k / T
        keep.append(int(np.argmin(np.abs(lam - target))))
    x = np.log(lam[keep])
    y = np.log(pg.values[keep])
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(-2.0 * d, abs=0.2)


def test_fgn_simulation_matches_covariance():
    m = FGN(0.7)
    ts = m.simulate(gaussian(), 60_000, seed=3)
    x = ts.values
    assert np.var(x) == pytest.approx(1.0, rel=0.1)
    lag1 = np.mean(x[1:] * x[:-1])
    assert lag1 == pytest.approx(m.covariance(1), abs=0.05)
    assert "clipped_eigenvalues" in ts.provenance


def test_fgn_rejects_non_gaussian_driver():
    with pytest.raises(DomainError):
        FGN(0.7).simulate(centered_exponential(), 64, seed=0)
    for drv in (centered_exponential(), laplace()):
        with pytest.raises(DomainError, match="gaussian driver only"):
            FGN(0.7).check_driver(drv)
        AR1(theta=0.5).check_driver(drv)  # every other family takes every driver
    FGN(0.7).check_driver(gaussian())


@pytest.mark.parametrize("d", [-0.3, 0.1, 0.3, 0.45])
def test_frac_filter_matches_fftconvolve_bitwise(d):
    from scipy.signal import fftconvolve

    K = models._frac_psi(d)[0]
    psi = np.zeros(K + 1)
    assert models._frac_weights(d, psi) == models._frac_psi(d)
    for L in (1, 600, 2548):
        xi = make_rng(L).standard_normal(L + K)
        frac, prov = models._frac_noise(ARFIMA0d0(d), gaussian(), L, L, L)
        assert np.array_equal(frac, fftconvolve(xi, psi)[K:K + L])
        assert frac.base is None  # a copy, not a view of the n-point inverse
        assert prov["ma_truncation"] == K


def test_frac_spectrum_cached_read_only():
    from scipy.fft import next_fast_len

    d, T = 0.3, 64
    K = models._frac_psi(d)[0]
    n = next_fast_len(T + 2 * K, True)
    ARFIMA0d0(d=d).simulate(gaussian(), T, seed=0)
    info = models._frac_spectrum.cache_info()
    spec = models._frac_spectrum(d, n)  # the transform that path used
    assert models._frac_spectrum.cache_info().hits == info.hits + 1
    assert info.maxsize == 2
    assert spec.shape == (n // 2 + 1,)
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0
    # the per-d cache holds K and its tail fraction, no weight array
    assert [type(v) for v in models._frac_psi(d)] == [int, float]
    assert models._frac_psi.cache_info().maxsize == 8


# sha256 of ARFIMA path values (seed 7; T = 64, then 2048), recorded before
# the fractional filter moved into one padded buffer per path; that change
# must leave every bit alone.
_PINNED_FRAC_PATH_SHA256 = {
    ("arfima0d0", -0.3, "gaussian"): (
        "6cb3b1ab6476ccfb6e669572f4e43068e437c6645af0c65364c04e6088965014",
        "9fba600e1d9003031e04e90fcda5fd6353a85beb2d0e407bc016cb2b49872e5d"),
    ("arfima0d0", -0.3, "centered_exponential"): (
        "567734e517965cc6ec893a5e9f50aa288db41c006d87d3f31530546629ab2253",
        "33d936c93e8dbff1771961a069ab6412a28624e2e663e0260948ea1ac4239042"),
    ("arfima0d0", -0.3, "laplace"): (
        "ab346af07c20997ddc75da29c690eb512822685b478337ac75d8e799433d25ef",
        "775b29ab1868306bf0a3fa3b614717f6c58532ad7a384fe604a931ffe3b269c3"),
    ("arfima0d0", 0.3, "gaussian"): (
        "8b88238ef218e3188efdbb65c4224bb22e64d59921de747408bd249a5a78fefe",
        "cd7a5c9ea5cf5b0f2a4e66e07dc7c5ec5b1cfc44810c745032ff34f16719f302"),
    ("arfima0d0", 0.3, "centered_exponential"): (
        "d73f903bb5339e3664fbffa075be761a449abfc7c41e767317f4c8634ed5ec9d",
        "574f757e7896953141718c8a23e35f7d5da6e3a1af1700d69aed080d867a4b47"),
    ("arfima0d0", 0.3, "laplace"): (
        "a75aaa978efd1bd82108f8e78857906da097c303c5a57f00cb69da8823d22fa7",
        "c03fa2b21303094163bedbebf23dd59540227c35552140f5ac8dbcfc0fa36f49"),
    ("arfima0d0", 0.45, "gaussian"): (
        "8c7afe1ac2eaee887ad8ad68255d5b41a5fe91baaea7ec24e47fc37efb7e7b3c",
        "b716aee8ba492e1cfe6ea0a5000a3ed3e3a013bfbaef52ee519ed6ee580e7a66"),
    ("arfima0d0", 0.45, "centered_exponential"): (
        "9ed1e155fd5c64354890538cfe934badd1d6d521c6ee5f0b138b0bc235bd63d1",
        "d2f5c54ab53f98addbd975c7ed6ddc75e8cdc4fa7710b355203310b855dd8e2d"),
    ("arfima0d0", 0.45, "laplace"): (
        "b4a6dc8a88485247d7323deb6e9a11e3cf82f5ec07ae9087f6b81f5e5d54f4b0",
        "6a62286087d65d9023f3937e2297a71a3fbc57054fe77c318de1f1fb62e09bd2"),
    ("arfima_pdq", -0.3, "gaussian"): (
        "3e1866b963f8ea55ee908b2a7078cabf465f6bdff895918cd70216c48e615e78",
        "097aa4eaacaa79243e0709798d4cf7b93fc120f7d2597ff81a16e4eafe12f27a"),
    ("arfima_pdq", -0.3, "centered_exponential"): (
        "d1784b26075d849371f4dfc4c5fdeee3a70dabd76f816807f26eb82da19273d8",
        "e026a6adb6c0cb09f2e303182f5e31c3f42718c2951fe47851495026fe62902e"),
    ("arfima_pdq", -0.3, "laplace"): (
        "c7619f7fe243d7a2dfdc595c00bf881e38fa1df0813bbc4d7babb4d591b6496d",
        "6a0b6c31ca6f6ababb5e22224c118c66dae472c8f2ff4f6372d0ed71b38a567b"),
    ("arfima_pdq", 0.3, "gaussian"): (
        "0811079818319bac58ef91c0b4534fe03ce8cc3dbc180853f39dc6acb68d2339",
        "53949dbbf335739a421b035f552d0bbf9782d67c01bbe45af26cc0bffd26f2ae"),
    ("arfima_pdq", 0.3, "centered_exponential"): (
        "eb4e67071b3671b34feaec8fe1d1a43e7353c487d1ccd28a4dd8e7c9f8fd8ffe",
        "e4e3d2fbbb306e13206bcc40a8857786a9232eedc316cea445884077d9b44353"),
    ("arfima_pdq", 0.3, "laplace"): (
        "f90e64d7a1944d07496280bf16c59bc6c4d72d0fd53a7b7ad038bb7b778c96a6",
        "09434d54c77b6b9155403c93631b0c24a9c19ba502da1819b77ef86db6981f3c"),
    ("arfima_pdq", 0.45, "gaussian"): (
        "30be8163517fd4f91b149ef74d7cfb1bb5ca5aa43817244174ec5109e53fd585",
        "e04a3fae06e0ab3f9a9335d224f94f262c479687d8f56f87d82fe34ece8eea71"),
    ("arfima_pdq", 0.45, "centered_exponential"): (
        "ce4df328725b743fe1812c328bd0acbac2bf71d7fc1d58deaf95741b514aa736",
        "3cd06c2f4903664e67a6f42139f4a570549db17727c7e9495607e6b4a9e3124c"),
    ("arfima_pdq", 0.45, "laplace"): (
        "1d0e7f7accf7eb4bcfddcdadf807c388f1614e16131dde10adaff02581eed173",
        "062730e4b737196a0f2bcf444635388ea6dcf9ceb13d475ad210881921c2eaa6"),
}
# (ma_truncation, ma_tail_fraction) per d
_PINNED_FRAC_TRUNCATION = {
    -0.3: (16384, 5.437673030774152e-09),
    0.3: (1048576, 0.0008295750335826907),
    0.45: (1048576, 0.21534689688896916),
}


@pytest.mark.parametrize("key", sorted(_PINNED_FRAC_PATH_SHA256),
                         ids=lambda key: "-".join(map(str, key)))
def test_fractional_paths_pinned(key):
    import hashlib

    family, d, driver = key
    model = ARFIMA0d0(d) if family == "arfima0d0" else ArfimaPDQ(d, phi=(0.4,))
    for T, digest in zip((64, 2048), _PINNED_FRAC_PATH_SHA256[key]):
        ts = model.simulate(get_driver(driver), T, seed=7)
        assert hashlib.sha256(ts.values.tobytes()).hexdigest() == digest
        assert (ts.provenance["ma_truncation"], ts.provenance["ma_tail_fraction"]) \
            == _PINNED_FRAC_TRUNCATION[d]


# sha256 of fGn paths (seed 7; T = 64, then 2048), recorded before the
# circulant embedding moved from numpy.fft to scipy.fft
_PINNED_FGN_PATH_SHA256 = {
    0.3: ("47e70ca631079dccef2d5321708a238634e3f2a93024b9a7766bfea0f2e93f45",
          "35ddc506d969360f8f6af70350a8fd341354b2cde25e39dc66703e18ec000c03"),
    0.7: ("07dadc1f3608fec3548c7e2559647e84da210fcc7f4721b0f7968b9ac183bbe9",
          "8fc8187dfbea9fd8e1e38abb2e1f071742b17fe711b1e111ddb56382f76b70cc"),
}


@pytest.mark.parametrize("H", sorted(_PINNED_FGN_PATH_SHA256))
def test_fgn_paths_pinned(H):
    import hashlib

    for T, digest in zip((64, 2048), _PINNED_FGN_PATH_SHA256[H]):
        values = FGN(H).simulate(gaussian(), T, seed=7).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_arfima_pdq_simulation_runs():
    m = ArfimaPDQ(d=0.2, phi=(0.3,), theta=(), sigma2=1.0)
    ts = m.simulate(gaussian(), 4096, seed=17)
    assert ts.values.shape == (4096,)
    assert np.isfinite(ts.values).all()


# ------------------------------------------------------------------ domains

@pytest.mark.parametrize(
    "build",
    [
        lambda: AR1(theta=1.0),
        lambda: AR1(theta=-1.2),
        lambda: AR1(theta=0.5, sigma2=0.0),
        lambda: WhiteNoise(sigma2=-1.0),
        lambda: ARFIMA0d0(d=0.5),
        lambda: ARFIMA0d0(d=-0.6),
        lambda: FGN(H=0.0),
        lambda: FGN(H=1.0),
        lambda: ARMA(phi=(1.05,)),
        lambda: ARMA(theta=(-1.5,)),
        lambda: ArfimaPDQ(d=0.6, phi=(0.2,)),
    ],
)
def test_domain_violations_rejected(build):
    with pytest.raises(DomainError):
        build()


def _random_polys(rng, count):
    """1 + c1 z + ... + cp z^p, p in 1..4: half from random coefficients,
    half from random inverse roots with moduli straddling 1."""
    polys = []
    for i in range(count):
        p = int(rng.integers(1, 5))
        if i % 2:
            polys.append(np.r_[1.0, rng.uniform(-2.0, 2.0, p)])
            continue
        pairs = rng.uniform(0.0, 1.3, p // 2) * np.exp(1j * rng.uniform(0.0, math.pi, p // 2))
        inv = np.concatenate([pairs, pairs.conj(), rng.uniform(-1.3, 1.3, p % 2)])
        polys.append(np.real(np.poly(inv)))  # prod (1 - r z) has these coefficients
    return polys


def test_schur_cohn_agrees_with_root_radius():
    checked = 0
    for poly in _random_polys(make_rng(2024), 2000):
        rho = models._spectral_radius(poly)
        if abs(rho - 1.0) < 1e-9:
            continue
        assert (models._step_down(poly) is not None) == (rho < 1.0), poly
        checked += 1
    assert checked > 1900


def test_stationarity_check_finds_no_roots(monkeypatch):
    calls = []
    real = np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or real(p))
    m = ArfimaPDQ(d=0.2, phi=(0.5, -0.2), theta=(0.3,))
    ARMA(phi=(0.5, -0.2), theta=(0.3,)).density(np.array([0.5]))
    assert not calls
    # the AR radius is found once, when the burn-in first needs it
    burn = m.simulate(gaussian(), 16, seed=0).provenance["burn_in"]
    assert m._rho == models._spectral_radius(m._a)
    assert burn == models._burn_in(m._rho)
    assert len(calls) == 2  # the simulation's, then the check's above


@pytest.mark.parametrize("build, message", [
    (lambda: ARMA(phi=(1.0,)), "autoregressive polynomial has a root on or inside the unit circle"),
    (lambda: ARMA(theta=(-1.0,)), "moving-average polynomial is not invertible"),
    (lambda: ArfimaPDQ(d=0.2, phi=(1.0,)), "autoregressive polynomial has a root on or inside the unit circle"),
    (lambda: ArfimaPDQ(d=0.2, theta=(-1.0,)), "moving-average polynomial is not invertible"),
    (lambda: ARMA(phi=(0.5, 0.5)), "autoregressive polynomial has a root on or inside the unit circle"),
    (lambda: ARMA(phi=(float("nan"),)), "autoregressive polynomial has a root on or inside the unit circle"),
])
def test_unit_circle_boundary_rejected(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()


def test_arma_with_params_sets_whole_vectors_and_the_scale():
    assert ARMA(phi=(0.5,)).with_params(phi=(0.2, 0.1)).phi == (0.2, 0.1)
    m = ArfimaPDQ(d=0.1, phi=(0.5, 0.1), theta=(0.5,))
    assert m.with_params(theta=(0.2,), d=0.3).describe() == (
        "arfima_pdq{d=0.3,phi=[0.5,0.1],theta=[0.2],sigma2=1.0}")
    assert m.with_params(theta=[-0.1], sigma2=2).describe() == (
        "arfima_pdq{d=0.1,phi=[0.5,0.1],theta=[-0.1],sigma2=2.0}")
    with pytest.raises(TypeError):
        ARMA().with_params(phi1=0.1)


def test_arfima_pdq_rebuilds_as_its_own_family():
    m = ArfimaPDQ(d=0.2, phi=(0.4,), theta=(0.3,), sigma2=2.0)
    moved = m.with_params(phi=(0.1,))
    assert type(moved) is ArfimaPDQ
    assert (moved.d, moved.phi, moved.theta, moved.sigma2) == (0.2, (0.1,), (0.3,), 2.0)
    free = m.with_free([0.1, -0.2, 0.5])
    assert type(free) is ArfimaPDQ
    assert (free.d, free.phi, free.theta, free.sigma2) == (0.1, (-0.2,), (0.5,), 2.0)
    assert np.array_equal(m.free_vector(), [0.2, 0.4, 0.3])
    assert type(ARMA(phi=(0.5,)).with_free([0.1])) is ARMA


# (model, fractional, long_memory, fitted_names), every family with its edge cases
_FACTS = [
    (WhiteNoise(), False, False, ("sigma2",)),
    (AR1(theta=0.5), False, False, ("theta",)),
    (ARMA(), False, False, ("sigma2",)),
    (ARMA(phi=(0.5,), theta=(0.3,)), False, False, ("phi1", "theta1")),
    (ARFIMA0d0(d=0.3), True, True, ("d",)),
    (ARFIMA0d0(d=0.0), True, False, ("d",)),
    (ARFIMA0d0(d=-0.3), True, True, ("d",)),
    (ArfimaPDQ(d=0.2, phi=(0.4,)), True, True, ("d", "phi1")),
    (ArfimaPDQ(d=0.0, theta=(0.3,)), True, False, ("d", "theta1")),
    (ArfimaPDQ(d=-0.2), True, True, ("d",)),
    (FGN(H=0.7), True, True, ("H",)),
    (FGN(H=0.5), True, False, ("H",)),
    (FGN(H=0.3), True, True, ("H",)),
]


@pytest.mark.parametrize("model, fractional, long_memory, fitted_names", _FACTS,
                         ids=[row[0].describe() for row in _FACTS])
def test_model_facts(model, fractional, long_memory, fitted_names):
    assert model.fractional is fractional
    assert model.long_memory is long_memory
    assert model.fitted_names == fitted_names
    # a Whittle fit shifts its grid iff fractional, which must cover every pole
    assert model.fractional or not model.long_memory


def test_model_facts_cover_every_family():
    assert {type(row[0]) for row in _FACTS} == set(models._FAMILIES.values())


# ------------------------------------------------------------------ grammar

def test_parse_model_round_trip():
    m = parse_model("ar1{theta=0.5,sigma2=1}")
    assert isinstance(m, AR1)
    assert m.theta == 0.5
    assert parse_model(m.describe()).theta == 0.5


def test_parse_model_families():
    assert isinstance(parse_model("white_noise"), WhiteNoise)
    assert isinstance(parse_model("arfima{d=0.3}"), ARFIMA0d0)
    assert isinstance(parse_model("arfima{d=0.3,phi=[0.2]}"), ArfimaPDQ)
    assert isinstance(parse_model("fgn{H=0.7}"), FGN)
    arma = parse_model("arma{phi=[0.5,-0.2],theta=[0.3],sigma2=2}")
    assert arma.phi == (0.5, -0.2)
    assert arma.theta == (0.3,)
    assert arma.sigma2 == 2.0


def test_parse_model_errors():
    with pytest.raises(SchemaError):
        parse_model("garch{alpha=0.1}")
    with pytest.raises(SchemaError):
        parse_model("ar1{theta=0.5")
    with pytest.raises(SchemaError):
        parse_model("ar1{theta=abc}")
    with pytest.raises(SchemaError):
        parse_model("ar1{rho=0.5}")
    with pytest.raises(DomainError):
        parse_model("ar1{theta=1.5}")


def test_describe_is_stable():
    m = parse_model("arma{phi=[0.5],theta=[],sigma2=1.0}")
    assert m.describe() == parse_model(m.describe()).describe()


# ------------------------------------------- partial-autocorrelation map

_PACF_CUBE = st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_PACF_CUBE)
@example([0.99, -0.99, 0.99])
@example([0.99, -0.99, 0.99, -0.99, 0.99, -0.99])
@example([-0.99] * 6)
def test_every_point_of_the_pacf_cube_is_a_stationary_ar(r):
    # Stepping down divides by 1 - r_k^2 at every order, so a round-off of
    # phi returns as an error in r of up to about eps prod_k 1 / (1 - r_k^2):
    # 50^(p-1) eps at the cube's corners.  Within 1e-12 up to order 3; at
    # orders 4-6 (measured: at most 19 eps prod_k 1 / (1 - r_k^2)) the
    # conditioning bound with a margin of 2^p.
    phi = models._step_up(r)
    assert len(phi) == len(r)
    models._check_arma(phi, ())  # raises unless every root lies outside the circle
    back = models._step_down([1.0, *(-v for v in phi)])
    assert back is not None
    err = max(abs(u - v) for u, v in zip(back, r))
    cond = math.prod(1.0 / (1.0 - v * v) for v in r)
    assert err <= 2 ** len(r) * np.finfo(float).eps * cond
    if len(r) <= 3:
        assert err <= 1e-12


@given(st.floats(-0.99, 0.99))
def test_the_pacf_map_is_the_identity_at_order_one(r):
    (phi,) = models._step_up([r])
    assert phi.hex() == float(r).hex()
    (back,) = models._step_down([1.0, -r])
    assert back.hex() == float(r).hex()


@pytest.mark.parametrize("phi", [(0.5, -0.2), (1.8, -0.95), (0.6, -0.4, 0.3),
                                 (2.7607, -3.8106, 2.6535, -0.9238)])
def test_step_down_finds_the_last_coefficient_and_the_levinson_path(phi):
    # r_p = phi_p, and stepping up from r returns phi
    r = models._step_down([1.0, *(-v for v in phi)])
    assert r[-1] == phi[-1]
    assert all(abs(v) < 1.0 for v in r)
    np.testing.assert_allclose(models._step_up(r), phi, rtol=0.0, atol=1e-12)
