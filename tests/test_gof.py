"""Goodness-of-fit module checks.

Closed-form oracles used below:
  - AR(1) score expansion: d ln f / d theta = 2 sum_{k>=1} theta^{k-1} cos(k lam),
    so the cosine-basis cross matrix is b_j = theta^{j-1} / sqrt(e(h)).
  - Score Gram matrix for AR(1): gamma = 1/(1 - theta^2).
  - Scalar mixture weight: nu = 1 - b'b / gamma (root of the determinant
    equation, cross-checked by brute-force scan).
  - Reference law: chi2.sf wherever every weight is 0 or 1; a Monte Carlo
    sum of freshly drawn chi-square variates for mixed weights.
Monte Carlo tolerances were calibrated against pilot runs roughly three
standard errors wide; seeds are fixed throughout.
"""

import dataclasses
import logging
import math
import types
import warnings

import numpy as np
import pytest
import scipy.stats

from taperspec.errors import DomainError, SingularInformationError
from taperspec.gof import (
    GofResult,
    TestBasis,
    ar_example_basis,
    b_matrix,
    composite_test,
    cosine_basis,
    gamma_matrix,
    mixture_weights,
    phi_vector,
    reference_pvalue,
    simple_test,
)
from taperspec import gof, spectrum, whittle
from taperspec.gof import _imhof_sf
from taperspec.models import (
    AR1,
    ARMA,
    ar_polynomial,
    derive_seed,
    gaussian,
    make_rng,
    parse_model,
)
from taperspec.spectrum import Periodogram, canonical_grid, tapered_periodogram
from taperspec.taper import get_taper, tapering_factor
from taperspec.whittle import whittle_estimate

AR_HALF = parse_model("ar1{theta=0.5,sigma2=1.0}")
TUKEY = get_taper("tukey")
RECT = get_taper("rect")


def _synthetic_pgram(model, T, factor=1.0):
    grid = canonical_grid(T, False)
    vals = factor * model.density(grid.nodes)
    return Periodogram(node_values=vals, grid=grid, taper_id="synthetic", T=T,
                       c_norm=1.0)


# ---------------------------------------------------------------- bases

def test_cosine_basis_certificate():
    basis = cosine_basis(4)
    assert basis == TestBasis(4)
    assert _certify(basis) == (("even",) * 4, pytest.approx(0.0, abs=1e-12))
    assert basis.zero == 0 and basis.active == (0, 1, 2, 3)
    assert basis.m == 4 and basis.m_active == 4 and basis.ar == ()
    with pytest.raises(DomainError, match="m >= 1"):
        cosine_basis(0)


def test_ar_example_basis_structure():
    basis = ar_example_basis(AR_HALF, 4)
    assert basis.zero == 1 and basis.active == (1, 2, 3)
    assert basis.m == 4 and basis.m_active == 3 and basis.ar == (1.0, -0.5)
    assert [f.name for f in dataclasses.fields(TestBasis)] == ["m", "ar"]
    assert TestBasis(4, np.array([1.0, -0.5])) == basis  # coefficients as floats


def test_ar_example_basis_score_orthogonal():
    # the premise of the composite test's nu = 1 shortcut, over the AR domain:
    # b vanishes to round-off, and the weights it gives are exactly 1
    nulls = [(AR1(theta=theta, sigma2=1.0), 4) for theta in (-0.95, 0.0, 0.5, 0.9, 0.99)]
    nulls += [(parse_model("arma{phi=[0.5,-0.2]}"), m) for m in (3, 5)]
    nulls += [(parse_model("arma{phi=[0.9,-0.5,0.2],sigma2=2}"), 6)]
    for model, m in nulls:
        basis = ar_example_basis(model, m)
        assert basis.ar == ar_polynomial(model)
        b = b_matrix(model, basis, TUKEY)
        assert np.max(np.abs(b)) <= 1e-12, (model.describe(), m)
        nu = mixture_weights(gamma_matrix(model), math.sqrt(tapering_factor(TUKEY)) * b)
        assert np.array_equal(nu, np.ones(len(model.fitted_names))), (model.describe(), m)
    assert cosine_basis(3).ar == ()


def test_ar_example_basis_rejects_bad_shapes():
    with pytest.raises(DomainError):
        ar_example_basis(AR_HALF, 1)
    with pytest.raises(DomainError, match="an AR family model"):
        ar_example_basis(parse_model("arfima0d0{d=0.2}"), 4)
    with pytest.raises(DomainError, match="a pure AR model"):
        ar_example_basis(parse_model("arma{phi=[0.5],theta=[0.3],sigma2=1.0}"), 4)


def test_ar_example_basis_refuses_an_arfima_pdq_null():
    # ArfimaPDQ is an ARMA subclass with phi and no theta, yet not an AR model
    null = parse_model("arfima_pdq{d=0.2,phi=[0.5],sigma2=1.0}")
    with pytest.raises(DomainError, match="AR family"):
        ar_example_basis(null, 4)


@pytest.mark.parametrize("theta", [0.5, 0.99, 0.999])
def test_ar_example_basis_accepted_near_unit_root(theta):
    # orthonormal by construction; the certificate's quadrature must see it
    basis = ar_example_basis(AR1(theta=theta, sigma2=1.0), 4)
    assert _certify(basis) == (("zero",) + ("even",) * 3, pytest.approx(0.0, abs=1e-12))


def _certify(basis, nodes=1 << 16):
    """Parity and Gram residual of a basis, computed here, not read off it.

    Slots are classified zero or even on a symmetric grid; the Gram matrix
    of the non-zero slots is the periodic midpoint rule on `nodes` points,
    whose error for these slots falls like theta^nodes.
    """
    grid = np.linspace(-math.pi, math.pi, 8193)
    vals = basis.values(grid)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals - vals[:, ::-1])) <= 1e-10  # no odd part
    parity = tuple("zero" if np.max(np.abs(v)) < 1e-12 else "even" for v in vals)
    lam = -math.pi + 2.0 * math.pi * (np.arange(nodes) + 0.5) / nodes
    active = basis.values(lam)[[j for j, p in enumerate(parity) if p == "even"]]
    gram = active @ active.T * (2.0 * math.pi / nodes)
    return parity, float(np.max(np.abs(gram - np.eye(len(active)))))


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("theta", [0.5, 0.9, 0.99, 0.999])
def test_built_in_bases_pass_the_certificate(theta, m):
    # orthonormal by construction, up to theta = 0.999 next to the unit root
    for basis in (cosine_basis(m), ar_example_basis(AR1(theta=theta, sigma2=1.0), m)):
        parity, residual = _certify(basis)
        assert parity == ("zero",) * basis.zero + ("even",) * basis.m_active
        assert residual < 1e-12


def test_cosine_slots_match_their_formula_bitwise():
    # the slots are Re(e^{i j lam}) from the table, with cos(j lam)'s bits,
    # on a closed grid and on midpoint nodes
    grids = [np.linspace(-math.pi, math.pi, 1001)]
    grids += [-math.pi + 2.0 * math.pi * (np.arange(n) + 0.5) / n for n in (64, 1024, 65536)]
    for lam in grids:
        vals = cosine_basis(5).values(lam)
        for j in range(1, 6):
            assert np.array_equal(vals[j - 1], np.cos(j * lam) / math.sqrt(math.pi))


def _ar_example_reference(a, m, lam):
    """The ar-example slots written out on plain frequencies."""
    p = a.size - 1
    z = np.exp(1j * lam)
    ratio = np.polyval(a[::-1], np.conj(z)) / np.polyval(a[::-1], z)
    rows = [np.zeros_like(lam) for _ in range(p)]
    rows += [np.real(np.exp(1j * j * lam) * ratio) / math.sqrt(math.pi)
             for j in range(p + 1, m + 1)]
    return np.vstack(rows)


def test_ar_example_slots_match_their_formula_bitwise():
    lam = np.linspace(-math.pi, math.pi, 1001)
    vals = ar_example_basis(AR1(theta=0.7, sigma2=1.0), 4).values(lam)
    assert np.array_equal(vals, _ar_example_reference(np.array([1.0, -0.7]), 4, lam))


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("m", [3, 4, 8])
@pytest.mark.parametrize("spec", ["ar1{theta=-0.7}", "ar1{theta=0.5}", "ar1{theta=0.999}",
                                  "arma{phi=[0.5,-0.2]}"])
def test_ar_example_on_grid_constants_matches_raw_points(spec, m, shifted):
    # phi_vector evaluates the basis on the grid's shared constants, whose
    # e^{i j lam} table every replication reuses; the bits must not move
    model = parse_model(spec)
    grid = canonical_grid(200, shifted)
    basis = ar_example_basis(model, m)
    want = _ar_example_reference(np.array(ar_polynomial(model)), m, grid.points)
    assert np.array_equal(basis.values(grid.points), want)
    # the constants sit on the grid's nodes, [0, pi] when it is unshifted
    want = _ar_example_reference(np.array(ar_polynomial(model)), m, grid.nodes)
    assert np.array_equal(basis.values(grid.constants), want)
    assert np.array_equal(basis.values(grid.constants), want)  # read from the table


# ---------------------------------------------------------- projections

# project(c, r) sums phi_j(lam_k) r_k in another order than values(c) @ r:
# it folds the AR ratio into r and divides by sqrt(pi) once, after the sum.
# Each term carries a few units of round-off of |phi_j r_k|, so a slot may
# move by at most _PROJECTION_ULPS eps sum_k |phi_j(lam_k) r_k|, and a zero
# slot not at all.
_PROJECTION_ULPS = 8


def _projection_tolerance(basis, c, r):
    return _PROJECTION_ULPS * np.finfo(float).eps * (np.abs(basis.values(c)) @ np.abs(r))


def _exponential_residuals(grid, seed):
    """I/f - 1 on the grid's nodes, with I/f standard exponential, as at a true null."""
    return make_rng(seed).standard_exponential(grid.nodes.size) - 1.0


_BUILT_IN_BASES = {
    **{f"cosine:{m}": cosine_basis(m) for m in (1, 3, 6)},
    **{f"ar1({theta})": ar_example_basis(AR1(theta=theta, sigma2=1.0), 4)
       for theta in (-0.9, 0.0, 0.5, 0.99)},
    "ar2": ar_example_basis(parse_model("arma{phi=[0.5,-0.2]}"), 5),
}


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("name", sorted(_BUILT_IN_BASES))
def test_projection_matches_the_slot_array(name, shifted):
    basis = _BUILT_IN_BASES[name]
    grid = canonical_grid(1000, shifted)
    r = _exponential_residuals(grid, 17)
    got = basis.project(grid.constants, r)
    want = basis.values(grid.constants) @ r
    assert got.shape == (basis.m,)
    assert np.all(np.abs(got - want) <= _projection_tolerance(basis, grid.constants, r))
    assert np.all(got[:basis.zero] == 0.0)


# phi_vector and b_matrix (T = 512, tukey) recorded as float.hex: (basis,
# null, phi, b column).  The data are one white-noise path, so the pins hold
# the projections and the population quadrature, not the simulators.  The
# long-memory null projects on the shifted grid and integrates a
# log-singular score.  Every bit must stay.
_PROJECTION_PINS = [
    ("cosine:3", "arfima0d0{d=0.2}",
     ("-0x1.99f60d5cef0f6p-2", "-0x1.a01688df42317p-4", "-0x1.a8afed8c8259bp-4"),
     ("0x1.6f2c9a420071dp-1", "0x1.6f2c9a420071ap-2", "0x1.e990cdad55ecfp-3")),
    ("cosine:3", "ar1{theta=0.5}",
     ("-0x1.c3c06ae934597p+2", "0x1.675e0a0347efep-2", "-0x1.0350cda1316a6p-1"),
     ("0x1.6f2c9a420071dp-1", "0x1.6f2c9a420071ep-2", "0x1.6f2c9a420071ep-3")),
    ("cosine:3", "fgn{H=0.7}",
     ("-0x1.fe2203248679cp+1", "-0x1.c15725707991fp-2", "-0x1.811692e23d809p-1"),
     ("0x1.e01c17e470906p-1", "0x1.6125bcb1e7778p-2", "0x1.eabe926ea8acbp-3")),
    ("ar-example:4", "ar1{theta=0.5}",
     ("0x0.0p+0", "0x1.e2450efac3584p+1", "-0x1.cce3a5db3feb4p-3", "0x1.d3decd5666d6dp-1"),
     ("0x0.0p+0", "0x1.456651f1f5c56p-55", "-0x1.96bfe66e7336bp-55",
      "0x1.96bfe66e7336bp-56")),
]


@pytest.mark.parametrize("spec,null,phi,b", _PROJECTION_PINS,
                         ids=[f"{case[0]}-{case[1]}" for case in _PROJECTION_PINS])
def test_projections_keep_their_recorded_bits(spec, null, phi, b):
    model = parse_model(null)
    kind, _, m = spec.partition(":")
    basis = cosine_basis(int(m)) if kind == "cosine" else ar_example_basis(model, int(m))
    pgram = tapered_periodogram(make_rng(20240).standard_normal(512), TUKEY, model.fractional)
    assert [v.hex() for v in phi_vector(pgram, TUKEY, model, basis)] == list(phi)
    assert [v.hex() for v in b_matrix(model, basis, TUKEY).ravel()] == list(b)


def _refuse(self, lam):
    raise AssertionError("built every basis slot on the grid")


@pytest.mark.parametrize("basis", [cosine_basis(3), ar_example_basis(AR_HALF, 4)],
                         ids=["cosine", "ar-example"])
def test_phi_vector_never_builds_the_slot_array(basis, monkeypatch):
    # the projections read the e^{i j lam} table; values is only for the
    # population quadratures
    pgram = tapered_periodogram(AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 5)),
                                TUKEY)
    ref = phi_vector(pgram, TUKEY, AR_HALF, basis)
    monkeypatch.setattr(TestBasis, "values", _refuse)
    assert np.array_equal(phi_vector(pgram, TUKEY, AR_HALF, basis), ref)


def test_ar_example_composite_never_builds_the_slot_array(monkeypatch):
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 6))
    null = parse_model("ar1{theta=0.0,sigma2=1.0}")
    ref = composite_test(x, TUKEY, null, lambda mdl: ar_example_basis(mdl, 4))
    monkeypatch.setattr(TestBasis, "values", _refuse)
    res = composite_test(x, TUKEY, null, lambda mdl: ar_example_basis(mdl, 4))
    assert np.array_equal(res.phi, ref.phi) and res.p_value == ref.p_value


# ----------------------------------------------------------- phi vector

def test_phi_zero_for_matched_periodogram():
    pg = _synthetic_pgram(AR_HALF, 256)
    for basis in (cosine_basis(3), ar_example_basis(AR_HALF, 4)):
        phi = phi_vector(pg, TUKEY, AR_HALF, basis)
        assert np.max(np.abs(phi)) == 0.0


def test_phi_taper_factor_wiring():
    pg = _synthetic_pgram(AR_HALF, 256, factor=2.0)
    basis = cosine_basis(2)
    phi_rect = phi_vector(pg, RECT, AR_HALF, basis)
    phi_lin = phi_vector(pg, get_taper("linear"), AR_HALF, basis)
    phi_tuk = phi_vector(pg, TUKEY, AR_HALF, basis)
    assert phi_rect[0] / phi_lin[0] == pytest.approx(math.sqrt(9.0 / 5.0), rel=1e-12)
    assert phi_rect[0] / phi_tuk[0] == pytest.approx(math.sqrt(35.0 / 18.0), rel=1e-12)


def test_phi_marginal_normality():
    basis = cosine_basis(3)
    drv = gaussian()
    phis = np.empty((1000, 3))
    for r in range(1000):
        x = AR_HALF.simulate(drv, 1024, seed=derive_seed(303101, r))
        phis[r] = phi_vector(tapered_periodogram(x, TUKEY), TUKEY, AR_HALF, basis)
    for j in range(3):
        res = scipy.stats.kstest(phis[:, j], scipy.stats.norm.cdf)
        assert res.pvalue > 0.01, f"component {j}: KS p={res.pvalue:.4f}"


def _null_with_density(fn):
    """An AR(1) null whose density is fn(lam)."""
    cls = type("_Null", (AR1,), {"density": lambda self, lam: fn(np.asarray(lam, dtype=float))})
    return cls(theta=0.5, sigma2=1.0)


def test_phi_density_guard():
    pg = _synthetic_pgram(AR_HALF, 128)
    basis = cosine_basis(2)
    for fn in (np.zeros_like, lambda lam: -AR_HALF.density(lam),
               lambda lam: np.where(lam > 3.0, np.nan, AR_HALF.density(lam))):
        with pytest.raises(DomainError, match="null density"):
            phi_vector(pg, TUKEY, _null_with_density(fn), basis)


# ----------------------------------------------------------- simple test

def test_simple_test_matched_is_zero(monkeypatch):
    # the sample's periodogram is the null density itself; the null is an
    # AR(1) written with a zero MA term, so it is not a pure AR and the test
    # projects the periodogram
    null = parse_model("arma{phi=[0.5],theta=[0.0],sigma2=1.0}")
    pg = _synthetic_pgram(null, 512)

    def periodogram(series, taper, shifted):
        assert not shifted  # an ARMA is not fractional
        return pg

    monkeypatch.setattr(gof, "tapered_periodogram", periodogram)
    res = simple_test(np.zeros(512), TUKEY, null, cosine_basis(3))
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.reject
    assert res.law == {"kind": "chisq", "dof": 3}


def test_simple_test_size_both_tapers():
    basis = cosine_basis(3)
    drv = gaussian()
    reps = 600
    rejections = {"tukey": 0, "rect": 0}
    for r in range(reps):
        x = AR_HALF.simulate(drv, 1024, seed=derive_seed(505101, r))
        rejections["tukey"] += simple_test(x, TUKEY, AR_HALF, basis).reject
        rejections["rect"] += simple_test(x, RECT, AR_HALF, basis).reject
    for name, count in rejections.items():
        rate = count / reps
        assert 0.02 <= rate <= 0.08, f"{name} taper: size {rate:.4f}"


def test_simple_test_power_exceeds_size():
    basis = cosine_basis(3)
    drv = gaussian()
    alt = AR_HALF.with_params(theta=0.7)
    reps = 300
    rejected = 0
    for r in range(reps):
        x = alt.simulate(drv, 1024, seed=derive_seed(606101, r))
        rejected += simple_test(x, TUKEY, AR_HALF, basis).reject
    power = rejected / reps
    assert power > 0.6
    assert power > 0.08 + 5.0 * math.sqrt(0.05 * 0.95 / reps)


# -------------------------------------------------------------- gamma, b

def test_gamma_matrix_closed_forms():
    g0 = gamma_matrix(parse_model("ar1{theta=0.0,sigma2=1.0}"))
    assert g0.shape == (1, 1)
    assert g0[0, 0] == pytest.approx(1.0, abs=1e-10)
    g5 = gamma_matrix(AR_HALF)
    assert g5[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_gamma_matrix_symmetric_positive_diagonal():
    model = parse_model("arma{phi=[0.4],theta=[0.2],sigma2=1.0}")
    g = gamma_matrix(model)
    assert np.allclose(g, g.T)
    assert np.all(np.diag(g) > 0)


class _FlatScore(AR1):
    def score(self, lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        return np.zeros((2, lam_arr.size))


def test_gamma_matrix_singular_raises():
    with pytest.raises(SingularInformationError):
        gamma_matrix(_FlatScore(theta=0.3))


def test_b_matrix_cosine_closed_form():
    basis = cosine_basis(4)
    for taper, e_h in ((RECT, 1.0), (TUKEY, 35.0 / 18.0)):
        b = b_matrix(AR_HALF, basis, taper)
        expected = np.array([[0.5 ** (j - 1) / math.sqrt(e_h)]
                             for j in range(1, 5)])
        np.testing.assert_allclose(b, expected, rtol=1e-8)


def test_b_matrix_zero_slot_rows():
    basis = ar_example_basis(AR_HALF, 3)
    b = b_matrix(AR_HALF, basis, TUKEY)
    assert np.all(b[0] == 0.0)


# ------------------------------------------------------------ delta

def delta_vector(series_or_pgram, taper, model):
    """Delta_k = sqrt(T)/sqrt(4 pi e(h)) sum (I/f - 1) d_k ln f w.

    First-order relation to the fitted parameters:
    sqrt(T)(theta_hat - theta) ~ sqrt(e(h)/4pi) Gamma^{-1} Delta.
    """
    pgram = (series_or_pgram if isinstance(series_or_pgram, Periodogram)
             else tapered_periodogram(series_or_pgram, taper, model.fractional))
    grid = pgram.grid
    resid = gof._null_residual(pgram, model)
    names = model.free_names if model.free_names else (model.scale_name,)
    rows = np.atleast_2d(model.score(grid.nodes))[:len(names)]
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * (rows @ resid) * pgram.grid.weight


def test_delta_matched_is_zero():
    pg = _synthetic_pgram(AR_HALF, 256)
    d = delta_vector(pg, TUKEY, AR_HALF)
    assert np.max(np.abs(d)) == 0.0


def test_delta_sign_flips_around_truth():
    pg = _synthetic_pgram(AR_HALF, 256)
    d_low = delta_vector(pg, TUKEY, AR_HALF.with_params(theta=0.45))
    d_high = delta_vector(pg, TUKEY, AR_HALF.with_params(theta=0.55))
    assert d_low[0] > 1.0
    assert d_high[0] < -1.0


def test_delta_tracks_whittle_deviation():
    drv = gaussian()
    e_h = tapering_factor(TUKEY)
    gamma = gamma_matrix(AR_HALF)[0, 0]
    devs, preds = [], []
    for r in range(120):
        x = AR_HALF.simulate(drv, 2048, seed=derive_seed(303202, r))
        fit = whittle_estimate(x, TUKEY, AR_HALF)
        devs.append(math.sqrt(2048.0) * (fit.theta_hat[0] - 0.5))
        d = delta_vector(x, TUKEY, AR_HALF)[0]
        preds.append(math.sqrt(e_h / (4.0 * math.pi)) * d / gamma)
    devs = np.asarray(devs)
    preds = np.asarray(preds)
    resid = np.median(np.abs(devs - preds))
    assert resid < 0.1
    assert resid < 0.2 * np.median(np.abs(devs))
    assert np.corrcoef(devs, preds)[0, 1] > 0.95


# ------------------------------------------------------- mixture weights

def test_mixture_weights_identity_case():
    gamma = 2.5 * np.eye(2)
    b = np.vstack([math.sqrt(2.5) * np.eye(2), np.zeros((1, 2))])
    nu = mixture_weights(gamma, b)
    np.testing.assert_allclose(nu, [0.0, 0.0], atol=1e-12)


def test_mixture_weights_zero_b_is_silent(caplog):
    # nu = 1 is the plain chi-square case, nothing to report
    with caplog.at_level(logging.DEBUG, logger="taperspec.gof"):
        nu = mixture_weights(np.eye(2), np.zeros((4, 2)))
    np.testing.assert_allclose(nu, [1.0, 1.0])
    assert not caplog.records


def test_mixture_weights_scalar_matches_det_scan():
    gamma = np.array([[4.0 / 3.0]])
    b = np.array([[0.3], [0.5], [0.1]])
    nu = mixture_weights(gamma, b)
    bb = float((b.T @ b)[0, 0])
    assert nu[0] == pytest.approx(1.0 - bb / gamma[0, 0], rel=1e-12)
    grid = np.linspace(-0.5, 1.5, 2000001)
    det_vals = (1.0 - grid) * gamma[0, 0] - bb
    sign_change = np.where(np.diff(np.sign(det_vals)) != 0)[0]
    root = grid[sign_change[0]]
    assert nu[0] == pytest.approx(root, abs=1e-5)


def test_mixture_weights_clamps_and_logs(caplog):
    gamma = np.array([[1.0]])
    b = np.array([[math.sqrt(1.0 + 1e-9)]])
    with caplog.at_level(logging.WARNING, logger="taperspec.gof"):
        nu = mixture_weights(gamma, b)
    assert nu[0] == 0.0
    assert any("clamped" in rec.message for rec in caplog.records)


def test_mixture_weights_singular_gamma():
    with pytest.raises(DomainError):
        mixture_weights(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((3, 2)))


# ------------------------------------------------------- composite test

# from where p is 1 to round-off to where it underflows: a split of the
# Imhof integral fixed at u = 1 gets p = 0.75 for chi^2_2 at s = 1e-8
_S_GRID = (1e-12, 1e-8, 1e-5, 0.01, 0.5, 1.0, 2.0, 3.0, 5.0, 7.81, 12.0, 20.0, 40.0,
           1e3, 1e5)


def _assert_imhof_is_chisq(dof, weights, total):
    for s in _S_GRID:
        assert abs(_imhof_sf(s, dof, weights) - scipy.stats.chi2.sf(s, total)) < 1e-9, s


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_mixture_pvalue_nu_zero_matches_chisq():
    # a zero weight adds no degree of freedom; folded, it drops out
    for dof in (1, 2, 3, 5):
        for weights in ((), (0.0,), (0.0, 0.0)):
            _assert_imhof_is_chisq(dof, weights, dof)
        for s in (2.0, 7.0, 7.81, 12.0):
            assert reference_pvalue(s, dof, [0.0]) == (scipy.stats.chi2.sf(s, dof), dof)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_mixture_pvalue_nu_one_matches_chisq():
    # a unit weight adds one degree of freedom; folded, it joins the unit terms
    for dof in (1, 2, 3, 5):
        for weights in ((1.0,), (1.0, 0.0), (1.0, 1.0)):
            _assert_imhof_is_chisq(dof, weights, dof + weights.count(1.0))
        for s in (2.0, 7.0, 7.81, 12.0):
            assert reference_pvalue(s, dof, [1.0]) == (scipy.stats.chi2.sf(s, dof + 1), dof + 1)


def test_chisq_branch_matches_the_chi2_survival_function_bitwise():
    s_grid = np.concatenate(([0.0, 1e-300, 1e-12, 1e5], np.logspace(-8, 5, 300),
                             np.linspace(0.0, 60.0, 241)))
    for dof in range(1, 13):
        for s in s_grid:
            assert reference_pvalue(float(s), dof) == (scipy.stats.chi2.sf(s, dof), dof)
    assert reference_pvalue(-1.0, 2) == (1.0, 2)  # below the support, as chi2.sf


def _fresh_draw_pvalue(s, unit_dof, nu, draws, seed):
    """The mixture p-value from freshly drawn variates, with its 95% half-width."""
    rng = make_rng(seed)
    total = np.zeros(draws)
    if unit_dof > 0:
        total += rng.chisquare(unit_dof, size=draws)
    for w in nu:
        total += w * rng.standard_normal(draws) ** 2
    p = float(np.mean(total >= s))
    return p, float(1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws))


@pytest.mark.parametrize("unit_dof", [0, 2])
@pytest.mark.parametrize("nu", [(0.25,), (0.6, 0.3), (0.9, 0.05)])
def test_mixture_pvalue_matches_fresh_draws(unit_dof, nu):
    for k, s in enumerate((0.5, 3.0, 7.5)):
        mc, half_width = _fresh_draw_pvalue(s, unit_dof, nu, 400000, 777 + k)
        p, dof = reference_pvalue(s, unit_dof, nu)
        assert dof is None
        assert abs(p - mc) <= 2.0 * half_width, (s, p, mc, half_width)


def test_reference_pvalue_folds_weights_within_tolerance():
    for s in (0.5, 4.0, 9.0):
        # within 1e-6 of 1 a weight joins the unit terms, within 1e-6 of 0 it drops
        assert reference_pvalue(s, 2, [1.0 - 5e-7]) == (scipy.stats.chi2.sf(s, 3), 3)
        assert reference_pvalue(s, 2, [5e-7, 1.0]) == (scipy.stats.chi2.sf(s, 3), 3)
        assert reference_pvalue(s, 2) == (scipy.stats.chi2.sf(s, 2), 2)
        # just outside, the law is a genuine mixture and Imhof takes over
        p, dof = reference_pvalue(s, 2, [1.0 - 2e-6])
        assert dof is None and p == _imhof_sf(s, 2, [1.0 - 2e-6])
        assert abs(p - scipy.stats.chi2.sf(s, 3)) < 1e-5


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("nu", [0.05, 0.3, 0.9])
def test_imhof_single_weight_is_a_scaled_chisq(nu):
    # nu chi^2_1 exceeds s exactly when chi^2_1 exceeds s / nu
    for s in _S_GRID:
        assert abs(_imhof_sf(s, 0, (nu,)) - scipy.stats.chi2.sf(s / nu, 1)) < 1e-9


def test_mixture_pvalue_deterministic():
    first = reference_pvalue(5.0, 2, np.array([0.7]))
    assert reference_pvalue(5.0, 2, np.array([0.7])) == first
    assert first == (_imhof_sf(5.0, 2, [0.7]), None)


def test_imhof_edges():
    assert _imhof_sf(0.0, 2, (0.5,)) == 1.0
    assert _imhof_sf(-1.0, 0, (0.5,)) == 1.0


def test_composite_law_is_chi2_three():
    template = parse_model("ar1{theta=0.0,sigma2=1.0}")
    drv = gaussian()
    stats = []
    result = None
    for r in range(300):
        x = AR_HALF.simulate(drv, 2048, seed=derive_seed(404101, r))
        result = composite_test(x, TUKEY, template,
                                lambda mdl: ar_example_basis(mdl, 4))
        stats.append(result.statistic)
    assert result.law["unit_dof"] == 2
    assert result.law["nu"][0] == pytest.approx(1.0, abs=1e-9)
    assert result.law["dof"] == 3
    ks = scipy.stats.kstest(stats, scipy.stats.chi2(3).cdf)
    assert ks.statistic < 0.10, f"KS {ks.statistic:.4f}"


def test_composite_agrees_with_simple_when_score_orthogonal():
    template = parse_model("ar1{theta=0.0,sigma2=1.0}")
    basis_true = ar_example_basis(AR_HALF, 4)
    drv = gaussian()
    s_comp, s_simp = [], []
    for r in range(80):
        x = AR_HALF.simulate(drv, 4096, seed=derive_seed(707101, r))
        res_c = composite_test(x, TUKEY, template,
                               lambda mdl: ar_example_basis(mdl, 4))
        res_s = simple_test(x, TUKEY, AR_HALF, basis_true)
        s_comp.append(res_c.statistic)
        s_simp.append(res_s.statistic)
    assert np.corrcoef(s_comp, s_simp)[0, 1] > 0.95


def test_composite_result_fields():
    x = AR_HALF.simulate(gaussian(), 2048, seed=derive_seed(808101, 0))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         lambda mdl: ar_example_basis(mdl, 4))
    assert isinstance(res, GofResult)
    assert res.law == {"kind": "chisq", "dof": 3, "unit_dof": 2, "nu": res.law["nu"]}
    assert res.p_value == scipy.stats.chi2.sf(res.statistic, 3)
    assert res.reject == (res.p_value < 0.05)
    assert res.fit is not None
    assert abs(res.fit.theta_hat[0] - 0.5) < 0.1
    assert res.phi.shape == (4,)
    assert res.phi[0] == 0.0


def _count_population_calls(monkeypatch) -> dict:
    calls = {"info": 0, "b": 0}

    def counted(key, real):
        return lambda *a, **k: calls.__setitem__(key, calls[key] + 1) or real(*a, **k)

    info = counted("info", whittle.info_matrices)
    for module in (whittle, gof):
        monkeypatch.setattr(module, "info_matrices", info)
    monkeypatch.setattr(gof, "b_matrix", counted("b", gof.b_matrix))
    return calls


def test_composite_computes_information_once(monkeypatch):
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 1))
    # the fixed ar-example basis is score-orthogonal at theta = 0.5, not at the fit
    for basis in (cosine_basis(3), ar_example_basis(AR_HALF, 4)):
        calls = _count_population_calls(monkeypatch)
        res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"), basis)
        assert calls == {"info": 1, "b": 1}, basis
        assert res.law["nu"] != (1.0,)


def test_score_orthogonal_composite_computes_no_information(monkeypatch):
    # an ar-example basis built for the fitted model has b = 0 by construction
    calls = _count_population_calls(monkeypatch)
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 1))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         lambda mdl: ar_example_basis(mdl, 4))
    assert calls == {"info": 0, "b": 0}
    assert res.law["nu"] == (1.0,) and res.law["dof"] == 3


@pytest.mark.parametrize("data, null, m", [
    ("ar1{theta=0.5,sigma2=1.0}", "ar1{theta=0.0,sigma2=1.0}", 4),
    ("arma{phi=[0.5,-0.2]}", "arma{phi=[0.0,0.0]}", 5),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_orthogonal_shortcut_matches_the_quadrature_path(data, null, m, seed):
    x = parse_model(data).simulate(gaussian(), 512, seed=derive_seed(808103, seed))
    fast = composite_test(x, TUKEY, parse_model(null), lambda mdl: ar_example_basis(mdl, m))
    # the general path written out: the fit's periodogram projected on the
    # grid, and nu from Gamma and b by quadrature
    fit = whittle_estimate(x, TUKEY, parse_model(null))
    basis = ar_example_basis(fit.model, m)
    phi = phi_vector(tapered_periodogram(x, TUKEY), TUKEY, fit.model, basis)
    b = math.sqrt(tapering_factor(TUKEY)) * b_matrix(fit.model, basis, TUKEY)
    nu = mixture_weights(gamma_matrix(fit.model), b)
    unit_dof = basis.m_active - len(nu)
    p_value, dof = reference_pvalue(float(phi @ phi), unit_dof, nu)
    # the fast path projects from lagged products, the slow one on the
    # grid: the same sums up to round-off
    assert fast.statistic == pytest.approx(float(phi @ phi), rel=1e-12, abs=0.0)
    assert fast.p_value == pytest.approx(p_value, rel=1e-12, abs=0.0)
    assert fast.reject == (p_value < 0.05)
    assert fast.law == {"kind": "chisq", "dof": dof, "unit_dof": unit_dof,
                        "nu": tuple(float(v) for v in nu)}
    assert fast.law["dof"] == fast.law["unit_dof"] + len(fast.law["nu"])  # chi-square


def test_composite_of_a_closed_form_ar1_fit_builds_no_periodogram(monkeypatch):
    # a closed-form AR(1) fit and its score-orthogonal projections come from
    # the tapered series' lagged products: no periodogram is built
    calls = []
    real = spectrum.tapered_periodogram
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    for module in (spectrum, whittle, gof):
        monkeypatch.setattr(module, "tapered_periodogram", spy)
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 2))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         lambda mdl: ar_example_basis(mdl, 4))
    assert calls == []
    # the projections of a fresh periodogram, up to round-off
    fresh = phi_vector(real(x, TUKEY), TUKEY, res.fit.model, ar_example_basis(res.fit.model, 4))
    assert res.phi[0] == fresh[0] == 0.0
    np.testing.assert_allclose(res.phi, fresh, rtol=1e-12, atol=0.0)


# Composite tests of AR(1) data against the AR(1) family as they were when
# the fit and every projection ran on the periodogram's grid: (theta, T,
# taper, statistic, p_value, reject) for data seeded derive_seed(808109, T).
# Where the fit is the closed form, its scale and criterion now come from
# the tapered series' lagged products, and so do the projections of a
# score-orthogonal basis built for it; the same sums up to round-off, so
# each statistic and p-value may move by 1e-12 relative and no decision
# may flip.
_COMPOSITE_ON_THE_GRID = {
    "ar-example:4": (
        (-0.9, 64, "rect", 4.029150245454827, 0.2583335856378003, 0),
        (-0.9, 64, "linear", 1.9927790788330026, 0.5739067856851487, 0),
        (-0.9, 64, "tukey", 2.6617716377540406, 0.44676294331994815, 0),
        (-0.9, 512, "rect", 2.680220604399915, 0.4435990671831799, 0),
        (-0.9, 512, "linear", 0.5897817527857435, 0.8987675716247744, 0),
        (-0.9, 512, "tukey", 4.368406548398006, 0.2243327734736828, 0),
        (-0.9, 4096, "rect", 1.9415716648288044, 0.5846218425724456, 0),
        (-0.9, 4096, "linear", 0.5238454664829272, 0.9136222904006992, 0),
        (-0.9, 4096, "tukey", 4.799979205106407, 0.18704339775972673, 0),
        (0.5, 64, "rect", 3.025959795616182, 0.38763997858866783, 0),
        (0.5, 64, "linear", 2.6179472029236464, 0.4543518543158501, 0),
        (0.5, 64, "tukey", 2.167923963543467, 0.538293952305569, 0),
        (0.5, 512, "rect", 3.881071939707085, 0.27459588951164665, 0),
        (0.5, 512, "linear", 3.090672458715295, 0.3778554445874665, 0),
        (0.5, 512, "tukey", 6.250630103092069, 0.10003322518185793, 0),
        (0.5, 4096, "rect", 2.002181721587467, 0.5719540034912931, 0),
        (0.5, 4096, "linear", 1.693931217028777, 0.6382838669539888, 0),
        (0.5, 4096, "tukey", 4.846226310049689, 0.18340977643810266, 0),
        (0.95, 64, "rect", 0.9507441476362783, 0.8131679608333497, 0),
        (0.95, 64, "linear", 0.5818616082629826, 0.9005718968420515, 0),
        (0.95, 64, "tukey", 1.0599494558895306, 0.7867501612834278, 0),
        (0.95, 512, "rect", 1.7067770424167334, 0.6354281564905462, 0),
        (0.95, 512, "linear", 1.1025281160906413, 0.7764638216366571, 0),
        (0.95, 512, "tukey", 1.8865966647952022, 0.5962741887277196, 0),
        (0.95, 4096, "rect", 2.095930696972587, 0.5527364496578373, 0),
        (0.95, 4096, "linear", 1.0456094824657982, 0.7902176677712959, 0),
        (0.95, 4096, "tukey", 4.980836591669306, 0.1732057734061928, 0),
    ),
    "cosine:3": (
        (-0.9, 64, "rect", 3.548211259028974, 0.20129924643511687, 0),
        (-0.9, 64, "linear", 1.6838001519585215, 0.5314748920058687, 0),
        (-0.9, 64, "tukey", 2.517908285725932, 0.31748352482833997, 0),
        (-0.9, 512, "rect", 2.6757015497976213, 0.3466192980344965, 0),
        (-0.9, 512, "linear", 0.5893911600394021, 0.8616777158389906, 0),
        (-0.9, 512, "tukey", 4.364807771150706, 0.15021499137671063, 0),
        (-0.9, 4096, "rect", 1.6108075419350973, 0.5889971596297972, 0),
        (-0.9, 4096, "linear", 0.41137817486129563, 0.9192269107403667, 0),
        (-0.9, 4096, "tukey", 3.688421258719868, 0.22669503616462372, 0),
        (0.5, 64, "rect", 2.5932833981540586, 0.27389746966138373, 0),
        (0.5, 64, "linear", 1.5649771524228688, 0.45822155673945186, 0),
        (0.5, 64, "tukey", 2.1422607464597534, 0.34308680683620807, 0),
        (0.5, 512, "rect", 3.724083719632023, 0.15657741511310574, 0),
        (0.5, 512, "linear", 1.1171666539058704, 0.5763884341020938, 0),
        (0.5, 512, "tukey", 5.522278083112548, 0.06370343300200526, 0),
        (0.5, 4096, "rect", 1.4381614627537684, 0.49113552389637355, 0),
        (0.5, 4096, "linear", 1.1774158256610774, 0.5594631195300416, 0),
        (0.5, 4096, "tukey", 3.3393876106151037, 0.1897687255725924, 0),
        (0.95, 64, "rect", 0.9310492273008963, 0.7985785116922272, 0),
        (0.95, 64, "linear", 0.5807719634092756, 0.8868723141333004, 0),
        (0.95, 64, "tukey", 1.0319360827994761, 0.7627039099522086, 0),
        (0.95, 512, "rect", 1.611733469638406, 0.606194913941545, 0),
        (0.95, 512, "linear", 1.0864929471055096, 0.7414553824986168, 0),
        (0.95, 512, "tukey", 1.510373873002023, 0.6298295489351347, 0),
        (0.95, 4096, "rect", 1.8078552938077093, 0.5793243217123202, 0),
        (0.95, 4096, "linear", 0.9197412117176865, 0.8020219438513909, 0),
        (0.95, 4096, "tukey", 4.672658294285662, 0.16726685527276336, 0),
    ),
}


@pytest.mark.parametrize("basis", sorted(_COMPOSITE_ON_THE_GRID))
def test_composite_moves_at_round_off_from_the_grid(basis):
    null = parse_model("ar1{theta=0.0,sigma2=1.0}")
    build = ((lambda mdl: ar_example_basis(mdl, 4)) if basis == "ar-example:4"
             else cosine_basis(3))
    for theta, T, taper, statistic, p_value, reject in _COMPOSITE_ON_THE_GRID[basis]:
        x = AR1(theta=theta).simulate(gaussian(), T, seed=derive_seed(808109, T))
        res = composite_test(x, get_taper(taper), null, build)
        case = (theta, T, taper)
        assert res.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0), case
        assert res.p_value == pytest.approx(p_value, rel=1e-12, abs=0.0), case
        assert res.reject == bool(reject), case


@pytest.mark.parametrize("theta", [-0.99, 0.5, 0.99])
@pytest.mark.parametrize("T", [1, 2, 4, 8])
def test_grid_sum_of_an_ar1_slot_is_exact(theta, T):
    # sum_j Re(e^{i k lam_j} abar / a) 2 pi / N = 2 pi theta^{N-k} (1 - theta^2)
    # / (1 - theta^N) for 2 <= k <= N, a = 1 - theta e^{i lam}: the term the
    # lagged-product projections subtract for the residual's -1
    grid = canonical_grid(T, False)
    n = grid.N
    slots = ar_example_basis(AR1(theta=theta), n).values(grid.points)
    for k in range(2, n + 1):
        grid_sum = np.sum(slots[k - 1]) * math.sqrt(math.pi) * grid.weight
        exact = 2.0 * math.pi * theta ** (n - k) * (1.0 - theta**2) / (1.0 - theta**n)
        assert grid_sum == pytest.approx(exact, rel=1e-12, abs=1e-14), (k, grid_sum, exact)


def test_searched_ar1_fits_project_from_lags(monkeypatch):
    # where |theta_hat|^{N-1} exceeds the search tolerance (small T, theta
    # near +-1) the AR(1) fit is searched, and its own slots still project
    # from the series' lagged products: no phi_vector, and the grid's sums
    # up to round-off
    calls = []
    real = gof.phi_vector
    monkeypatch.setattr(gof, "phi_vector", lambda *a: calls.append(1) or real(*a))
    null = parse_model("ar1{theta=0.0,sigma2=1.0}")
    searched = 0
    for T in (2, 4, 8, 16, 64, 256):
        for theta in (-0.99, 0.9, 0.99):
            for name in ("rect", "linear", "tukey"):
                x = AR1(theta=theta).simulate(gaussian(), T, seed=derive_seed(808111, T))
                res = composite_test(x, get_taper(name), null,
                                     lambda mdl: ar_example_basis(mdl, 4))
                if res.fit.iterations == 1:  # the closed form
                    continue
                searched += 1
                case = (T, theta, name)
                assert calls == [], case
                grid_phi = real(res.fit.periodogram, get_taper(name), res.fit.model,
                                ar_example_basis(res.fit.model, 4))  # a searched fit keeps it
                np.testing.assert_allclose(res.phi, grid_phi, rtol=0.0,
                                           atol=1e-12 * np.abs(grid_phi).max(), err_msg=case)
    assert searched >= 20


def test_the_law_follows_the_basis_not_how_it_was_passed():
    # b = 0 only for the fitted model's own AR slots (see ar_example_basis):
    # another theta's slots take the mixture law as a basis and as a callable
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 5))
    basis = ar_example_basis(AR1(theta=0.3), 4)
    null = parse_model("ar1{theta=0.0}")
    passed = composite_test(x, TUKEY, null, basis)
    built = composite_test(x, TUKEY, null, lambda mdl: basis)
    assert built.statistic == passed.statistic
    assert built.law == passed.law and built.p_value == passed.p_value
    assert passed.law["kind"] == "mixture"
    assert passed.law["nu"][0] == pytest.approx(0.99545, abs=5e-6)
    assert passed.p_value == pytest.approx(0.64415, abs=5e-6)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["rect", "tukey"])
def test_composite_refuses_a_series_holding_nan_or_inf(bad, name):
    for null, basis in (("ar1{theta=0.0}", lambda mdl: ar_example_basis(mdl, 4)),
                        ("arfima0d0{d=0.2}", cosine_basis(3))):
        with pytest.raises(DomainError, match="nan or inf"):
            composite_test(np.array([bad, 1.0, 2.0]), get_taper(name), parse_model(null),
                           basis)


@pytest.mark.parametrize("m, from_lags", [(192, True), (193, False)])
def test_composite_projects_on_the_grid_where_lags_would_wrap(monkeypatch, m, from_lags):
    # at T = 64 (N = 256) a slot of frequency m reads lags up to m + T - 1,
    # which wrap around the grid from m = N - T + 1 on: there the test
    # projects the periodogram instead
    calls = []
    real = spectrum.tapered_periodogram
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    for module in (whittle, gof):
        monkeypatch.setattr(module, "tapered_periodogram", spy)
    x = AR_HALF.simulate(gaussian(), 64, seed=derive_seed(808101, 4))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         lambda mdl: ar_example_basis(mdl, m))
    assert res.fit.iterations == 1  # the closed form
    assert calls == ([] if from_lags else [1])
    grid_phi = phi_vector(real(x, TUKEY), TUKEY, res.fit.model,
                          ar_example_basis(res.fit.model, m))
    np.testing.assert_allclose(res.phi, grid_phi, rtol=0.0,
                               atol=1e-12 * np.abs(grid_phi).max())


@pytest.mark.parametrize("other", [
    lambda mdl: ar_example_basis(ARMA(phi=(0.3, 0.1)), 4),  # another polynomial's AR slots
    lambda mdl: ar_example_basis(AR1(theta=0.3), 4),  # another theta's AR slots
])
def test_composite_projects_any_other_score_orthogonal_basis_on_the_grid(other):
    # of the AR bases, only the fitted model's own slots have the
    # lagged-product sums (cosine slots have them too: see
    # test_lag_domain_projections_are_the_grid_projections)
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 5))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"), other)
    assert res.fit.iterations == 1  # the closed form
    assert res.law["kind"] == "mixture"  # b != 0
    assert np.array_equal(res.phi, phi_vector(tapered_periodogram(x, TUKEY), TUKEY,
                                              res.fit.model, other(res.fit.model)))


def test_composite_projects_the_fit_periodogram_at_a_point_without_memory(monkeypatch):
    # A fractional fit can return a point without memory (d = 0 exactly is
    # the centre of its box).  Its family still takes the shifted grid, so
    # the test projects the fit's own periodogram and takes no second one.
    calls, fits = [], []
    real = spectrum.tapered_periodogram
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    for module in (spectrum, whittle, gof):
        monkeypatch.setattr(module, "tapered_periodogram", spy)
    real_fit = gof.whittle_estimate

    def fit_at_zero(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        fits.append(dataclasses.replace(fit, model=fit.model.with_params(d=0.0)))
        return fits[-1]

    monkeypatch.setattr(gof, "whittle_estimate", fit_at_zero)
    null = parse_model("arfima0d0{d=0.2}")
    x = null.simulate(gaussian(), 512, seed=derive_seed(808101, 7))
    res = composite_test(x, TUKEY, null, cosine_basis(3))
    (fit,) = fits
    assert calls == [1] and res.fit is fit
    assert fit.model.fractional and not fit.model.long_memory
    assert fit.periodogram.grid.shifted
    assert np.array_equal(res.phi, phi_vector(fit.periodogram, TUKEY, fit.model,
                                              cosine_basis(3)))


def test_composite_cosine_basis_takes_the_mixture_law():
    # the cosine basis is not score-orthogonal: nu is strictly inside (0, 1)
    x = AR_HALF.simulate(gaussian(), 1024, seed=derive_seed(808101, 3))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         cosine_basis(3))
    assert res.law["kind"] == "mixture" and res.law["dof"] is None
    (nu,) = res.law["nu"]
    assert 1e-6 < nu < 1.0 - 1e-6
    assert res.p_value == _imhof_sf(res.statistic, 2, [nu])
    assert res.reject == (res.p_value < 0.05)


def test_composite_aborts_on_nonconvergence(monkeypatch):
    import taperspec.gof as gof_mod

    stub = types.SimpleNamespace(converged=False)
    monkeypatch.setattr(gof_mod, "whittle_estimate",
                        lambda *args, **kwargs: stub)
    x = AR_HALF.simulate(gaussian(), 512, seed=1)
    with pytest.raises(DomainError, match="converge"):
        composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                       lambda mdl: ar_example_basis(mdl, 4))


def test_composite_needs_surplus_slots():
    x = AR_HALF.simulate(gaussian(), 512, seed=2)
    with pytest.raises(DomainError, match="slots"):
        composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                       cosine_basis(1))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["rect", "tukey"])
def test_simple_test_refuses_a_series_holding_nan_or_inf(bad, name):
    # refused by name on both paths (the lag domain's AR null and the grid's
    # fractional one), with no warning on the way and no silent non-rejection
    x = AR_HALF.simulate(gaussian(), 64, seed=derive_seed(808113, 0)).values.copy()
    x[17] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for null in (AR_HALF, parse_model("arfima0d0{d=0.2}")):
            with pytest.raises(DomainError, match="series contains nan or inf"):
                simple_test(x, get_taper(name), null, cosine_basis(3))


# ------------------------------------------------- lag-domain projections

_PW_AR4 = ARMA(phi=(2.7607, -3.8106, 2.6535, -0.9238))
_LAG_DOMAIN_NULLS = {  # data, and the family a composite test fits to it
    1: (AR1(theta=0.9), AR1(theta=0.0)),
    2: (ARMA(phi=(1.8, -0.95)), ARMA(phi=(0.0, 0.0))),
    4: (_PW_AR4, ARMA(phi=(0.0,) * 4)),
}


@pytest.mark.parametrize("p", sorted(_LAG_DOMAIN_NULLS))
@pytest.mark.parametrize("name", ["rect", "linear", "tukey"])
def test_lag_domain_projections_are_the_grid_projections(p, name):
    # Under a pure-AR null f0 = s2 / (2 pi |a|^2), I/f0 = |d a|^2 / (s2 sum h^2)
    # is 2 pi / s2 times the periodogram of the residuals eps = a(B) y,
    # y = h x.  So a cosine slot sums their lagged products, and an own slot those of
    # eta = a(F) y with eps, less its exact grid sum.  Both tests take these
    # projections, after a closed-form fit (T = 512) or a searched one
    # (T = 4 and 8), and each equals phi_vector on a fresh periodogram.
    truth, family = _LAG_DOMAIN_NULLS[p]
    taper = get_taper(name)
    fits = set()
    for T in (4, 8, 512):
        x = truth.simulate(gaussian(), T, seed=derive_seed(808117, T)).values
        pgram = tapered_periodogram(x, taper)
        for make in (lambda mdl: cosine_basis(p + 3), lambda mdl: ar_example_basis(mdl, 2 * p + 2)):
            res = composite_test(x, taper, family, make)
            fits.add(res.fit.iterations == 1)
            simple = simple_test(x, taper, truth, make(truth))
            for got, f0 in ((res.phi, res.fit.model), (simple.phi, truth)):
                grid_phi = phi_vector(pgram, taper, f0, make(f0))
                np.testing.assert_allclose(got, grid_phi, rtol=0.0,
                                           atol=1e-12 * np.abs(grid_phi).max(),
                                           err_msg=str((T, f0)))
    assert fits == {True, False}  # closed-form and searched fits both ran


@pytest.mark.parametrize("p", sorted(_LAG_DOMAIN_NULLS))
def test_neither_test_builds_a_periodogram_under_an_ar_null(monkeypatch, p):
    calls = []
    real = spectrum.tapered_periodogram
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    for module in (spectrum, whittle, gof):
        monkeypatch.setattr(module, "tapered_periodogram", spy)
    truth, family = _LAG_DOMAIN_NULLS[p]
    x = truth.simulate(gaussian(), 512, seed=derive_seed(808119, p))
    for make in (lambda mdl: cosine_basis(p + 3), lambda mdl: ar_example_basis(mdl, 2 * p + 2)):
        assert composite_test(x, TUKEY, family, make).fit.iterations == 1
        simple_test(x, TUKEY, truth, make(truth))
    assert calls == []


@pytest.mark.parametrize("m, from_lags", [(190, True), (191, False)])
def test_simple_test_projects_on_the_grid_where_lags_would_wrap(monkeypatch, m, from_lags):
    # at T = 64 (N = 256) under an AR(2) null, cosine slot j reads residual
    # lags up to j + T + 1, which wrap around the grid from j = N - T - 1 on
    calls = []
    real = spectrum.tapered_periodogram
    monkeypatch.setattr(gof, "tapered_periodogram",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    null = ARMA(phi=(0.5, -0.2))
    x = null.simulate(gaussian(), 64, seed=derive_seed(808121, 0))
    res = simple_test(x, TUKEY, null, cosine_basis(m))
    assert calls == ([] if from_lags else [1])
    grid_phi = phi_vector(real(x, TUKEY), TUKEY, null, cosine_basis(m))
    np.testing.assert_allclose(res.phi, grid_phi, rtol=0.0,
                               atol=1e-12 * np.abs(grid_phi).max())
