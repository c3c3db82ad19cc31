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
    make_basis,
    mixture_weights,
    phi_vector,
    reference_pvalue,
    simple_test,
)
from taperspec import gof, spectrum, whittle
from taperspec.gof import _imhof_sf
from taperspec.models import (
    AR1,
    FrequencyConstants,
    derive_seed,
    gaussian,
    make_rng,
    parse_model,
)
from taperspec.spectrum import Periodogram, canonical_grid
from taperspec.taper import get_taper, tapering_factor
from taperspec.whittle import whittle_estimate

AR_HALF = parse_model("ar1{theta=0.5,sigma2=1.0}")
TUKEY = get_taper("tukey")
RECT = get_taper("rect")


def _synthetic_pgram(model, T, factor=1.0, oversample=4):
    grid = canonical_grid(T, oversample=oversample)
    vals = factor * model.density(grid.nodes)
    return Periodogram(node_values=vals, grid=grid, taper_id="synthetic", T=T,
                       c_norm=1.0)


# ---------------------------------------------------------------- bases

def test_cosine_basis_certificate():
    basis = cosine_basis(4)
    assert basis.gram_residual < 1e-12
    assert basis.names == ("cos1", "cos2", "cos3", "cos4")
    assert basis.parity == ("even",) * 4
    assert basis.m == 4 and basis.m_active == 4


def test_ar_example_basis_structure():
    basis = ar_example_basis(AR_HALF, 4)
    assert basis.names == ("zero", "re_psi2", "re_psi3", "re_psi4")
    assert basis.parity == ("zero", "even", "even", "even")
    assert basis.active == (1, 2, 3)
    assert basis.gram_residual < 1e-12


def test_ar_example_basis_score_orthogonal():
    # the premise of the composite test's nu = 1 shortcut, over the AR domain:
    # b vanishes to round-off, and the weights it gives are exactly 1
    nulls = [(AR1(theta=theta, sigma2=1.0), 4) for theta in (-0.95, 0.0, 0.5, 0.9, 0.99)]
    nulls += [(parse_model("arma{phi=[0.5,-0.2]}"), m) for m in (3, 5)]
    nulls += [(parse_model("arma{phi=[0.9,-0.5,0.2],sigma2=2}"), 6)]
    for model, m in nulls:
        basis = ar_example_basis(model, m)
        assert basis.score_orthogonal
        b = b_matrix(model, basis, TUKEY)
        assert np.max(np.abs(b)) <= 1e-12, (model.describe(), m)
        names = model.free_names if model.free_names else (model.scale_name,)
        nu = mixture_weights(gamma_matrix(model, names=names),
                             math.sqrt(tapering_factor(TUKEY)) * b)
        assert np.array_equal(nu, np.ones(len(names))), (model.describe(), m)
    assert not cosine_basis(3).score_orthogonal


def test_ar_example_basis_rejects_bad_shapes():
    with pytest.raises(DomainError):
        ar_example_basis(AR_HALF, 1)
    with pytest.raises(DomainError):
        ar_example_basis(parse_model("arfima0d0{d=0.2}"), 4)
    with pytest.raises(DomainError):
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
    assert basis.gram_residual < 1e-12
    assert basis.degree == 4


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
    # built without the certificate, being orthonormal by construction
    for basis in (cosine_basis(m), ar_example_basis(AR1(theta=theta, sigma2=1.0), m)):
        parity, residual = _certify(basis)
        assert parity == basis.parity
        assert residual < 1e-12
        assert basis.gram_residual < 1e-12


def test_cosine_slots_match_their_formula_bitwise():
    lam = np.linspace(-math.pi, math.pi, 1001)
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
    grid = canonical_grid(200, oversample=2, shifted=shifted)
    basis = ar_example_basis(model, m)
    want = _ar_example_reference(gof._ar_poly(model), m, grid.points)
    assert np.array_equal(basis.values(grid.points), want)
    # the constants sit on the grid's nodes, [0, pi] when it is unshifted
    want = _ar_example_reference(gof._ar_poly(model), m, grid.nodes)
    assert np.array_equal(basis.values(grid.constants), want)
    assert np.array_equal(basis.values(grid.constants), want)  # read from the table


def test_make_basis_rejects_odd_function():
    with pytest.raises(DomainError, match="odd"):
        make_basis([lambda lam: np.sin(np.asarray(lam)) / math.sqrt(math.pi)])


def test_make_basis_rejects_duplicate_slots():
    fn = lambda lam: np.cos(np.asarray(lam)) / math.sqrt(math.pi)
    with pytest.raises(DomainError, match="certificate"):
        make_basis([fn, fn])


def test_make_basis_rejects_unnormalized():
    with pytest.raises(DomainError, match="certificate"):
        make_basis([lambda lam: np.cos(np.asarray(lam))])


def test_make_basis_rejects_a_basis_without_an_active_slot():
    # no slot would carry a degree of freedom: chi^2(0) has no p-value
    with pytest.raises(DomainError, match="no active slot"):
        make_basis([lambda lam: 0 * lam])


# ---------------------------------------------------------- projections

# project(c, r) sums phi_j(lam_k) r_k in another order than values(c) @ r:
# the built-in bases read e^{i j lam} off the table (not cos(j lam)), fold
# the AR ratio into r and divide by sqrt(pi) once, after the sum.  Each term
# carries a few units of round-off of |phi_j r_k|, so a slot may move by at
# most _PROJECTION_ULPS eps sum_k |phi_j(lam_k) r_k|, and a zero slot not at
# all; phi_vector's scaling adds a rounding of the same order.
_PROJECTION_ULPS = 8


def _projection_tolerance(basis, c, r):
    return _PROJECTION_ULPS * np.finfo(float).eps * (np.abs(basis.values(c)) @ np.abs(r))


def _phi_tolerance(pgram, f0, basis, taper=TUKEY):
    """_projection_tolerance carried through phi_vector's normalization."""
    resid = gof._null_residual(pgram, f0)
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * pgram.grid.weight * _projection_tolerance(
        basis, pgram.grid.constants, resid)


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
    grid = canonical_grid(1000, oversample=4, shifted=shifted)
    r = _exponential_residuals(grid, 17)
    got = basis.project(grid.constants, r)
    want = basis.values(grid.constants) @ r
    assert got.shape == (basis.m,)
    assert np.all(np.abs(got - want) <= _projection_tolerance(basis, grid.constants, r))
    for j in range(basis.m):
        if basis.parity[j] == "zero":
            assert got[j] == 0.0


@pytest.mark.parametrize("shifted", [False, True])
def test_make_basis_projection_is_the_slot_array_bitwise(shifted):
    basis = _cosine_make_basis(3, [])
    grid = canonical_grid(1000, oversample=4, shifted=shifted)
    r = _exponential_residuals(grid, 19)
    assert np.array_equal(basis.project(grid.constants, r),
                          basis.values(grid.constants) @ r)


def _refuse(c):
    raise AssertionError("built every basis slot on the grid")


@pytest.mark.parametrize("basis", [cosine_basis(3), ar_example_basis(AR_HALF, 4)],
                         ids=["cosine", "ar-example"])
def test_phi_vector_never_builds_the_slot_array(basis):
    # the built-in projections read the e^{i j lam} table; evaluate is only
    # for the population quadratures
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 5))
    guarded = dataclasses.replace(basis, evaluate=_refuse)
    assert np.array_equal(phi_vector(x, TUKEY, AR_HALF, guarded),
                          phi_vector(x, TUKEY, AR_HALF, basis))


def test_ar_example_composite_never_builds_the_slot_array():
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 6))
    null = parse_model("ar1{theta=0.0,sigma2=1.0}")
    res = composite_test(x, TUKEY, null, lambda mdl: dataclasses.replace(
        ar_example_basis(mdl, 4), evaluate=_refuse))
    ref = composite_test(x, TUKEY, null, lambda mdl: ar_example_basis(mdl, 4))
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
        phis[r] = phi_vector(x, TUKEY, AR_HALF, basis)
    for j in range(3):
        res = scipy.stats.kstest(phis[:, j], scipy.stats.norm.cdf)
        assert res.pvalue > 0.01, f"component {j}: KS p={res.pvalue:.4f}"


def test_phi_density_guard():
    pg = _synthetic_pgram(AR_HALF, 128)
    basis = cosine_basis(2)
    with pytest.raises(DomainError):
        phi_vector(pg, TUKEY, lambda lam: np.zeros_like(np.asarray(lam)), basis)
    with pytest.raises(DomainError):
        phi_vector(pg, TUKEY, lambda lam: -AR_HALF.density(lam), basis)
    # a callable null is checked on every grid point, not only on [0, pi]
    with pytest.raises(DomainError):
        phi_vector(pg, TUKEY, lambda lam: np.where(lam < 0.0, -1.0, AR_HALF.density(lam)),
                   basis)


def _lopsided_null(lam):
    """AR_HALF's density tilted by 1 + sin(lam)/2: positive but not even."""
    lam = np.asarray(lam, dtype=float)
    return AR_HALF.density(lam) * (1.0 + 0.5 * np.sin(lam))


def test_phi_callable_null_sums_over_every_grid_point():
    x = AR_HALF.simulate(gaussian(), 256, seed=derive_seed(303102, 0))
    basis = cosine_basis(3)
    pg = spectrum.tapered_periodogram(x, TUKEY, canonical_grid(256))
    grid = pg.grid
    scale = math.sqrt(pg.T) / math.sqrt(4.0 * math.pi * tapering_factor(TUKEY))
    c_all = FrequencyConstants(grid.points)
    r_all = pg.values / _lopsided_null(grid.points) - 1.0
    want = scale * grid.weight * (basis.values(c_all) @ r_all)
    got = phi_vector(pg, TUKEY, _lopsided_null, basis)
    tol = scale * grid.weight * _projection_tolerance(basis, c_all, r_all)
    assert np.all(np.abs(got - want) <= tol)
    # doubling the residual on [0, pi] instead would miss the tilt
    r_half = (pg.node_values / _lopsided_null(grid.nodes) - 1.0) * grid.fold_weights
    doubled = scale * grid.weight * basis.project(grid.constants, r_half)
    assert np.all(np.abs(doubled - want) > 1e3 * tol)


# ----------------------------------------------------------- simple test

def test_simple_test_matched_is_zero():
    pg = _synthetic_pgram(AR_HALF, 512)
    res = simple_test(pg, TUKEY, AR_HALF, cosine_basis(3))
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

def delta_vector(series_or_pgram, taper, model, oversample=4):
    """Delta_k = sqrt(T)/sqrt(4 pi e(h)) sum (I/f - 1) d_k ln f w.

    First-order relation to the fitted parameters:
    sqrt(T)(theta_hat - theta) ~ sqrt(e(h)/4pi) Gamma^{-1} Delta.
    """
    shifted = model.long_memory
    pgram = gof._periodogram_for(series_or_pgram, taper, shifted, oversample)
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

    monkeypatch.setattr(whittle, "info_matrices", counted("info", whittle.info_matrices))
    monkeypatch.setattr(gof, "b_matrix", counted("b", gof.b_matrix))
    return calls


def test_composite_computes_information_once(monkeypatch):
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 1))
    # the fixed ar-example basis is score-orthogonal at theta = 0.5, not at the fit
    for basis in (cosine_basis(3), ar_example_basis(AR_HALF, 4)):
        calls = _count_population_calls(monkeypatch)
        res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"), basis)
        assert calls == {"info": 1, "b": 1}, basis.names
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
    slow = composite_test(x, TUKEY, parse_model(null), lambda mdl: dataclasses.replace(
        ar_example_basis(mdl, m), score_orthogonal=False))
    assert fast.statistic == slow.statistic and fast.p_value == slow.p_value
    assert fast.reject == slow.reject and fast.law == slow.law
    assert fast.law["dof"] == fast.law["unit_dof"] + len(fast.law["nu"])  # chi-square


def test_composite_computes_one_periodogram(monkeypatch):
    calls = []
    real = spectrum.tapered_periodogram
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    for module in (spectrum, whittle, gof):
        monkeypatch.setattr(module, "tapered_periodogram", spy)
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 2))
    res = composite_test(x, TUKEY, parse_model("ar1{theta=0.0,sigma2=1.0}"),
                         lambda mdl: ar_example_basis(mdl, 4))
    assert calls == [1]
    # the reused periodogram gives the projections of a fresh one
    fresh = phi_vector(x, TUKEY, res.fit.model, ar_example_basis(res.fit.model, 4))
    assert np.array_equal(res.phi, fresh)


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


def _cosine_make_basis(m, seen):
    """cosine_basis(m) rebuilt from plain callables that record their argument."""
    def slot(j):
        return lambda lam: seen.append(lam) or np.cos(j * lam) / math.sqrt(math.pi)
    return make_basis([slot(float(j)) for j in range(1, m + 1)], degree=m)


def test_phi_vector_and_composite_accept_a_make_basis_basis():
    # cosine_basis(3) projects through the e^{i j lam} table and the rebuilt
    # basis through its slots, so the two agree within the projection bound
    seen = []
    basis = _cosine_make_basis(3, seen)
    x = AR_HALF.simulate(gaussian(), 512, seed=derive_seed(808101, 4))
    pgram = gof._periodogram_for(x, TUKEY, False, 4)
    assert np.all(np.abs(phi_vector(x, TUKEY, AR_HALF, basis)
                         - phi_vector(x, TUKEY, AR_HALF, cosine_basis(3)))
                  <= _phi_tolerance(pgram, AR_HALF, basis))
    null = parse_model("ar1{theta=0.0,sigma2=1.0}")
    res = composite_test(x, TUKEY, null, basis)
    ref = composite_test(x, TUKEY, null, cosine_basis(3))
    assert np.all(np.abs(res.phi - ref.phi)
                  <= _phi_tolerance(res.fit.periodogram, res.fit.model, basis))
    assert res.law == ref.law
    assert abs(res.p_value - ref.p_value) <= 1e-12
    # the caller's functions only ever see plain float frequency arrays
    assert seen and all(type(lam) is np.ndarray and lam.dtype == float for lam in seen)


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
