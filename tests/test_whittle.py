"""Tapered Whittle objective, estimator, and information matrices."""

import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest

from taperspec import models, whittle
from taperspec.errors import DomainError, SingularInformationError
from taperspec.models import (
    AR1,
    ARFIMA0d0,
    ARMA,
    FGN,
    ArfimaPDQ,
    WhiteNoise,
    ar_polynomial,
    derive_seed,
    gaussian,
    parse_model,
)
from taperspec._quad import spectral_integral
from taperspec.functionals import _lagged_products
from taperspec.spectrum import canonical_grid, tapered_periodogram
from taperspec.taper import get_taper, tapering_factor
from taperspec.whittle import (
    default_bounds,
    info_matrices,
    whittle_estimate,
    whittle_objective,
)


# a peaked AR(2) and the AR(4) of Percival & Walden (1993), whose roots lie
# near the unit circle: outside today's box of phi, inside the r cube
_PEAKED_AR2 = ARMA(phi=(1.8, -0.95))
_PW_AR4 = ARMA(phi=(2.7607, -3.8106, 2.6535, -0.9238))


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
    # a search candidate is the template with its free vector substituted
    ts = AR1(theta=0.5).simulate(gaussian(), 256, seed=1)
    pg = tapered_periodogram(ts, get_taper("tukey"))
    direct = whittle_objective(pg, AR1(theta=0.3))
    substituted = whittle_objective(pg, AR1(theta=0.9).with_free([0.3]))
    assert direct == substituted


def test_objective_prefers_truth_over_sign_flip():
    m = AR1(theta=0.5)
    tp = get_taper("tukey")
    for rep in range(10):
        ts = m.simulate(gaussian(), 512, seed=derive_seed(31, rep))
        pg = tapered_periodogram(ts, tp)
        assert whittle_objective(pg, m) < whittle_objective(pg, AR1(theta=-0.5))


def test_objective_grid_shift_invariance():
    # The periodogram is a trigonometric polynomial, so for a rational
    # inverse density the sample's unshifted and shifted grids both
    # integrate it exactly; only the smooth ln f term differs, far below
    # 1e-6.  So does a fractional point without memory, which takes the
    # shifted grid with its family.
    ts = AR1(theta=0.5).simulate(gaussian(), 512, seed=3)
    tp = get_taper("tukey")
    for m in (AR1(theta=0.4), ARFIMA0d0(d=0.0)):
        u = whittle_objective(tapered_periodogram(ts, tp), m)
        v = whittle_objective(tapered_periodogram(ts, tp, shifted=True), m)
        assert abs(u - v) < 1e-6


def test_unit_weight_path_matches_explicit_ones_bitwise():
    # the criterion sums its terms with no weight array; the values it returns
    # must be those of the formulas written with an explicit ones weight
    ts = AR1(theta=0.5).simulate(gaussian(), 256, seed=4)
    pg = tapered_periodogram(ts, get_taper("tukey"), shifted=True)
    pts, gw, vals = pg.grid.points, pg.grid.weight, pg.values
    w = np.ones_like(pts)
    for unit in (AR1(theta=0.3), ARMA(phi=(0.4,), theta=(0.2,)),
                 ArfimaPDQ(d=0.2, phi=(0.4,))):
        f1 = unit.density(pts)
        s2 = float(np.sum(vals / f1 * w) * gw / (float(np.sum(w)) * gw))
        value = np.sum((np.log(s2 * f1) + vals / (s2 * f1)) * w)
        assert whittle._profile_scale(pg, whittle._grid_density(unit, pg.grid)) == (
            s2, float(value * gw / (4.0 * math.pi)))
        total = np.sum((np.log(f1) + vals / f1) * w) * gw
        assert whittle_objective(pg, unit) == float(total / (4.0 * math.pi))


def test_search_builds_each_candidate_once(monkeypatch):
    ts = ArfimaPDQ(d=0.2, phi=(0.4,)).simulate(gaussian(), 256, seed=6)
    start = ArfimaPDQ(d=0.1, phi=(0.1,))
    builds, profiles = [], []
    real_check, real_profile = models._check_arma, whittle._profile_scale
    monkeypatch.setattr(models, "_check_arma",
                        lambda *a: builds.append(a) or real_check(*a))
    monkeypatch.setattr(whittle, "_profile_scale",
                        lambda *a: profiles.append(a) or real_profile(*a))
    fit = whittle_estimate(ts, get_taper("tukey"), start)
    assert fit.converged
    assert len(profiles) > 100
    # one build per evaluation, plus the unit template and the fitted model
    # with its scale
    assert len(builds) == len(profiles) + 3
    assert {p[0].grid.constants for p in profiles} == {fit.periodogram.grid.constants}


def test_objective_rejects_bad_density():
    ts = WhiteNoise().simulate(gaussian(), 64, seed=5)
    pg = tapered_periodogram(ts, get_taper("rect"))
    with pytest.raises(DomainError):
        whittle_objective(pg, _NegativeDensity())


# --------------------------------------------------------------- optimizer

# Estimates of seeded T = 1024 fits, recorded from the golden-section search
# (tolerance 1e-7) that preceded Fisher scoring; AR(1) data use seed
# derive_seed(67, rep), rep = 0..4, and every fit starts from the family
# at the origin.
_AR1_AGREEMENT = {
    ("rect", 0.5): (0.5131091674269372, 0.48740324411367375, 0.5027209080897845,
                    0.483623707053883, 0.5155508011789335),
    ("rect", 0.9): (0.9031377333687323, 0.888864956582913, 0.9139027498954224,
                    0.9001327580815252, 0.8974154917564907),
    ("tukey", 0.5): (0.5412753188842312, 0.48466043624008603, 0.5296371908901728,
                     0.4786208198081211, 0.5013487208064913),
    ("tukey", 0.9): (0.900246489550205, 0.8919913641880326, 0.9219563743695496,
                     0.8844268309489811, 0.8962909058421137),
}
_AGREEMENT_CASES = [
    pytest.param(AR1(theta=theta0), derive_seed(67, rep), taper, AR1(theta=0.0),
                 hat, id=f"ar1-{taper}-{theta0}-{rep}")
    for (taper, theta0), hats in _AR1_AGREEMENT.items()
    for rep, hat in enumerate(hats)
] + [
    pytest.param(ARFIMA0d0(d=0.3), 71, "tukey", ARFIMA0d0(d=0.0),
                 0.2840174865902641, id="arfima0d0"),
    pytest.param(ARMA(theta=(0.3,)), 73, "tukey", ARMA(theta=(0.0,)),
                 0.3065819615698909, id="ma1"),
]


@pytest.mark.parametrize("truth,seed,taper,start,expected", _AGREEMENT_CASES)
def test_scoring_agrees_with_recorded_estimates(truth, seed, taper, start, expected):
    ts = truth.simulate(gaussian(), 1024, seed=seed)
    fit = whittle_estimate(ts, get_taper(taper), start)
    assert fit.converged
    assert abs(fit.theta_hat[0] - expected) <= 1e-7


def _with_the_skipped_step(fit, ts, taper) -> float:
    """theta_hat moved by the scoring step a converged search no longer
    evaluates (at most tol), clipped into the default box as a step is; a
    closed-form fit keeps no periodogram, so the step reads a fresh one."""
    m = fit.model
    pgram = tapered_periodogram(ts, taper) if fit.periodogram is None else fit.periodogram
    if m.scale_name is None:
        step = whittle._scoring_step(pgram, 1.0, None, m)
    else:
        unit = m.with_params(**{m.scale_name: 1.0})
        step = whittle._scoring_step(pgram, fit.sigma2_hat,
                                     whittle._grid_density(unit, pgram.grid), unit)
    assert abs(step) <= 1e-7
    lo, hi = default_bounds(m)[0]
    return min(max(fit.theta_hat[0] + step, lo), hi)


# Scoring fits on the unshifted grid as they were before it folded its even
# sums onto [0, pi] (T, seed, taper, theta_hat); each fit starts from the
# truth.  Folding changes only how the same terms are summed, and scoring
# converges quadratically, so theta_hat may move at round-off only.  The
# search now stops before a last step of at most tol (and an AR(1)-shaped
# family is fitted in closed form), so each fit is continued by that step,
# which lands it where the search of the time stopped.
_SCORING_BEFORE_THE_FOLD = [
    ("ar1{theta=0.5}", 512, 3, "tukey", 0.566888387669675),
    ("ar1{theta=-0.8}", 256, 4, "rect", -0.7553627502016983),
    ("arma{phi=[0.6],theta=[]}", 1024, 5, "linear", 0.644656094783734),
    ("arma{theta=[0.4]}", 300, 6, "tukey", 0.4422871039330296),
    ("ar1{theta=0.95}", 4096, 7, "tukey", 0.9514875619429861),
]


# the ids keep the form the cases were first recorded under, when a
# weight column (None for every case here) sat before theta_hat
@pytest.mark.parametrize("spec,T,seed,taper,before", [
    pytest.param(*case, id="{}-{}-{}-{}-None-{}".format(*case))
    for case in _SCORING_BEFORE_THE_FOLD])
def test_folded_scoring_fits_move_at_round_off(spec, T, seed, taper, before):
    model = parse_model(spec)
    ts = model.simulate(gaussian(), T, seed=seed)
    fit = whittle_estimate(ts, get_taper(taper), model)
    assert fit.converged
    assert abs(_with_the_skipped_step(fit, ts, get_taper(taper)) - before) <= 1e-12


# Fits of families without a scale (T, seed, taper, theta_hat, criterion
# evaluations).  They run on the shifted grid, whose sums keep all N points,
# so the search is bit for bit what it was before the fold.  The steps use
# the expected information: observed-information steps (exact Newton steps
# for arfima0d0) cut the d = 0.3 and H = 0.6 searches to 8 and 7 evaluations
# but lengthen those near d = 1/2 and H = 1 (12 seeds at T = 1024 averaged
# 6.0 -> 7.8 for d = 0.45 and 8.1 -> 9.5 for H = 0.9), so the counts here
# guard both sides.  Re-recorded when the search stopped evaluating a last
# step of at most tol: each fit took one evaluation less and moved by that
# step (see test_skipping_the_last_scoring_step_moves_a_fit_within_tol).
_SCALE_FREE_FITS = [
    ("arfima0d0{d=0.3}", 1024, 71, "tukey", 0.2840174430343391, 12),
    ("arfima0d0{d=0.45}", 1024, 3, "tukey", 0.4620428644470996, 8),
    ("fgn{H=0.6}", 1024, 9, "tukey", 0.5391406820877679, 9),
    ("fgn{H=0.9}", 1024, 5, "tukey", 0.8897557254180896, 6),
    ("fgn{H=0.97}", 1024, 2, "tukey", 0.9692671226590883, 5),
]


@pytest.mark.parametrize("spec,T,seed,taper,theta_hat,evaluations", _SCALE_FREE_FITS)
def test_scale_free_fits_keep_their_expected_information_search(spec, T, seed, taper,
                                                                 theta_hat, evaluations):
    model = parse_model(spec)
    ts = model.simulate(gaussian(), T, seed=seed)
    fit = whittle_estimate(ts, get_taper(taper), model)
    assert fit.converged
    assert fit.iterations == evaluations
    assert fit.theta_hat[0] == theta_hat


# Whittle fits recorded as float.hex before the criterion's per-candidate
# overhead was cut (Horner's rule for the AR/MA polynomials, candidates built
# without numpy round trips): (model, rep, theta_hat, objective_value,
# sigma2_hat, iterations) for T = 2048, tukey, seed derive_seed(0, rep), each
# fit starting from the truth.  Every bit must stay.  The arfima0d0 rows were
# re-recorded when scoring stopped evaluating a last step of at most tol
# (one evaluation less, theta_hat within tol; see _SEARCH_BEFORE_THE_SKIP),
# the ar1 rows when AR(1) was fitted in closed form (one evaluation,
# theta_hat and sigma2_hat moved by at most 2 units in the last place), and
# again when that closed form came from the tapered series' lagged products
# instead of the grid (theta_hat moved by at most 5.6e-16 relative,
# objective_value by 5.3e-16, sigma2_hat by 4.5e-16).
_FIT_PINS = [
    ("arfima_pdq{d=0.3,phi=0.4}", 0, ("0x1.1565d9946fff0p-2", "0x1.bf7cb20709abap-2"),
     "-0x1.8f9c04be02641p-2", "0x1.0f224d9c0dfe4p+0", 544),
    ("arfima_pdq{d=0.3,phi=0.4}", 1, ("0x1.744f81a234847p-3", "0x1.ff71ab77bb462p-2"),
     "-0x1.af906fae82246p-2", "0x1.fd7372dc286cep-1", 519),
    ("arfima_pdq{d=0.3,phi=0.4}", 2, ("0x1.d5af7c4ebafdap-3", "0x1.d10e50fe06d2ap-2"),
     "-0x1.adee52f661e2dp-2", "0x1.ff15323c89907p-1", 551),
    ("arfima_pdq{d=0.3,phi=0.4}", 3, ("0x1.4827755154600p-2", "0x1.70596f15d280bp-2"),
     "-0x1.dd3de71e3472bp-2", "0x1.d1faea7adf686p-1", 457),
    ("arma{phi=[0.5,-0.3],theta=[0.4]}", 0,
     ("0x1.058fe453f02abp-1", "-0x1.414f7b5b3410ap-2",
      "0x1.bce2f921a6894p-2"),
     "-0x1.af334710c83b4p-2", "0x1.fdcc2956f2b13p-1", 928),
    ("arma{phi=[0.5,-0.3],theta=[0.4]}", 1,
     ("0x1.be0ac21cdf806p-2", "-0x1.05ae7965d84e0p-2",
      "0x1.db034b72ebcc8p-2"),
     "-0x1.ace9266fa0383p-2", "0x1.000a8985fe758p+0", 858),
    ("arma{phi=[0.5,-0.3],theta=[0.4]}", 2,
     ("0x1.1a97f1bf23415p-1", "-0x1.5e0f3bc2aec84p-2",
      "0x1.427aa41fdec59p-2"),
     "-0x1.b56eebc1709eep-2", "0x1.f7a1038a18a83p-1", 912),
    ("arma{phi=[0.5,-0.3],theta=[0.4]}", 3,
     ("0x1.088eb66fbb38ap-1", "-0x1.349e3dfada4c4p-2",
      "0x1.80f8e3cb39130p-2"),
     "-0x1.9ccd1ff21154cp-2", "0x1.0839ab437f461p+0", 927),
    ("arfima0d0{d=0.3}", 0, ("0x1.48632b636e818p-2",),
     "0x1.099b0ba02cfa6p-1", None, 7),
    ("arfima0d0{d=0.3}", 1, ("0x1.46fe000b803c3p-2",),
     "0x1.07431625d3d56p-1", None, 8),
    ("arfima0d0{d=0.3}", 2, ("0x1.3c9d579fec35fp-2",),
     "0x1.f9142f27e1992p-2", None, 9),
    ("arfima0d0{d=0.3}", 3, ("0x1.5e4878170fa09p-2",),
     "0x1.f6b865f2c3f6fp-2", None, 7),
    ("ar1{theta=0.5}", 0, ("0x1.117dfd1b84fcdp-1",),
     "-0x1.afe26b872a5bep-2", "0x1.fd1de390eb0b0p-1", 1),
    ("ar1{theta=0.5}", 1, ("0x1.01f66043290e7p-1",),
     "-0x1.ac202c038099ap-2", "0x1.006f1e9b5a8c4p+0", 1),
    ("ar1{theta=0.5}", 2, ("0x1.ec16065c5d463p-2",),
     "-0x1.b4df4845c61a2p-2", "0x1.f82e61a586098p-1", 1),
    ("ar1{theta=0.5}", 3, ("0x1.fa77938127b0ap-2",),
     "-0x1.9c8b55e7770a4p-2", "0x1.085ba10877c99p+0", 1),
]


@pytest.mark.parametrize("spec,rep,theta_hat,objective,sigma2_hat,iterations", _FIT_PINS,
                         ids=[f"{case[0]}-{case[1]}" for case in _FIT_PINS])
def test_fits_keep_their_recorded_bits(spec, rep, theta_hat, objective, sigma2_hat,
                                       iterations):
    model = parse_model(spec)
    ts = model.simulate(gaussian(), 2048, seed=derive_seed(0, rep))
    fit = whittle_estimate(ts, get_taper("tukey"), model)
    assert [float(v).hex() for v in fit.theta_hat] == list(theta_hat)
    assert fit.objective_value.hex() == objective
    assert (None if fit.sigma2_hat is None else fit.sigma2_hat.hex()) == sigma2_hat
    assert fit.iterations == iterations


# Scoring fits as the search gave them while it still evaluated a last step
# of at most tol (spec, T, seed, taper, theta_hat, objective_value,
# evaluations), each fit from the truth.  Stopping before that step may move
# theta_hat by at most tol, save at most that one evaluation and, since each
# accepted step lowered the criterion, leave it higher only at round-off.
_SEARCH_BEFORE_THE_SKIP = [
    ("arfima0d0{d=0.3}", 1024, 71, "tukey", 0.28401748646735747, 0.5756904243491408, 13),
    ("arfima0d0{d=0.45}", 1024, 3, "tukey", 0.46204285164159464, 0.5289483883761124, 9),
    ("fgn{H=0.6}", 1024, 9, "tukey", 0.5391407186166194, -0.37557238359820316, 10),
    ("fgn{H=0.9}", 1024, 5, "tukey", 0.8897557352140261, -0.8253668205881451, 7),
    ("fgn{H=0.97}", 1024, 2, "tukey", 0.969267112417934, -1.3980612507898718, 6),
    ("arfima0d0{d=0.3}", 2048, derive_seed(0, 0), "tukey", 0.32069085954202414,
     0.5187610276247925, 8),
    ("arfima0d0{d=0.3}", 2048, derive_seed(0, 1), "tukey", 0.31932822791999266,
     0.5141837044883784, 9),
    ("arfima0d0{d=0.3}", 2048, derive_seed(0, 2), "tukey", 0.30919388260250047,
     0.49324105912127675, 10),
    ("arfima0d0{d=0.3}", 2048, derive_seed(0, 3), "tukey", 0.3420733236982953,
     0.4909377984449667, 8),
    ("arma{theta=[0.3]}", 1024, 73, "tukey", 0.30658194965464586, -0.415343139282871, 6),
    ("arma{theta=[0.4]}", 300, 6, "tukey", 0.44228710393302956, -0.4509186647079598, 11),
    ("arma{theta=[-0.6]}", 512, 12, "rect", -0.6211082214844638, -0.4525493346940127, 10),
    ("arma{theta=[0.8]}", 128, 17, "linear", 0.7632513100865138, -0.5524389008730533, 12),
]


@pytest.mark.parametrize("spec,T,seed,taper,theta_hat,objective,evaluations",
                         _SEARCH_BEFORE_THE_SKIP,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in _SEARCH_BEFORE_THE_SKIP])
def test_skipping_the_last_scoring_step_moves_a_fit_within_tol(spec, T, seed, taper, theta_hat,
                                                               objective, evaluations):
    model = parse_model(spec)
    ts = model.simulate(gaussian(), T, seed=seed)
    fit = whittle_estimate(ts, get_taper(taper), model)
    assert fit.converged
    assert abs(fit.theta_hat[0] - theta_hat) <= 1e-7
    assert evaluations - 1 <= fit.iterations <= evaluations
    assert fit.objective_value <= objective + 1e-12 * abs(objective)


def test_scoring_fit_evaluates_the_criterion_a_few_times(monkeypatch):
    calls = []
    real = whittle._profile_scale
    monkeypatch.setattr(whittle, "_profile_scale",
                        lambda *a: calls.append(a) or real(*a))
    ts = ARMA(theta=(0.3,)).simulate(gaussian(), 1024, seed=73)
    fit = whittle_estimate(ts, get_taper("tukey"), ARMA(theta=(0.0,)))
    assert fit.converged
    assert len(calls) == fit.iterations <= 6


def test_scoring_fit_evaluates_each_candidate_density_once(monkeypatch):
    # the scoring step reads the density the criterion was evaluated at, at
    # unit scale or, for a family without a scale, as it is
    calls = []
    real = whittle._grid_density
    monkeypatch.setattr(whittle, "_grid_density",
                        lambda *a: calls.append(a) or real(*a))
    for truth, start, seed in (("arma{theta=[0.3]}", "arma{theta=[0.0]}", 73),
                               ("arfima0d0{d=0.3}", "arfima0d0{d=0}", 71),
                               ("fgn{H=0.8}", "fgn{H=0.5}", 5)):
        ts = parse_model(truth).simulate(gaussian(), 1024, seed=seed)
        calls.clear()
        fit = whittle_estimate(ts, get_taper("tukey"), parse_model(start))
        assert fit.converged and fit.iterations > 1, truth
        assert len(calls) == fit.iterations, truth


def test_ar_closed_form_builds_no_periodogram(monkeypatch):
    # the closed form comes from the tapered series' lagged products: it
    # evaluates no density and no profiled criterion, builds no periodogram
    # and keeps none, so the fit pickles as it is
    densities, profiles, pgrams = [], [], []
    real_density, real_profile = whittle._grid_density, whittle._profile_scale
    real_pgram = whittle.tapered_periodogram
    monkeypatch.setattr(whittle, "_grid_density",
                        lambda *a: densities.append(a) or real_density(*a))
    monkeypatch.setattr(whittle, "_profile_scale",
                        lambda *a: profiles.append(a) or real_profile(*a))
    monkeypatch.setattr(whittle, "tapered_periodogram",
                        lambda *a, **k: pgrams.append(a) or real_pgram(*a, **k))
    for truth, start in ((AR1(theta=0.9), AR1(theta=0.0)),
                         (AR1(theta=0.9), ARMA(phi=(0.0,))),
                         (_PEAKED_AR2, ARMA(phi=(0.0, 0.0))),
                         (_PW_AR4, ARMA(phi=(0.0,) * 4))):
        ts = truth.simulate(gaussian(), 1024, seed=derive_seed(67, 0))
        densities.clear()
        profiles.clear()
        pgrams.clear()
        fit = whittle_estimate(ts, get_taper("tukey"), start)
        assert fit.converged and fit.iterations == 1
        assert len(densities) == len(profiles) == len(pgrams) == 0
        assert fit.periodogram is None
        copy = pickle.loads(pickle.dumps(fit))
        assert copy.periodogram is None
        assert (tuple(copy.theta_hat), copy.sigma2_hat, copy.objective_value) == (
            tuple(fit.theta_hat), fit.sigma2_hat, fit.objective_value)


def test_a_searched_fit_keeps_the_periodogram_it_was_fitted_to():
    ts = AR1(theta=-0.95).simulate(gaussian(), 8, seed=11)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0))
    assert fit.iterations > 1
    assert np.array_equal(fit.periodogram.values, tapered_periodogram(ts, get_taper("rect")).values)
    copy = pickle.loads(pickle.dumps(fit))
    assert np.array_equal(copy.periodogram.values, fit.periodogram.values)


def test_scoring_out_of_evaluations_is_not_converged():
    ts = ARMA(theta=(0.3,)).simulate(gaussian(), 1024, seed=73)
    fit = whittle_estimate(ts, get_taper("tukey"), ARMA(theta=(0.0,)), max_evals=1)
    assert not fit.converged
    assert fit.iterations == 1 and fit.theta_hat[0] == 0.0  # the box centre


@pytest.mark.parametrize("box,edge", [((0.6, 0.9), 0.6), ((0.1, 0.4), 0.4)])
def test_scoring_converges_onto_the_box_edge(box, edge):
    # c1 / c0 (about 0.5) lies outside the box; the closed form clips it
    ts = AR1(theta=0.5).simulate(gaussian(), 1024, seed=10)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0), bounds=[box])
    assert fit.converged
    assert fit.theta_hat[0] == edge


@pytest.mark.parametrize("T", [8, 16, 64, 256])
@pytest.mark.parametrize("theta", [-0.95, 0.5, 0.98, 0.999])
def test_unshifted_grid_roots_of_unity_identity(T, theta):
    # the e^{-i lam_j} of the unshifted grid are the N-th roots of unity, so
    # sum_j ln|1 - theta e^{-i lam_j}|^2 = ln(1 - theta^N)^2, summed as the
    # criterion sums ln f: over the folded nodes of the AR(1) unit density
    # (beyond N = 1024 the round-off of N log terms alone nears 1e-12)
    grid = tapered_periodogram(np.zeros(T), get_taper("rect")).grid
    log_terms = -np.log(2.0 * math.pi * AR1(theta=theta).density(grid.constants))
    assert abs(grid.sum(log_terms) - math.log((1.0 - theta**grid.N) ** 2)) <= 1e-12


@pytest.mark.parametrize("T", [8, 64, 256, 1024, 2048])
@pytest.mark.parametrize("theta", [-0.999, -0.95])
def test_ar1_density_keeps_its_digits_near_pi_as_theta_nears_minus_one(T, theta):
    # |1 - theta e^{-i lam}|^2 written as (1 - theta)^2 + theta (2 sin(lam/2))^2
    # cancels near lam = pi as theta -> -1 (2.0e-9 off here at theta = -0.999);
    # for theta < 0 both terms of (1 + theta)^2 - theta (2 cos(lam/2))^2 are >= 0
    grid = tapered_periodogram(np.zeros(T), get_taper("rect")).grid
    log_terms = -np.log(2.0 * math.pi * AR1(theta=theta).density(grid.constants))
    assert abs(grid.sum(log_terms) - math.log((1.0 - theta**grid.N) ** 2)) <= 1e-10


# AR(1)-shaped fits as the scoring search gave them before the closed form:
# (T, theta, taper, (theta_hat, objective_value) of an ar1 fit, the same of
# an arma{phi=[phi]} fit) of AR(1) data at seed derive_seed(89, T), each fit
# from the family at the origin.  Wherever |theta_hat|^{N-1} <= tol the fit
# is c1 / c0 at one evaluation, elsewhere a search from there; both land
# within tol of the former estimate, the criterion no higher but for
# round-off.
_AR1_SHAPED_BEFORE_THE_CLOSED_FORM = [
    (8, -0.95, "rect", (0.04167249232472632, -0.8320924275413519),
     (0.04167249232472625, -0.8320924275413519)),
    (8, -0.95, "linear", (0.47407552859841895, -1.2469891365568446),
     (0.4740755286677163, -1.2469891365568444)),
    (8, -0.95, "tukey", (-0.14447741993723698, -0.6431720050485463),
     (-0.144477419937237, -0.6431720050485463)),
    (8, 0.5, "rect", (0.768134072299984, -0.8550885314689688),
     (0.768134072299984, -0.8550885314689688)),
    (8, 0.5, "linear", (0.7928658039694524, -0.8821528315833909),
     (0.7928658039694524, -0.8821528315833909)),
    (8, 0.5, "tukey", (0.6555442211865224, -0.8978403882453946),
     (0.6555442211865224, -0.8978403882453946)),
    (8, 0.9, "rect", (0.8993233446806991, -0.4607835368119974),
     (0.8993233446806991, -0.4607835368119973)),
    (8, 0.9, "linear", (0.8774171286114999, -0.4393820519877372),
     (0.8774171286114999, -0.43938205198773733)),
    (8, 0.9, "tukey", (0.86032070691757, -0.26581893005655),
     (0.86032070691757, -0.26581893005654994)),
    (8, 0.98, "rect", (0.7751156295883356, -0.1370508514559488),
     (0.7751156295883356, -0.13705085145594886)),
    (8, 0.98, "linear", (0.7395951101868632, 0.25275655836008804),
     (0.7395951101868632, 0.252756558360088)),
    (8, 0.98, "tukey", (0.5353590426552293, -0.6321451540662939),
     (0.5353590398925734, -0.632145154066294)),
    (16, -0.95, "rect", (-0.8879606582846655, -0.2569127997337205),
     (-0.8879606582848112, -0.2569127997337206)),
    (16, -0.95, "linear", (-0.8916117014916226, -0.127161081894178),
     (-0.8916117014916203, -0.127161081894178)),
    (16, -0.95, "tukey", (-0.793497119391038, -0.34314094898442415),
     (-0.7934971193910375, -0.34314094898442415)),
    (16, 0.5, "rect", (0.4667792279557091, -0.4107401755721574),
     (0.46677922795570914, -0.4107401755721574)),
    (16, 0.5, "linear", (0.5626543054356724, -0.2649046787167204),
     (0.5626543054356724, -0.26490467871672035)),
    (16, 0.5, "tukey", (0.30393234077827597, -0.6482317632810335),
     (0.303932340778276, -0.6482317632810335)),
    (16, 0.9, "rect", (0.6592831786787948, -0.5178863311392214),
     (0.6592831786787948, -0.5178863311392214)),
    (16, 0.9, "linear", (0.4740815709892838, -0.594257878836156),
     (0.4740815709892838, -0.5942578788361561)),
    (16, 0.9, "tukey", (0.7556719434086935, -0.46563778338815215),
     (0.7556719434086935, -0.46563778338815204)),
    (16, 0.98, "rect", (0.49470129023941756, 0.17316503096345587),
     (0.49470129023941756, 0.17316503096345587)),
    (16, 0.98, "linear", (0.648135579423301, 0.3401572509142081),
     (0.648135579423301, 0.3401572509142081)),
    (16, 0.98, "tukey", (0.05733874723258243, 0.11098154097788968),
     (0.05733874723258245, 0.11098154097788968)),
    (64, -0.95, "rect", (-0.8949859837368761, -0.4509241395030256),
     (-0.8949859837368774, -0.4509241395030256)),
    (64, -0.95, "linear", (-0.8542019603113044, -0.30625598944394605),
     (-0.8542019603113041, -0.30625598944394605)),
    (64, -0.95, "tukey", (-0.8817210470033386, -0.5139246587449775),
     (-0.8817210470033412, -0.5139246587449775)),
    (64, 0.5, "rect", (0.35685055068629584, -0.3337002157957501),
     (0.35685055068629584, -0.3337002157957501)),
    (64, 0.5, "linear", (0.42166542196510953, -0.35982856319236844),
     (0.4216654219651096, -0.3598285631923685)),
    (64, 0.5, "tukey", (0.3551482873681115, -0.3103340651885796),
     (0.3551482873681115, -0.31033406518857953)),
    (64, 0.9, "rect", (0.7480280913919213, -0.32966462104971944),
     (0.7480280913919213, -0.32966462104971944)),
    (64, 0.9, "linear", (0.7993390255787184, -0.35791321703415235),
     (0.7993390255787184, -0.35791321703415235)),
    (64, 0.9, "tukey", (0.6739294042832341, -0.3107979120954117),
     (0.673929404283234, -0.3107979120954116)),
    (64, 0.98, "rect", (0.974168199719259, -0.432928728098101),
     (0.9741681997181016, -0.432928728098101)),
    (64, 0.98, "linear", (0.9651900503942605, -0.43631536965229994),
     (0.9651900503942605, -0.43631536965229994)),
    (64, 0.98, "tukey", (0.9733287086602811, -0.3610939299366008),
     (0.9733287086602811, -0.3610939299366008)),
    (256, -0.95, "rect", (-0.9316871705472024, -0.30129627202337494),
     (-0.9316871705471987, -0.30129627202337483)),
    (256, -0.95, "linear", (-0.932436665282995, -0.2383488319513206),
     (-0.932436665282993, -0.23834883195132062)),
    (256, -0.95, "tukey", (-0.9395612858287321, -0.3291994033339246),
     (-0.9395612858287323, -0.3291994033339246)),
    (256, 0.5, "rect", (0.49421207424688085, -0.4814129098467786),
     (0.49421207424688085, -0.4814129098467786)),
    (256, 0.5, "linear", (0.4824941259448419, -0.529214861448317),
     (0.4824941259448419, -0.529214861448317)),
    (256, 0.5, "tukey", (0.4868554604208997, -0.48014015434821855),
     (0.4868554604208998, -0.48014015434821855)),
    (256, 0.9, "rect", (0.8863838900814475, -0.4786679291469212),
     (0.8863838900814476, -0.4786679291469212)),
    (256, 0.9, "linear", (0.8967208283860347, -0.5129312145721341),
     (0.8967208283860347, -0.5129312145721341)),
    (256, 0.9, "tukey", (0.8416990913283834, -0.4914166247633042),
     (0.8416990913283834, -0.4914166247633042)),
    (256, 0.98, "rect", (0.9576545950955744, -0.34690320359087784),
     (0.9576545950955744, -0.34690320359087784)),
    (256, 0.98, "linear", (0.9480343607968812, -0.3836286372084601),
     (0.9480343607968812, -0.38362863720846013)),
    (256, 0.98, "tukey", (0.9586206373588617, -0.2963293541580294),
     (0.9586206373588617, -0.2963293541580294)),
    (1024, -0.95, "rect", (-0.9340225623761147, -0.4266443586403747),
     (-0.9340225623761136, -0.4266443586403749)),
    (1024, -0.95, "linear", (-0.920412414382159, -0.4200051165244024),
     (-0.9204124143821591, -0.42000511652440237)),
    (1024, -0.95, "tukey", (-0.9424617843234164, -0.4289222512752195),
     (-0.9424617843234164, -0.4289222512752197)),
    (1024, 0.5, "rect", (0.505010026291166, -0.3917999821052225),
     (0.505010026291166, -0.3917999821052224)),
    (1024, 0.5, "linear", (0.5283849929710407, -0.3742868493927588),
     (0.5283849929710407, -0.3742868493927588)),
    (1024, 0.5, "tukey", (0.47307459239563154, -0.4262756577100761),
     (0.4730745923956315, -0.4262756577100761)),
    (1024, 0.9, "rect", (0.8883997431398742, -0.3910072096318223),
     (0.8883997431398742, -0.3910072096318223)),
    (1024, 0.9, "linear", (0.9008859567475562, -0.37087291424646013),
     (0.9008859567475562, -0.37087291424646013)),
    (1024, 0.9, "tukey", (0.8569622191870351, -0.4289586751490857),
     (0.856962219187035, -0.4289586751490857)),
    (1024, 0.98, "rect", (0.9759489500894197, -0.39437325771371073),
     (0.9759489500894197, -0.3943732577137106)),
    (1024, 0.98, "linear", (0.9717004170756561, -0.41701201062829274),
     (0.9717004170756561, -0.41701201062829274)),
    (1024, 0.98, "tukey", (0.9797018592295783, -0.3617188676698622),
     (0.9797018592295783, -0.3617188676698622)),
    (4096, -0.95, "rect", (-0.9483421253524824, -0.41073877569691913),
     (-0.9483421253524885, -0.4107387756969191)),
    (4096, -0.95, "linear", (-0.9536537767622999, -0.42845121110978124),
     (-0.9536537767622986, -0.4284512111097811)),
    (4096, -0.95, "tukey", (-0.9439065503517056, -0.3890437250571543),
     (-0.9439065503517062, -0.3890437250571543)),
    (4096, 0.5, "rect", (0.49864637767437564, -0.41089380381903795),
     (0.49864637767437564, -0.41089380381903795)),
    (4096, 0.5, "linear", (0.49168398249754375, -0.41541569411192075),
     (0.49168398249754375, -0.41541569411192075)),
    (4096, 0.5, "tukey", (0.4958998147811412, -0.39725020488283164),
     (0.49589981478114126, -0.39725020488283164)),
    (4096, 0.9, "rect", (0.8917584289629884, -0.40911073187952995),
     (0.8917584289629884, -0.4091107318795299)),
    (4096, 0.9, "linear", (0.889266479048609, -0.41031125412258834),
     (0.889266479048609, -0.41031125412258834)),
    (4096, 0.9, "tukey", (0.8938801361729097, -0.3968680356026643),
     (0.8938801361729097, -0.3968680356026643)),
    (4096, 0.98, "rect", (0.9768966753406998, -0.4029700341181027),
     (0.9768966753406998, -0.4029700341181027)),
    (4096, 0.98, "linear", (0.9714895155045484, -0.40656737641886115),
     (0.9714895155045484, -0.40656737641886115)),
    (4096, 0.98, "tukey", (0.9804042462119407, -0.404749959205263),
     (0.9804042462119407, -0.404749959205263)),
]


@pytest.mark.parametrize("T,theta,taper,ar1,arma", _AR1_SHAPED_BEFORE_THE_CLOSED_FORM,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in _AR1_SHAPED_BEFORE_THE_CLOSED_FORM])
def test_ar1_shaped_fits_match_the_search_they_replace(T, theta, taper, ar1, arma):
    ts = AR1(theta=theta).simulate(gaussian(), T, seed=derive_seed(89, T))
    for start, (theta_hat, objective) in ((AR1(theta=0.0), ar1), (ARMA(phi=(0.0,)), arma)):
        fit = whittle_estimate(ts, get_taper(taper), start)
        assert fit.converged
        assert abs(fit.theta_hat[0] - theta_hat) <= 1e-7
        assert fit.objective_value <= objective + 1e-12 * abs(objective)
        g1_over_g0 = _yule_walker(ts, get_taper(taper))
        if abs(g1_over_g0) ** (canonical_grid(T, False).N - 1) <= 1e-7:
            assert fit.iterations == 1 and fit.theta_hat[0] == g1_over_g0


def _yule_walker(ts, taper) -> float:
    """g_1 / g_0 of the tapered series y = h x, g_k = sum_t y_t y_{t+k},
    clipped into the default box."""
    g = _lagged_products(taper.values(ts.T) * ts.values, 1)
    return min(max(g[1] / g[0], -0.99), 0.99)


def test_ar1_fit_of_a_series_without_energy_searches_from_the_centre():
    # c0 = 0 leaves c1 / c0 undefined: the fit searches from the box centre,
    # where it stood before the closed form (theta_hat -5.6e-17, 2 evaluations)
    for start in (AR1(theta=0.0), ARMA(phi=(0.0,))):
        fit = whittle_estimate(np.zeros(64), get_taper("tukey"), start)
        assert fit.converged and abs(fit.theta_hat[0]) <= 1e-7
        assert fit.objective_value == pytest.approx(-346.3067024823116, rel=1e-12)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("taper", ["rect", "tukey"])
@pytest.mark.parametrize("family", ["ar1{theta=0.0,sigma2=1.0}", "arfima0d0{d=0.2}"])
def test_fit_refuses_a_series_holding_nan_or_inf(bad, taper, family):
    # refused by name before either path runs, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="series contains nan or inf"):
            whittle_estimate(np.array([bad, 1.0, 2.0]), get_taper(taper), parse_model(family))


def test_ar1_fit_refuses_a_taper_that_vanishes_on_the_sample():
    # the linear taper's one point at T = 1 is h(1) = 0, so sum h^2 = 0: the
    # lagged products vanish with it and the fit refuses the sample as the
    # grid path does, with no nan or inf
    for start in (AR1(theta=0.0), ARMA(phi=(0.0,))):
        with pytest.raises(DomainError, match="vanishes on the sample"):
            whittle_estimate(np.ones(1), get_taper("linear"), start)
    # the rectangular taper's point is 1: theta_hat = 0 and sigma2_hat = x^2
    fit = whittle_estimate(np.array([2.0]), get_taper("rect"), AR1(theta=0.0))
    assert fit.iterations == 1 and fit.theta_hat[0] == 0.0 and fit.sigma2_hat == 4.0


# the linear taper vanishes at T = 1 (see above)
@pytest.mark.parametrize("T,taper", [(T, taper) for T in (1, 16, 64, 1024, 4096)
                                     for taper in ("rect", "linear", "tukey")
                                     if (T, taper) != (1, "linear")])
def test_ar1_closed_form_is_the_grid_criterion_at_its_minimizer(T, taper):
    # sigma2_hat and U_T from lagged products are the grid's profiled scale
    # and criterion at theta_hat, up to round-off
    tp = get_taper(taper)
    ts = AR1(theta=-0.2).simulate(gaussian(), T, seed=derive_seed(97, T))
    fit = whittle_estimate(ts, tp, AR1(theta=0.0))
    assert fit.iterations == 1 and fit.periodogram is None
    pg = tapered_periodogram(ts, tp)
    unit = fit.model.with_params(sigma2=1.0)
    s2, value = whittle._profile_scale(pg, whittle._grid_density(unit, pg.grid))
    assert fit.sigma2_hat == pytest.approx(s2, rel=1e-13, abs=0.0)
    assert fit.objective_value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert whittle_objective(pg, fit.model) == pytest.approx(value, rel=1e-13)


@pytest.mark.parametrize("T", [8, 64, 1024, 4096])
@pytest.mark.parametrize("taper", ["rect", "linear", "tukey"])
def test_grid_cosine_sums_of_the_periodogram_are_the_lagged_products(T, taper):
    # sum_j I(lam_j) cos(k lam_j) 2 pi / N = g_k / sum h^2 on the unshifted
    # grid (N >= 4T, so no lag wraps around); the closed-form fit and its
    # projections rest on it.  g_k = 0 for k >= T, and the linear taper's
    # last point is 0, so exact zeros take an absolute floor of 1e-14 g_0.
    tp = get_taper(taper)
    ts = AR1(theta=0.5).simulate(gaussian(), T, seed=derive_seed(5, T))
    pg = tapered_periodogram(ts, tp)
    g = np.pad(_lagged_products(tp.values(T) * ts.values, 8), (0, 8))[:9]
    g = g / tp.sum_of_powers(2, T)
    for k in range(9):
        grid_sum = np.sum(pg.values * np.cos(k * pg.grid.points)) * pg.grid.weight
        assert grid_sum == pytest.approx(g[k], rel=1e-13, abs=1e-14 * g[0]), k


def test_small_sample_ar1_fit_still_searches():
    # T = 8 (N = 32): g1 / g0 = -0.865 misses the minimizer by 2.6e-3, as
    # |g1 / g0|^31 = 0.011 says, so the fit searches from there
    ts = AR1(theta=-0.95).simulate(gaussian(), 8, seed=11)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0))
    g1_over_g0 = _yule_walker(ts, get_taper("rect"))
    assert abs(g1_over_g0) ** 31 > 1e-7
    assert fit.converged and fit.iterations > 1
    assert abs(fit.theta_hat[0] - g1_over_g0) > 1e-3
    # the search before the closed form: theta_hat and objective_value
    assert abs(fit.theta_hat[0] - -0.8627180285658219) <= 1e-7
    assert fit.objective_value <= 0.8814430051460602 * (1.0 + 1e-12)


def test_one_parameter_search_raises_no_runtime_warning():
    tp = get_taper("tukey")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for truth, start in ((AR1(theta=0.9), AR1(theta=0.0)),
                             (ARFIMA0d0(d=0.4), ARFIMA0d0(d=0.0)),
                             (ARMA(theta=(-0.6,)), ARMA(theta=(0.0,)))):
            ts = truth.simulate(gaussian(), 512, seed=12)
            assert whittle_estimate(ts, tp, start).converged
            # a pure AR's box holds partial autocorrelations: inside (-1, 1)
            box = (-0.999, 0.999) if ar_polynomial(start) else (-1.5, 1.5)
            assert whittle_estimate(ts, tp, start, bounds=[box]).converged


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


# Scale-only fits (no shape parameter) as float.hex, recorded when they still
# ran a block of their own: (model, T, seed, taper, sigma2_hat, objective_value).
_SCALE_ONLY_FITS = [
    ("white_noise{sigma2=1.3}", 400, 6, "tukey", "0x1.3f8bb51bcd738p+0",
     "-0x1.3b788d32d3427p-2"),
    ("arma{sigma2=2}", 512, 29, "rect", "0x1.136a611044203p+1", "-0x1.2561a00434943p-5"),
]


@pytest.mark.parametrize("spec,T,seed,taper,sigma2_hat,objective", _SCALE_ONLY_FITS)
def test_scale_only_fits_keep_their_recorded_bits(spec, T, seed, taper, sigma2_hat,
                                                  objective):
    model = parse_model(spec)
    ts = model.simulate(gaussian(), T, seed=seed)
    fit = whittle_estimate(ts, get_taper(taper), model)
    assert fit.names == ("sigma2",)
    assert fit.sigma2_hat.hex() == sigma2_hat
    assert [float(v).hex() for v in fit.theta_hat] == [sigma2_hat]
    assert fit.objective_value.hex() == objective
    assert fit.converged and fit.iterations == 1
    with pytest.raises(DomainError, match="need 0 bounds pairs"):
        whittle_estimate(ts, get_taper(taper), model, bounds=[(0.0, 1.0)])


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
    # Rectangular taper and Gaussian innovations: the attached
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
    # (1/4pi) int 4 ln^2 |2 sin(lam/2)| = pi^2/6: a log singularity at the
    # origin, integrated by the graded Gauss rule
    info = info_matrices(ARFIMA0d0(d=0.3))
    assert info.W[0, 0] == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert info.gamma[0, 0] == pytest.approx(6.0 / math.pi**2, rel=1e-14)
    assert np.allclose(info.B, 0.0, atol=1e-9)


def _per_row_quad(fn, rows):
    """Row integrals of a long-memory integrand, one adaptive rule per row,
    every node evaluated afresh, with QUADPACK's error bound 2 max(1e-9,
    1e-10 |row|) over [-pi, pi]."""
    from scipy.integrate import quad

    def row_fn(x, r):
        return float(np.asarray(fn(np.array([x])))[r, 0])

    ref = np.array([2.0 * quad(row_fn, 0.0, math.pi, args=(r,), limit=400,
                               epsabs=1e-9, epsrel=1e-10)[0] for r in range(rows)])
    return ref, 2.0 * np.maximum(1e-9, 1e-10 * np.abs(ref))


def test_long_memory_quadrature_evaluates_each_node_once():
    # degree None runs the top level alone, degree 0 every level from the first
    m = ArfimaPDQ(d=0.3, phi=(0.4,))
    nodes = []

    def integrand(lam):
        nodes.extend(lam.tolist())
        return np.vstack([m.density(lam), m.score(lam)])

    ref, bound = _per_row_quad(integrand, 4)
    for degree in (None, 0):
        nodes.clear()
        vals = spectral_integral(integrand, exponent=m.origin_exponent, degree=degree)
        assert len(nodes) == len(set(nodes))
        assert np.all(np.abs(vals - ref) <= bound)


def test_info_matrix_long_memory_matches_per_row_reference(monkeypatch):
    m = parse_model("arfima_pdq{d=0.3,phi=0.4}")
    seen = []
    real = whittle.spectral_integral
    monkeypatch.setattr(whittle, "spectral_integral",
                        lambda fn, **kw: seen.append(fn) or real(fn, **kw))
    info = info_matrices(m)
    # rows: s_d, s_phi, then s_d s_d, s_d s_phi, s_phi s_phi
    ref, bound = _per_row_quad(seen[0], 5)
    upper = np.array([info.W[0, 0], info.W[0, 1], info.W[1, 1]]) * (4.0 * math.pi)
    assert np.all(np.abs(upper - ref[2:]) <= bound[2:])
    w_inv = np.linalg.inv(info.W)
    assert np.array_equal(info.gamma, w_inv @ (info.W + info.B) @ w_inv)


def test_long_memory_population_integrals_run_without_quadpack(monkeypatch):
    import scipy.integrate

    from taperspec.functionals import (asymptotic_variance, cosine, custom, indicator,
                                       true_functional)
    from taperspec.gof import b_matrix, cosine_basis
    from taperspec.toeplitz import build_matrix, trace_limit

    m2, m3 = ARFIMA0d0(d=0.2), ARFIMA0d0(d=0.3)
    rect, tukey = get_taper("rect"), get_taper("tukey")
    # int_0^1 f for d = 0.2 (indicator(1.0) is 1/2 on [-1, 1]) by QUADPACK's
    # algebraic-weight rule (QAWS): f = x^-0.4 (2 sin(x/2) / x)^-0.4, and
    # 2 sin(x/2) / x = sinc(x / 2pi)
    part, _ = scipy.integrate.quad(lambda x: np.sinc(x / (2.0 * math.pi)) ** -0.4, 0.0, 1.0,
                                   weight="alg", wvar=(-0.4, 0.0), epsabs=0.0, epsrel=1e-13)
    indicator_limit = 2.0 * math.pi * tukey.moment(4) * part

    def no_quadpack(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    real = scipy.integrate.quad
    for module in [scipy.integrate] + [m for name, m in sys.modules.items()
                                       if name.startswith("taperspec")]:
        if getattr(module, "quad", None) is real:
            monkeypatch.setattr(module, "quad", no_quadpack)
    info = info_matrices(parse_model("arfima_pdq{d=0.3,phi=0.4}"))
    assert info.W[0, 0] == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    # -2 ln|2 sin(lam/2)| = 2 sum_n cos(n lam) / n, so b_j1 = 1/j under rect
    b = b_matrix(m2, cosine_basis(4), rect)
    assert np.allclose(b[:, 0], 1.0 / np.arange(1, 5), rtol=1e-13, atol=0)
    # f^2 for d is f for 2d, and cos^2(k lam) = (1 + cos(2k lam)) / 2
    r = ARFIMA0d0(d=0.4).covariance(np.arange(129))
    for k in range(1, 65):
        assert asymptotic_variance(m2, cosine(k), rect) == pytest.approx(
            2.0 * math.pi * (r[0] + r[2 * k]), rel=1e-12)
    # g = |1 - e^{i lam}|^2: int f g = 2 r(0) - 2 r(1), and (f g)^2 is the
    # d = 2 * 0.3 - 2 density, integrable though 2 beta = -1.2
    g = custom(lambda lam: 2.0 - 2.0 * np.cos(lam))
    r3 = m3.covariance(np.arange(2))
    assert true_functional(m3, g) == pytest.approx(2.0 * (r3[0] - r3[1]), rel=1e-13)
    assert asymptotic_variance(m3, g, rect) == pytest.approx(
        8.0 * math.pi**2 * math.gamma(3.8) / math.gamma(2.4) ** 2, rel=1e-13)
    assert trace_limit([m2, m2], rect) == pytest.approx(2.0 * math.pi * r[0], rel=1e-13)
    assert trace_limit([m2, indicator(1.0)], tukey) == pytest.approx(indicator_limit, rel=1e-10)
    # short memory takes the same rules: AR(1) against an indicator (F(mu) and
    # int_0^mu f^2 in closed form), and cosine coefficients by one transform
    ar1, mu, theta = AR1(theta=0.5, sigma2=1.0), 1.0, 0.5
    q = (1.0 + theta) / (1.0 - theta)
    big_f = math.atan(q * math.tan(mu / 2.0)) / (math.pi * (1.0 - theta**2))
    # (2 pi f)^2 = 1 / ((2 theta)^2 (a - cos lam)^2), a = (1 + theta^2) / (2 theta),
    # and (a^2 - 1) / (a - cos)^2 = d/dlam [sin / (a - cos)] + a / (a - cos)
    a = (1.0 + theta**2) / (2.0 * theta)
    s = math.sqrt(a * a - 1.0)
    int_f2 = (math.sin(mu) / (a - math.cos(mu)) / s**2
              + 2.0 * a * math.atan(math.sqrt((a + 1.0) / (a - 1.0)) * math.tan(mu / 2.0))
              / s**3) / (2.0 * theta) ** 2 / (2.0 * math.pi) ** 2
    assert true_functional(ar1, indicator(mu)) == pytest.approx(big_f, rel=1e-13)
    assert asymptotic_variance(ar1, indicator(mu), rect) == pytest.approx(
        2.0 * math.pi * int_f2, rel=1e-13)
    assert trace_limit([ar1, indicator(mu)], rect) == pytest.approx(
        2.0 * math.pi * big_f, rel=1e-13)
    kernel = lambda lam: 1.0 / (1.25 - np.cos(lam))  # coefficients 2 pi 0.5^u / 0.75
    exact = 2.0 * math.pi * 0.5 ** np.arange(64) / 0.75
    assert np.allclose(build_matrix(custom(kernel), rect, 64)[0], exact, rtol=0, atol=1e-13)
    assert np.allclose(custom(kernel).coefficients(63), exact, rtol=0, atol=1e-13)


def test_info_matrix_singular_score():
    with pytest.raises(SingularInformationError):
        info_matrices(_FlatScore(theta=0.3))


def test_info_matrix_parameterless_model():
    with pytest.raises(DomainError):
        info_matrices(_Parameterless())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nelder_mead_meets_no_infinite_criterion():
    # the three-parameter ARMA fits of the harness's whittle study: candidates
    # outside the stationary region score a finite penalty, so Nelder-Mead never
    # subtracts inf from inf, and the fits land on feasible minima
    model = parse_model("arma{phi=[0.5,-0.2],theta=[0.3]}")
    for rep in range(3):
        x = model.simulate(gaussian(), 256, seed=derive_seed(53, rep))
        fit = whittle_estimate(x, get_taper("tukey"), model)
        assert fit.converged
        assert math.isfinite(fit.objective_value) and fit.objective_value < 0.0


# ------------------------------------------- pure AR(p): Durbin-Levinson fits

_AR2 = ARMA(phi=(0.5, -0.2))
_AR3 = ARMA(phi=(0.6, -0.4, 0.3))


def _pacf(phi) -> list:
    """The partial autocorrelations of a stationary AR coefficient vector."""
    return models._step_down([1.0, *(-v for v in phi)])


# Pure-AR fits as the five-start Nelder-Mead search in the box of phi gave
# them, from the family at the origin: (data, T, taper, seed, theta_hat,
# objective_value, converged) for data seeded derive_seed(3101 + T, seed).
# The peaked AR(2) and the AR(4) lie outside that box, so those fits ended
# on a face of it.
_SEARCHED_AR_FITS = [
    (_AR2, 1024, "rect", 0, (0.49432067638044586, -0.1978230567865567),
     -0.4087334966284679, True),
    (_AR2, 1024, "rect", 1, (0.4797335959884784, -0.18919049808662028),
     -0.4025032530519563, True),
    (_AR2, 1024, "rect", 2, (0.5080622949752153, -0.22042003727177578),
     -0.4070717633157151, True),
    (_AR2, 1024, "tukey", 0, (0.5022141229188477, -0.18692989071143434),
     -0.3997627428992312, True),
    (_AR2, 1024, "tukey", 1, (0.4971801759663969, -0.15185151252002807),
     -0.3768711691472292, True),
    (_AR2, 1024, "tukey", 2, (0.4930581496091261, -0.2427967489883015),
     -0.39566954369693713, True),
    (_AR2, 1024, "linear", 0, (0.4992526510290962, -0.21505074687406744),
     -0.4131095438936667, True),
    (_AR2, 1024, "linear", 1, (0.47335771330707066, -0.20502979536943342),
     -0.4089752584315377, True),
    (_AR2, 1024, "linear", 2, (0.512258147772364, -0.2064096055665726),
     -0.4340207841723641, True),
    (_PEAKED_AR2, 1024, "rect", 0, (0.99, -0.19314977645874032),
     0.5294912082117784, True),
    (_PEAKED_AR2, 1024, "rect", 1, (0.99, -0.19985161552917052),
     0.5164980927800717, True),
    (_PEAKED_AR2, 1024, "rect", 2, (0.99, -0.20670524974275462),
     0.6325375503802242, True),
    (_PEAKED_AR2, 1024, "tukey", 0, (0.99, -0.2046201427178434),
     0.4885373124847705, True),
    (_PEAKED_AR2, 1024, "tukey", 1, (0.99, -0.2046683303833008),
     0.5370042292979101, True),
    (_PEAKED_AR2, 1024, "tukey", 2, (0.99, -0.19953788681030266),
     0.45656313770008156, True),
    (_PEAKED_AR2, 1024, "linear", 0, (0.99, -0.18480908027829018),
     0.5291386043404996, True),
    (_PEAKED_AR2, 1024, "linear", 1, (0.99, -0.1976332552479354),
     0.5057700665012286, True),
    (_PEAKED_AR2, 1024, "linear", 2, (0.99, -0.20932936548233938),
     0.7830786120575384, True),
    (_AR3, 1024, "rect", 0, (0.592733595560762, -0.3990596745818348, 0.3203234452771088),
     -0.4087724501747279, True),
    (_AR3, 1024, "rect", 1, (0.5894791478348478, -0.4133938620542873, 0.34171255344247986),
     -0.40270722455784413, True),
    (_AR3, 1024, "rect", 2, (0.6093993362013457, -0.4232679149501314, 0.32183165550501025),
     -0.4070792414989105, True),
    (_AR3, 1024, "tukey", 0, (0.6001024159986477, -0.37006371414285577, 0.2915240794227534),
     -0.4001008428683651, True),
    (_AR3, 1024, "tukey", 1, (0.5964062491328821, -0.380248861116788, 0.3592864356167821),
     -0.3777999211324551, True),
    (_AR3, 1024, "tukey", 2, (0.5804254688698585, -0.4273135666220996, 0.29529958792823996),
     -0.3952544281231452, True),
    (_AR3, 1024, "linear", 0, (0.5994182162084978, -0.4324322672391445, 0.3472383893320171),
     -0.41370083084616877, True),
    (_AR3, 1024, "linear", 1, (0.5860967515113589, -0.4285259398132395, 0.3350514484676922),
     -0.40880301839589633, True),
    (_AR3, 1024, "linear", 2, (0.6191793178274615, -0.4155924187147927, 0.3394012807832423),
     -0.4349013049561975, True),
    (_AR3, 1, "rect", 0, (9.836277737594367e-06, -2.609244703504955e-09, -9.835871810402354e-06),
     0.040689732226705785, True),
    (_AR3, 1, "rect", 1, (0.0, 0.0, 0.0),
     -3.789593714926926, True),
    (_AR3, 1, "rect", 2, (1.3644849294772384e-05, -3.358018631541997e-09, -1.3627978205810492e-05),
     -0.8792670933657367, True),
    (_AR3, 1, "tukey", 0, (9.836277737594367e-06, -2.609244703504955e-09, -9.835871810402354e-06),
     0.040689732226705785, True),
    (_AR3, 1, "tukey", 1, (0.0, 0.0, 0.0),
     -3.789593714926926, True),
    (_AR3, 1, "tukey", 2, (1.3644849294772384e-05, -3.358018631541997e-09, -1.3627978205810492e-05),
     -0.8792670933657367, True),
    (_AR3, 2, "rect", 0, (0.45855005427433804, -0.20064842198783941, 0.06550617362851704),
     -0.20260015827625566, True),
    (_AR3, 2, "rect", 1, (0.7177647311053439, -0.45255263861169476, 0.17348942026781594),
     -0.5904063550026077, True),
    (_AR3, 2, "rect", 2, (0.34614674818840807, -0.11745859609205725, 0.032884415544665486),
     -0.5848614614636536, True),
    (_AR3, 2, "tukey", 0, (0.2313997781646831, -0.05328578927929169, 0.01114063643054087),
     0.03128093403671524, True),
    (_AR3, 2, "tukey", 1, (0.5958445264121117, -0.3244017826226039, 0.11742724648200531),
     -0.5994728866551138, True),
    (_AR3, 2, "tukey", 2, (0.17345184151177376, -0.030035852902519942, 0.004914314172929862),
     -0.3499979447609356, True),
    (_AR3, 3, "rect", 0, (0.5620964030596716, -0.2871769524770476, 0.1193530885552983),
     -0.29343698237683596, True),
    (_AR3, 3, "rect", 1, (-0.06413519494561144, -0.4695649106265523, -0.04514155095386711),
     -0.8370073133883456, True),
    (_AR3, 3, "rect", 2, (0.1848133759354409, -0.042297178714854326, 0.008966355922323626),
     -0.8532629820607858, True),
    (_AR3, 3, "tukey", 0, (0.2163254589686727, -0.04028086084323147, 0.007041715581475057),
     -0.2693248163671409, True),
    (_AR3, 3, "tukey", 1, (-0.1692761277210431, -0.2136661628421066, -0.05906153929251421),
     -0.6588750338503693, True),
    (_AR3, 3, "tukey", 2, (0.024664759749726185, -0.0042963290925689315, 0.00019640511689726886),
     -0.838956836093295, True),
    (_PW_AR4, 1024, "rect", 0, (0.9899999981977134, -0.21525627738811054, -0.6508271555341354, 0.183147091239645),
     1.2317478944334712, False),
    (_PW_AR4, 1024, "rect", 1, (0.99, -0.1553465592449202, -0.7410379468322987, 0.24829661768156364),
     1.2496319880600437, False),
    (_PW_AR4, 1024, "rect", 2, (0.9899999999999539, -0.1293563634304261, -0.8003738690602213, 0.3043505603570481),
     1.2187529560224875, False),
    (_PW_AR4, 1024, "tukey", 0, (0.9899999999999989, -0.037184961989393195, -0.8837513927483036, 0.3315984349394226),
     1.0066004266407342, True),
    (_PW_AR4, 1024, "tukey", 1, (0.9899999999999933, -0.09367449799686757, -0.800564186136244, 0.2705699432644345),
     1.2850243373403816, True),
    (_PW_AR4, 1024, "tukey", 2, (0.9899999999999989, -0.15049837456932358, -0.7614111266923085, 0.27331661366416815),
     1.3434490711825606, True),
    (_PW_AR4, 1024, "linear", 0, (0.99, -0.3466653144665036, -0.48399729762111005, 0.07658809806555167),
     1.399043756357012, False),
    (_PW_AR4, 1024, "linear", 1, (0.99, -0.25877039567983895, -0.6007152114717031, 0.1573634100149417),
     1.2476314007990517, False),
    (_PW_AR4, 1024, "linear", 2, (0.989999999999994, -0.11018214845509955, -0.8442778684811683, 0.3221515876352463),
     1.090985851182968, False),
    (_PW_AR4, 1, "rect", 0, (0.0, 0.0, 0.0, 0.0),
     1.3425352824291146, True),
    (_PW_AR4, 1, "rect", 1, (0.019973472703031226, -0.00020545562361408786, -0.0199735113201783, -0.9417947204767945),
     3.9850139109493026, True),
    (_PW_AR4, 1, "rect", 2, (-4.9540965353352145e-06, 3.979955768318751e-09, 4.938296281650595e-06, 0.00012500591014895815),
     2.915349519715112, True),
    (_PW_AR4, 1, "tukey", 0, (0.0, 0.0, 0.0, 0.0),
     1.3425352824291146, True),
    (_PW_AR4, 1, "tukey", 1, (0.019973472703031226, -0.00020545562361408786, -0.0199735113201783, -0.9417947204767945),
     3.9850139109493026, True),
    (_PW_AR4, 1, "tukey", 2, (-4.9540965353352145e-06, 3.979955768318751e-09, 4.938296281650595e-06, 0.00012500591014895815),
     2.915349519715112, True),
    (_PW_AR4, 2, "rect", 0, (0.2688368885092465, -0.07227575459714886, 0.020944149786386514, -0.0056305478839372945),
     2.6877705055231855, False),
    (_PW_AR4, 2, "rect", 1, (0.6166015365962398, -0.5978375664817382, 0.8321625330331577, -0.5356218728162025),
     2.2657250813686485, False),
    (_PW_AR4, 2, "rect", 2, (0.7804090945332425, -0.7407708965235447, 0.989969592640489, -0.679784223139793),
     2.591170810052257, True),
    (_PW_AR4, 2, "tukey", 0, (0.13441828794948824, -0.018068605105281167, 0.0024742286565974767, -0.0003322937088322945),
     2.9227757174081535, False),
    (_PW_AR4, 2, "tukey", 1, (0.646219370272014, -0.6604974600506777, 0.9241450515230001, -0.6030042582590667),
     2.1166346588739704, False),
    (_PW_AR4, 2, "tukey", 2, (0.5051563471456232, -0.257222773688242, 0.17462432645927983, -0.0882241231816378),
     2.7611749284591536, False),
    (_PW_AR4, 4, "rect", 0, (0.6550794601015575, -0.35064774642241214, -0.07250339847966936, 0.15008614286050964),
     2.390486860446369, True),
    (_PW_AR4, 4, "rect", 1, (0.9899999978405103, -0.577993298733599, 0.18963627086113544, -0.012860293634956485),
     2.389592063144703, False),
    (_PW_AR4, 4, "rect", 2, (0.9899999999999665, -0.24026938496261718, -0.278452849498635, 0.2111357205603242),
     2.025030417888417, False),
    (_PW_AR4, 4, "tukey", 0, (0.728995485383147, -0.4294977611829462, 0.17231531023247765, -0.04108917935294304),
     2.6130295296315817, True),
    (_PW_AR4, 4, "tukey", 1, (0.99, -0.6766319718049174, 0.3687635722472106, -0.13888602335192934),
     2.5349619000994283, True),
    (_PW_AR4, 4, "tukey", 2, (0.9899998466173907, -0.6576001240003333, 0.3136740946249643, -0.08776540783592163),
     2.0370448880558105, False),
]


@pytest.mark.parametrize("data,T,taper,seed,before,objective,converged", [
    pytest.param(*case, id=f"p{len(case[4])}-{case[1]}-{case[2]}-{case[3]}")
    for case in _SEARCHED_AR_FITS])
def test_pure_ar_fits_reach_the_former_search_criterion(data, T, taper, seed, before,
                                                        objective, converged):
    # Every fit converges.  Wherever the former minimizer lies inside the r
    # cube (-0.99, 0.99)^p, the Levinson fit's criterion is at most its own
    # but for round-off; where it does not (two T = 2 fits of the AR(4),
    # with r2 = -0.99999), the fit ends on the cube's face, within the
    # search's resolution.  At T = 1024 the fit is the closed form, and
    # where the search converged off the faces of its box, both agree
    # within its tolerance.  At T <= p the criterion is flat
    # in places (at T = 1, estimates 1e-5 apart share it to 1e-16), so only
    # the criterion is compared there.
    p = len(before)
    x = data.simulate(gaussian(), T, seed=derive_seed(3101 + T, seed))
    fit = whittle_estimate(x, get_taper(taper), ARMA(phi=(0.0,) * p))
    assert fit.converged
    if max(map(abs, _pacf(before))) < 0.99:
        assert fit.objective_value <= objective + 1e-12 * abs(objective)
    else:
        assert 0.99 - 1e-6 <= max(map(abs, _pacf(fit.theta_hat))) <= 0.99 + 1e-12
    if T == 1024:
        assert fit.iterations == 1
        if converged and max(map(abs, before)) < 0.99 - 1e-6:
            assert max(abs(u - v) for u, v in zip(fit.theta_hat, before)) <= 1e-7


@pytest.mark.parametrize("taper", ["rect", "linear", "tukey"])
def test_every_percival_walden_ar4_fit_is_a_converged_closed_form(taper):
    for rep in range(200):
        ts = _PW_AR4.simulate(gaussian(), 1024, seed=derive_seed(3104, rep))
        fit = whittle_estimate(ts, get_taper(taper), ARMA(phi=(0.0,) * 4))
        assert fit.iterations == 1 and fit.converged, rep


@pytest.mark.parametrize("taper", ["rect", "linear", "tukey"])
def test_peaked_ar2_fits_are_interior(taper):
    # no coefficient on a face of the box: every r_hat inside the cube
    for rep in range(40):
        ts = _PEAKED_AR2.simulate(gaussian(), 1024, seed=derive_seed(3102, rep))
        fit = whittle_estimate(ts, get_taper(taper), ARMA(phi=(0.0, 0.0)))
        assert fit.iterations == 1 and fit.converged, rep
        assert max(map(abs, _pacf(fit.theta_hat))) < 0.99, rep


def test_a_pure_ar_fit_searches_only_where_the_guard_fails(monkeypatch):
    calls = []
    real = whittle.scipy.optimize.minimize
    monkeypatch.setattr(whittle.scipy.optimize, "minimize",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for truth in (_AR2, _PEAKED_AR2, _AR3, _PW_AR4):
        start = ARMA(phi=(0.0,) * len(truth.phi))
        for T, closed in ((1024, True), (3, False)):
            calls.clear()
            ts = truth.simulate(gaussian(), T, seed=derive_seed(3105, T))
            fit = whittle_estimate(ts, get_taper("rect"), start)
            assert (fit.iterations == 1) == closed == (calls == []), (truth, T)
            assert len(calls) == (0 if closed else 1)  # one start: r_hat


@pytest.mark.parametrize("truth", [_AR2, _PEAKED_AR2, _AR3, _PW_AR4], ids=["ar2", "peaked", "ar3", "pw4"])
@pytest.mark.parametrize("T", [256, 1024])
@pytest.mark.parametrize("taper", ["rect", "linear", "tukey"])
def test_ar_closed_form_is_the_grid_criterion_at_its_minimizer(truth, T, taper):
    # sigma2_hat and U_T = (1/2)[ln(s2 / 2 pi) + 1 - (2/N) sum_i ln|1 - rho_i^N|]
    # from the residual sum and the inverse roots are the grid's profiled
    # scale and criterion at theta_hat, up to round-off
    tp = get_taper(taper)
    ts = truth.simulate(gaussian(), T, seed=derive_seed(3106, T))
    fit = whittle_estimate(ts, tp, ARMA(phi=(0.0,) * len(truth.phi)))
    assert fit.iterations == 1
    pg = tapered_periodogram(ts, tp)
    unit = fit.model.with_params(sigma2=1.0)
    s2, value = whittle._profile_scale(pg, whittle._grid_density(unit, pg.grid))
    assert fit.sigma2_hat == pytest.approx(s2, rel=1e-12, abs=0.0)
    assert fit.objective_value == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model,box,name,inside", [
    (AR1(theta=0.0), [(0.9, 0.1)], "theta", "-1.0 < lo < hi < 1.0"),
    (AR1(theta=0.0), [(float("nan"), 0.5)], "theta", "-1.0 < lo < hi < 1.0"),
    (AR1(theta=0.0), [(-1.0, 0.5)], "theta", "-1.0 < lo < hi < 1.0"),
    (AR1(theta=0.0), [(-1.5, 1.5)], "theta", "-1.0 < lo < hi < 1.0"),
    (ARMA(phi=(0.0,)), [(0.2, 1.0)], "phi1", "-1.0 < lo < hi < 1.0"),
    (ARMA(phi=(0.0, 0.0)), [(-0.5, 0.5), (0.5, -0.5)], "phi2", "-1.0 < lo < hi < 1.0"),
    (ARMA(phi=(0.0, 0.0)), [(-0.5, 0.5), (-1.2, 0.5)], "phi2", "-1.0 < lo < hi < 1.0"),
    (ARFIMA0d0(d=0.0), [(0.9, 0.1)], "d", "-inf < lo < hi < inf"),
    (ARFIMA0d0(d=0.0), [(0.1, 0.1)], "d", "-inf < lo < hi < inf"),
    (ARFIMA0d0(d=0.0), [(float("nan"), 0.1)], "d", "-inf < lo < hi < inf"),
    (ARMA(theta=(0.0,)), [(-0.5, float("inf"))], "theta1", "-inf < lo < hi < inf"),
])
def test_fit_refuses_a_bounds_pair_naming_it(model, box, name, inside):
    # every pair must be finite with lo < hi; a pure AR's pairs bound its
    # partial autocorrelations, so they also lie inside (-1, 1)
    ts = AR1(theta=0.5).simulate(gaussian(), 256, seed=3)
    with pytest.raises(DomainError, match=re.escape(f"bounds pair for '{name}' must have {inside}")):
        whittle_estimate(ts, get_taper("rect"), model, bounds=box)


def test_a_coefficient_of_another_family_takes_any_finite_box():
    ts = ARMA(theta=(0.3,)).simulate(gaussian(), 256, seed=3)
    assert whittle_estimate(ts, get_taper("rect"), ARMA(theta=(0.0,)),
                            bounds=[(-1.5, 1.5)]).converged


def test_a_pure_ar_box_bounds_the_partial_autocorrelations():
    # r of the peaked AR(2) is (0.92, -0.95): the box clips r2, not phi2,
    # and phi1 = r1 (1 - r2) follows it
    ts = _PEAKED_AR2.simulate(gaussian(), 1024, seed=derive_seed(3102, 0))
    free = whittle_estimate(ts, get_taper("tukey"), ARMA(phi=(0.0, 0.0)))
    r1, r2 = _pacf(free.theta_hat)
    fit = whittle_estimate(ts, get_taper("tukey"), ARMA(phi=(0.0, 0.0)),
                           bounds=[(-0.99, 0.99), (-0.8, 0.8)])
    assert r2 < -0.8 and fit.iterations == 1
    assert _pacf(fit.theta_hat) == pytest.approx([r1, -0.8], abs=1e-12)
    assert fit.theta_hat[0] == pytest.approx(r1 * 1.8, rel=1e-12)


def test_levinson_flags_a_clipped_earlier_partial_autocorrelation():
    # g = (1, 0.995, 0.99): r_hat = (0.995, -0.0025), and the default box
    # clips r1.  Given r1 = 0.99 the best r2 is 0.495, not r_hat2, so the
    # clipped r_hat is no minimizer; clipping the last r alone keeps one
    box = [(-0.99, 0.99)] * 2
    r, minimizes = whittle._yule_walker([1.0, 0.995, 0.99], box)
    assert not minimizes and r == [0.99, pytest.approx(-0.0025, abs=1e-5)]
    r, minimizes = whittle._yule_walker([1.0, 0.5, 0.45], [(-0.99, 0.99), (-0.2, 0.2)])
    assert minimizes and r[1] == 0.2


@pytest.mark.parametrize("truth,T,taper,box", [
    (_PEAKED_AR2, 256, "tukey", [(-0.5, 0.5), (-0.99, 0.99)]),
    (_PEAKED_AR2, 256, "rect", [(-0.5, 0.5), (-0.3, 0.3)]),  # r_hat clipped to a corner
    (ARMA(phi=(1.98, -0.985)), 1024, "rect", None),  # r1 = 0.9975: the default box clips it
])
def test_a_fit_with_an_earlier_r_clipped_searches_the_box(truth, T, taper, box):
    # the search, from the clipped r_hat and the five starts, ends no higher
    # than the best point of a 101 x 101 grid over the r box, and below the
    # criterion at the clipped r_hat
    tp = get_taper(taper)
    ts = truth.simulate(gaussian(), T, seed=derive_seed(3107, T))
    fit = whittle_estimate(ts, tp, ARMA(phi=(0.0, 0.0)), bounds=box)
    assert fit.converged and fit.iterations > 1 and fit.periodogram is not None
    box = box or whittle.default_bounds(fit.model)
    pg = tapered_periodogram(ts, tp)

    def criterion(r):
        unit = ARMA(phi=tuple(models._step_up(r)))
        return whittle._profile_scale(pg, whittle._grid_density(unit, pg.grid))[1]

    r_hat, minimizes = whittle._yule_walker(
        _lagged_products(tp.values(T) * ts.values, 2).tolist(), box)
    assert not minimizes
    best = min(criterion((r1, r2)) for r1 in np.linspace(*box[0], 101)
               for r2 in np.linspace(*box[1], 101))
    assert fit.objective_value <= best + 1e-12 * abs(best)
    assert fit.objective_value < criterion(r_hat)
