"""Tapered Whittle objective, estimator, and information matrices."""

import math
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
    derive_seed,
    gaussian,
    parse_model,
)
from taperspec._quad import spectral_integral
from taperspec.spectrum import tapered_periodogram
from taperspec.taper import get_taper, tapering_factor
from taperspec.whittle import (
    default_bounds,
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


# Scoring fits on the unshifted grid as they were before it folded its even
# sums onto [0, pi] (T, seed, taper, theta_hat); each fit starts from the
# truth.  Folding changes only how the same terms are summed, and scoring
# converges quadratically, so theta_hat may move at round-off only.
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
    assert abs(fit.theta_hat[0] - before) <= 1e-12


# Fits of families without a scale (T, seed, taper, theta_hat, criterion
# evaluations).  They run on the shifted grid, whose sums keep all N points,
# so the search is bit for bit what it was before the fold.  The steps use
# the expected information: observed-information steps (exact Newton steps
# for arfima0d0) cut the d = 0.3 and H = 0.6 searches to 8 and 7 evaluations
# but lengthen those near d = 1/2 and H = 1 (12 seeds at T = 1024 averaged
# 6.0 -> 7.8 for d = 0.45 and 8.1 -> 9.5 for H = 0.9), so the counts here
# guard both sides.
_SCALE_FREE_FITS = [
    ("arfima0d0{d=0.3}", 1024, 71, "tukey", 0.28401748646735747, 13),
    ("arfima0d0{d=0.45}", 1024, 3, "tukey", 0.46204285164159464, 9),
    ("fgn{H=0.6}", 1024, 9, "tukey", 0.5391407186166194, 10),
    ("fgn{H=0.9}", 1024, 5, "tukey", 0.8897557352140261, 7),
    ("fgn{H=0.97}", 1024, 2, "tukey", 0.969267112417934, 6),
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
# fit starting from the truth.  Every bit must stay.
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
    ("arfima0d0{d=0.3}", 0, ("0x1.48632f476fbe0p-2",),
     "0x1.099b0ba02cf8ep-1", None, 8),
    ("arfima0d0{d=0.3}", 1, ("0x1.46fdfa9e6c8bfp-2",),
     "0x1.07431625d3d24p-1", None, 9),
    ("arfima0d0{d=0.3}", 2, ("0x1.3c9d52379aa08p-2",),
     "0x1.f9142f27e192bp-2", None, 10),
    ("arfima0d0{d=0.3}", 3, ("0x1.5e48782879097p-2",),
     "0x1.f6b865f2c3f6fp-2", None, 8),
    ("ar1{theta=0.5}", 0, ("0x1.117dfd1b84fcep-1",),
     "-0x1.afe26b872a5c2p-2", "0x1.fd1de390eb0aep-1", 2),
    ("ar1{theta=0.5}", 1, ("0x1.01f66043290e7p-1",),
     "-0x1.ac202c038099bp-2", "0x1.006f1e9b5a8c4p+0", 2),
    ("ar1{theta=0.5}", 2, ("0x1.ec16065c5d464p-2",),
     "-0x1.b4df4845c619fp-2", "0x1.f82e61a586099p-1", 3),
    ("ar1{theta=0.5}", 3, ("0x1.fa77938127b10p-2",),
     "-0x1.9c8b55e7770a4p-2", "0x1.085ba10877c9ap+0", 3),
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


def test_ar1_fit_evaluates_the_criterion_a_few_times(monkeypatch):
    calls = []
    real = whittle._profile_scale
    monkeypatch.setattr(whittle, "_profile_scale",
                        lambda *a: calls.append(a) or real(*a))
    ts = AR1(theta=0.9).simulate(gaussian(), 1024, seed=derive_seed(67, 0))
    fit = whittle_estimate(ts, get_taper("tukey"), AR1(theta=0.0))
    assert fit.converged
    assert len(calls) == fit.iterations <= 6


def test_ar1_fit_evaluates_each_candidate_density_once(monkeypatch):
    # the scoring step reads the unit density the criterion was evaluated at
    calls = []
    real = whittle._grid_density
    monkeypatch.setattr(whittle, "_grid_density",
                        lambda *a: calls.append(a) or real(*a))
    ts = AR1(theta=0.9).simulate(gaussian(), 1024, seed=derive_seed(67, 0))
    fit = whittle_estimate(ts, get_taper("tukey"), AR1(theta=0.0))
    assert fit.converged and fit.iterations > 1
    assert len(calls) == fit.iterations


def test_scoring_out_of_evaluations_is_not_converged():
    ts = AR1(theta=0.9).simulate(gaussian(), 1024, seed=derive_seed(67, 0))
    fit = whittle_estimate(ts, get_taper("tukey"), AR1(theta=0.0), max_evals=1)
    assert not fit.converged
    assert fit.iterations == 1 and fit.theta_hat[0] == 0.0  # the box centre


@pytest.mark.parametrize("box,edge", [((0.6, 0.9), 0.6), ((0.1, 0.4), 0.4)])
def test_scoring_converges_onto_the_box_edge(box, edge):
    ts = AR1(theta=0.5).simulate(gaussian(), 1024, seed=10)
    fit = whittle_estimate(ts, get_taper("rect"), AR1(theta=0.0), bounds=[box])
    assert fit.converged
    assert fit.theta_hat[0] == edge


def test_one_parameter_search_raises_no_runtime_warning():
    tp = get_taper("tukey")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for truth, start in ((AR1(theta=0.9), AR1(theta=0.0)),
                             (ARFIMA0d0(d=0.4), ARFIMA0d0(d=0.0)),
                             (ARMA(theta=(-0.6,)), ARMA(theta=(0.0,)))):
            ts = truth.simulate(gaussian(), 512, seed=12)
            assert whittle_estimate(ts, tp, start).converged
            assert whittle_estimate(ts, tp, start, bounds=[(-1.5, 1.5)]).converged


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
