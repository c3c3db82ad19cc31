"""Trend contamination and robustness checks.

The sqrt(T)-scaled functional gap behaves like T^{1/2 - 2 beta} up to a
distributional cross term, so beta = 0.6 shrinks fast, while beta = 0.1
grows like T^{0.3}; the negative-control test leans on that growth.
Monte Carlo bounds calibrated from pilot runs (medians 0.10 / 0.041 /
0.017 for the AR(1) ladder at beta = 0.6; whittle variance ratio 1.003
at T = 2048).
"""

import math

import numpy as np
import pytest

from taperspec.errors import DomainError
from taperspec.functionals import cosine
from taperspec.models import derive_seed, gaussian, parse_model
from taperspec.robustness import (
    Trend,
    contaminate,
    gap_ladder,
    power_decay,
    robustness_report,
    zero_trend,
)
from taperspec.taper import get_taper

AR_HALF = parse_model("ar1{theta=0.5,sigma2=1.0}")
TUKEY = get_taper("tukey")
G_COS1 = cosine(1)


def test_power_decay_values():
    tr = power_decay(1.0, 0.6)
    assert tr.kind == "power_decay"
    assert tr.c == 1.0 and tr.beta == 0.6
    assert tr.eval(1) == 1.0
    assert tr.eval(16) == 16.0 ** (-0.6)
    np.testing.assert_allclose(tr.eval([2, 3]), [2.0 ** -0.6, 3.0 ** -0.6])


def test_power_decay_enforces_beta_floor():
    for beta in (0.25, 0.2, 0.0, -0.5):
        with pytest.raises(DomainError):
            power_decay(1.0, beta)
    power_decay(1.0, 0.26)


def test_trend_domain_guard():
    tr = power_decay(1.0, 0.6)
    with pytest.raises(DomainError):
        tr.eval(0)
    with pytest.raises(DomainError):
        tr.eval([1, 2, 0])


def test_zero_trend_is_bitwise_identity():
    x = AR_HALF.simulate(gaussian(), 128, seed=41)
    y = contaminate(x, zero_trend())
    assert np.array_equal(x.values, y.values)
    assert y.provenance["trend"] == "zero"
    assert "trend" not in x.provenance


def test_contaminate_formula():
    x = AR_HALF.simulate(gaussian(), 32, seed=42)
    y = contaminate(x, power_decay(1.0, 0.6))
    assert y.values[0] == x.values[0] + 1.0
    assert y.values[15] == pytest.approx(x.values[15] + 16.0 ** (-0.6), rel=1e-15)


def test_contaminate_roundtrip_linearity():
    x = AR_HALF.simulate(gaussian(), 256, seed=43)
    tr = power_decay(2.0, 0.4)
    neg = Trend("custom", lambda t: -tr.eval(t), f"neg({tr.label})")
    back = contaminate(contaminate(x, tr), neg)
    assert np.max(np.abs(back.values - x.values)) < 1e-12
    assert "power_decay" in back.provenance["trend"]
    assert back.provenance["trend"] == f"{tr.label}+{neg.label}"


def test_gap_ladder_zero_trend_gaps_are_zero():
    ladder = gap_ladder(AR_HALF, zero_trend(), TUKEY, G_COS1,
                        T_values=(512,), reps=3, master_seed=44)
    assert ladder.median_gaps == (0.0,)
    assert ladder.gap_ses == (0.0,)


def test_gap_ladder_ar1_shrinks():
    ladder = gap_ladder(AR_HALF, power_decay(1.0, 0.6), TUKEY, G_COS1,
                        T_values=(512, 2048, 8192), reps=150, master_seed=11)
    assert ladder.nonincreasing
    assert ladder.flag is None
    m = ladder.median_gaps
    assert m[0] > m[1] > m[2]
    assert m[2] < 0.05


def test_gap_ladder_arfima_shrinks():
    model = parse_model("arfima0d0{d=0.2}")
    ladder = gap_ladder(model, power_decay(1.0, 0.6), TUKEY, G_COS1,
                        T_values=(512, 2048, 8192), reps=40, master_seed=13)
    assert ladder.nonincreasing
    assert ladder.median_gaps[0] > ladder.median_gaps[-1]


def test_gap_ladder_negative_control_flags():
    slow = Trend("custom", lambda t: np.asarray(t, dtype=float) ** (-0.1),
                 "power(beta=0.1)")
    ladder = gap_ladder(AR_HALF, slow, TUKEY, G_COS1,
                        T_values=(512, 2048, 8192), reps=60, master_seed=12)
    assert ladder.flag is not None
    assert "do not shrink" in ladder.flag
    m = ladder.median_gaps
    assert m[0] < m[1] < m[2]


def test_report_zero_trend_functional():
    rep = robustness_report(AR_HALF, zero_trend(), TUKEY, target="functional",
                            g=G_COS1, T=1024, reps=100, master_seed=14)
    assert rep.ks_two_sample_stat == 0.0
    assert rep.median_gap_report == 0.0
    assert rep.variance_ratio == pytest.approx(1.0)
    assert rep.normality_pvalue_clean == rep.normality_pvalue_contaminated


def test_report_functional_contaminated_stays_normal():
    rep = robustness_report(AR_HALF, power_decay(1.0, 0.6), TUKEY,
                            target="functional", g=G_COS1, T=4096, reps=150,
                            master_seed=15)
    assert rep.normality_pvalue_clean > 0.01
    assert rep.normality_pvalue_contaminated > 0.01
    assert rep.ks_two_sample_pvalue > 0.2
    assert 0.9 < rep.variance_ratio < 1.1


def test_report_whittle_target():
    rep = robustness_report(AR_HALF, power_decay(1.0, 0.6), TUKEY,
                            target="whittle", T=2048, reps=120, master_seed=16)
    assert abs(rep.clean_bias) < 0.4
    assert abs(rep.contaminated_bias) < 0.4
    assert 0.8 < rep.variance_ratio < 1.25
    assert rep.ks_two_sample_pvalue > 0.2


def test_report_config_errors():
    with pytest.raises(DomainError):
        robustness_report(AR_HALF, zero_trend(), TUKEY, target="mle")
    with pytest.raises(DomainError):
        robustness_report(AR_HALF, zero_trend(), TUKEY, target="functional")
