"""Acceptance gate: thirteen shipped criteria, one test and one line each.

Run with `-v` for per-criterion pass/fail, `-s` for the detail lines.
Most criteria execute a preset from acceptance/ through the CLI (so the
gate exercises the same entry point CI uses) and then read the aggregate
JSON; criteria 2 and 10 are library-level because no single experiment
run expresses them.  All seeds are frozen in the presets or below.

Criterion map:
  1  quadratic-form identity      qf_identity_{rect,linear,tukey} presets
  2  taper constants              closed forms, direct
  3  variance limit               variance_limit preset
  4  kappa4 term                  kappa4_term preset
  5  CLT                          clt preset
  6  Whittle taper factor         whittle_taper + whittle_rect presets
  7  gof size and power           gof_size + gof_power presets
  8  gof composite law            gof_composite preset
  9  trace approximation          trace preset + independent quadrature
 10  quadratic-form distribution  direct Monte Carlo at T=128
 11  Fejer kernel                 fejer preset
 12  robustness                   robustness preset
 13  determinism                  every preset rerun, bytes compared
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from taperspec.cli import main
from taperspec.functionals import cosine, quadratic_form
from taperspec.models import AR1, derive_seed, gaussian
from taperspec.taper import get_taper, tapering_factor
from taperspec.toeplitz import qf_cumulant, qf_distribution

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "acceptance"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:2d}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run a preset once (with --check) and cache its exit code and JSON."""
    outdir = tmp_path_factory.mktemp("acceptance")
    cache = {}

    def get(name: str) -> SimpleNamespace:
        if name not in cache:
            out = outdir / name
            code = main(["run", "--config", str(ACCEPT_DIR / f"{name}.ini"),
                         "--check", "--out", str(out)])
            payload = json.loads(out.with_suffix(".json").read_text())
            cache[name] = SimpleNamespace(code=code, out=out,
                                          results=payload["results"],
                                          checks=payload["checks"])
        return cache[name]

    return get


def test_criterion_01_quadratic_form_identity(runs):
    worst = 0.0
    for name in ("qf_identity_rect", "qf_identity_linear", "qf_identity_tukey"):
        r = runs(name)
        assert r.code == 0, f"{name} preset failed its checks"
        worst = max(worst, r.results["identity_rel_max"])
    _report(1, worst < 1e-8,
            f"plug-in vs quadratic form rel err {worst:.3e} < 1e-8 "
            "(3 tapers x 20 series, T=256)")


def test_criterion_02_taper_constants():
    closed = {"rect": (1.0, 1.0, 1.0),
              "linear": (1.0 / 3.0, 1.0 / 5.0, 9.0 / 5.0),
              "tukey": (3.0 / 8.0, 35.0 / 128.0, 35.0 / 18.0)}
    worst = 0.0
    for name, (h2, h4, e) in closed.items():
        tp = get_taper(name)
        worst = max(worst,
                    abs(tp.moment(2) - h2),
                    abs(tp.moment(4) - h4),
                    abs(tapering_factor(tp) - e))
    _report(2, worst < 1e-8,
            f"H2, H4, e(h) closed forms, max abs err {worst:.3e} < 1e-8")


def test_criterion_03_variance_limit(runs):
    r = runs("variance_limit")
    ratio = r.results["var_ratio"]
    ok = r.code == 0 and 0.9 <= ratio <= 1.1
    _report(3, ok,
            f"T*Var / quadrature limit = {ratio:.4f} in [0.9, 1.1] "
            f"(T=2048, R={r.results['reps']})")


def test_criterion_04_kappa4_term(runs):
    r = runs("kappa4_term")
    ratio = r.results["var_ratio"]
    gap = r.results["kappa4_gap_se"]
    ok = r.code == 0 and 0.85 <= ratio <= 1.15 and gap > 3.0
    _report(4, ok,
            f"exponential driver: ratio to full formula {ratio:.4f} in "
            f"[0.85, 1.15], {gap:.1f} MC SE from the kappa4=0 formula (> 3)")


def test_criterion_05_clt(runs):
    r = runs("clt")
    pv = r.results["normality"]["ks_pvalue"]
    ok = r.code == 0 and pv > 0.01
    _report(5, ok,
            f"standardized sqrt(T) errors: KS normality p = {pv:.3f} > 0.01 "
            f"(T=4096, R={r.results['reps']})")


def test_criterion_06_whittle_taper_factor(runs):
    tk = runs("whittle_taper")
    rc = runs("whittle_rect")
    # the asymptotic reference in the ratio is e(h) * (1 - theta0^2),
    # pinned here so the preset ratio means what the criterion states
    for r, e in ((tk, 35.0 / 18.0), (rc, 1.0)):
        assert abs(r.results["asym_var_first"] - e * 0.75) < 1e-6
    ok = (tk.code == 0 and rc.code == 0
          and 0.85 <= tk.results["var_ratio"] <= 1.15
          and 0.85 <= rc.results["var_ratio"] <= 1.15)
    _report(6, ok,
            f"Var(sqrt(T) dtheta) / (e(h)(1-theta0^2)): tukey {tk.results['var_ratio']:.4f}, "
            f"rect {rc.results['var_ratio']:.4f}, both in [0.85, 1.15] (T=8192)")


def test_criterion_07_gof_size_and_power(runs):
    size_run = runs("gof_size")
    power_run = runs("gof_power")
    size = size_run.results["rejection_rate"]
    power = power_run.results["rejection_rate"]
    reps_s = size_run.results["reps"]
    reps_p = power_run.results["reps"]
    se_diff = math.sqrt(size * (1 - size) / reps_s + power * (1 - power) / reps_p)
    margin = (power - size) / se_diff if se_diff > 0 else float("inf")
    ok = (size_run.code == 0 and power_run.code == 0
          and 0.03 <= size <= 0.07 and margin > 5.0)
    _report(7, ok,
            f"size {size:.4f} in [0.03, 0.07]; power {power:.4f} exceeds size "
            f"by {margin:.0f} MC SE (> 5) at theta0+0.2")


def test_criterion_08_gof_composite_law(runs):
    r = runs("gof_composite")
    ks = r.results["ks_stat"]
    ok = r.code == 0 and ks < 0.05 and r.results["effective_dof"] == 3
    _report(8, ok,
            f"composite statistic vs chi-square(3): KS {ks:.4f} < 0.05 "
            f"(m=4, p=1, T=4096, R={r.results['reps']})")


def test_criterion_09_trace_approximation(runs):
    r = runs("trace")
    res = r.results
    # independent limit: rectangular taper has H2 = 1, so the limit must
    # equal 2 pi int f g with f the AR(1) density and g = cos
    f = AR1(theta=0.5, sigma2=1.0).density
    integral, _ = scipy.integrate.quad(
        lambda lam: float(f(lam)) * math.cos(lam), -math.pi, math.pi,
        epsabs=1e-12, limit=200)
    limit_err = abs(res["limit"] - 2.0 * math.pi * integral)
    ok = (r.code == 0 and res["final_delta"] < 0.01
          and res["decreasing_steps"] >= 3 and res["all_positive"]
          and limit_err < 1e-6)
    _report(9, ok,
            f"final delta {res['final_delta']:.2e} < 0.01, "
            f"{res['decreasing_steps']}/4 steps decreasing, "
            f"limit matches 2 pi H2 int(fg) within {limit_err:.1e}")


def test_criterion_10_quadratic_form_distribution():
    model = AR1(theta=0.5)
    g = cosine(1)
    tp = get_taper("tukey")
    T = 128
    reps, batches = 8000, 40
    q = np.empty(reps)
    for rep in range(reps):
        ts = model.simulate(gaussian(), T, seed=derive_seed(1010, rep))
        q[rep] = quadratic_form(ts, tp, g)
    per_batch = q.reshape(batches, -1)
    devs = []
    for k in (1, 2, 3):
        stats = np.array([scipy.stats.kstat(b, k) for b in per_batch])
        se = float(np.std(stats, ddof=1) / math.sqrt(batches))
        devs.append(abs(float(np.mean(stats)) - qf_cumulant(model, g, tp, T, k)) / se)
    mix = qf_distribution(model, g, tp, T).sample(100000, seed=2020)
    ks = float(scipy.stats.ks_2samp(q, mix).statistic)
    ok = max(devs) < 3.0 and ks < 0.02
    _report(10, ok,
            f"cumulants k=1..3 within {max(devs):.2f} MC SE (< 3) of trace "
            f"formulas; KS to eigenvalue mixture {ks:.4f} < 0.02 (T=128)")


def test_criterion_11_fejer_kernel(runs):
    r = runs("fejer")
    res = r.results
    ok = (r.code == 0 and res["norm_max_err"] <= 1e-6
          and res["tail_decreasing"]
          and abs(res["sqrt_t_delta2"]) < 0.05)
    _report(11, ok,
            f"normalization err {res['norm_max_err']:.1e} <= 1e-6; tail mass "
            f"decreasing over T=16..1024; |sqrt(T) Delta2| "
            f"{abs(res['sqrt_t_delta2']):.4f} < 0.05 at T=2048")


def test_criterion_12_robustness(runs):
    r = runs("robustness")
    res = r.results
    ok = (r.code == 0 and res["nonincreasing"]
          and 0.85 <= res["variance_ratio"] <= 1.15)
    gaps = ", ".join(f"{v:.3f}" for v in res["median_gaps"])
    _report(12, ok,
            f"median sqrt(T)-gaps [{gaps}] nonincreasing over T=512..8192; "
            f"contaminated Whittle variance ratio {res['variance_ratio']:.4f} "
            "in [0.85, 1.15]")


# Determinism reruns shrink the replication counts (a config override that
# is itself recorded, so both runs still agree byte for byte); the cheap
# deterministic presets rerun at full scale.
_REDUCED = {
    "variance_limit": ["--reps", "40"],
    "kappa4_term": ["--reps", "40"],
    "clt": ["--reps", "40"],
    "whittle_taper": ["--reps", "8"],
    "whittle_rect": ["--reps", "8"],
    "gof_size": ["--reps", "40"],
    "gof_power": ["--reps", "40"],
    "gof_composite": ["--reps", "6"],
    "robustness": ["--reps", "10", "--T", "128,256"],
}


def test_criterion_13_determinism(tmp_path):
    presets = sorted(p.stem for p in ACCEPT_DIR.glob("*.ini"))
    assert presets, "no presets shipped"
    for name in presets:
        out = tmp_path / name
        argv = ["run", "--config", str(ACCEPT_DIR / f"{name}.ini"),
                "--out", str(out)] + _REDUCED.get(name, [])
        assert main(argv) == 0, f"{name}: first run failed"
        first = (out.with_suffix(".csv").read_bytes(),
                 out.with_suffix(".json").read_bytes())
        assert main(argv) == 0, f"{name}: second run failed"
        second = (out.with_suffix(".csv").read_bytes(),
                  out.with_suffix(".json").read_bytes())
        assert first == second, f"{name}: rerun is not byte-identical"
    _report(13, True,
            f"all {len(presets)} presets rerun byte-identical (CSV and JSON)")
