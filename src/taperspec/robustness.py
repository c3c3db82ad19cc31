"""Trend contamination and robustness experiments.

The observed data are Y(t) = X(t) + M(t) with X stationary and M a small
deterministic trend.  For power trends M(t) = c t^{-beta} the tapered
spectral machinery is insensitive to the contamination once beta > 1/4:
the trend's energy through the taper window scales like T^{-2 beta}, so
the sqrt(T)-scaled gap between clean and contaminated functionals decays
like T^{1/2 - 2 beta} (plus a cross term of order T^{1/2 - beta} in
distribution).  At beta = 0.1 the same quantity grows like T^{0.3},
which is what the negative-control ladder is meant to expose.

Everything here is paired: the clean and contaminated estimates in one
replication share the identical realization of X, so differences isolate
the trend effect rather than Monte Carlo noise.  One paired loop serves
both the gap ladder and the distribution report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.stats

from ._engine import map_reps
from .errors import DomainError
from .functionals import (GeneratingFunction, asymptotic_variance,
                          plugin_estimate, true_functional)
from .models import Model, TimeSeries, derive_seed, gaussian
from .spectrum import tapered_periodogram
from .taper import Taper, tapering_factor
from .whittle import info_matrices, whittle_estimate

_BETA_FLOOR = 0.25


@dataclass(frozen=True)
class Trend:
    """Deterministic trend M(t), evaluated at integer t >= 1."""

    kind: str
    fn: object
    label: str
    c: float | None = None
    beta: float | None = None

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t)
        if np.any(t < 1):
            raise DomainError("trend is defined for integer t >= 1")
        return np.asarray(self.fn(t), dtype=float)

    def __neg__(self) -> "Trend":
        fn = self.fn
        return Trend(kind="custom", fn=lambda t: -np.asarray(fn(t), dtype=float),
                     label=f"neg({self.label})")


def zero_trend() -> Trend:
    return Trend(kind="zero", fn=lambda t: np.zeros(np.shape(t)), label="zero")


def power_decay(c: float, beta: float) -> Trend:
    """M(t) = c t^{-beta}; the robustness theory needs beta > 1/4."""
    c = float(c)
    beta = float(beta)
    if not beta > _BETA_FLOOR:
        raise DomainError(
            f"power_decay needs beta > {_BETA_FLOOR}; got {beta} "
            "(use custom_trend for out-of-theory controls)")
    return Trend(kind="power_decay", fn=lambda t: c * np.asarray(t, dtype=float) ** (-beta),
                 label=f"power_decay(c={c:g},beta={beta:g})", c=c, beta=beta)


def custom_trend(fn, label: str = "custom") -> Trend:
    """Unvalidated trend; the escape hatch for negative controls."""
    return Trend(kind="custom", fn=fn, label=label)


def contaminate(series: TimeSeries, trend: Trend) -> TimeSeries:
    """Y(t) = X(t) + M(t), t = 1..T; provenance records the trend."""
    x = np.asarray(series.values, dtype=float)
    if trend.kind == "zero":
        y = x.copy()
    else:
        y = x + trend.eval(np.arange(1, x.size + 1))
    prov = dict(series.provenance)
    prev = prov.get("trend")
    prov["trend"] = trend.label if prev is None else f"{prev}+{trend.label}"
    return TimeSeries(values=y, provenance=prov)


def _paired(model: Model, trend: Trend, estimate, T: int, reps: int,
            master_seed: int, driver, workers: int) -> tuple:
    """Estimates on clean X and on contaminated Y = X + M, one X per pair;
    replication r draws X from derive_seed(master_seed, r)."""
    def pair(r):
        x = model.simulate(driver, int(T), seed=derive_seed(master_seed, r))
        return estimate(x), estimate(contaminate(x, trend))

    clean, cont = np.array(map_reps(pair, reps, workers, master_seed), dtype=float).T.copy()
    return clean, cont


def _plugin(taper: Taper, g: GeneratingFunction):
    return lambda series: plugin_estimate(tapered_periodogram(series, taper), g)


@dataclass(frozen=True)
class GapLadder:
    """Median sqrt(T)-gaps across a T ladder, with a shrinkage verdict."""

    T_values: tuple
    median_gaps: tuple
    gap_ses: tuple
    nonincreasing: bool
    flag: str | None


def gap_ladder(model: Model, trend: Trend, taper: Taper, g: GeneratingFunction,
               T_values=(512, 2048, 8192), reps: int = 300,
               master_seed: int = 0, driver=None, workers: int = 1) -> GapLadder:
    """Monte Carlo medians of the functional gap sqrt(T) |J(I_Y) - J(I_X)|
    over increasing T, the i-th size keyed by master_seed + i.

    Nonincreasing is judged with one-standard-error slack (normal
    approximation for the sample median); a violation is reported in
    `flag`, not raised, so out-of-theory trends can be run as controls.
    Replications run over `workers` processes, with the same results.
    """
    driver = driver if driver is not None else gaussian()
    medians, ses = [], []
    for i, T in enumerate(T_values):
        clean, cont = _paired(model, trend, _plugin(taper, g), T, reps, master_seed + i,
                              driver, workers)
        gaps = math.sqrt(T) * np.abs(cont - clean)
        medians.append(float(np.median(gaps)))
        ses.append(1.2533 * float(np.std(gaps, ddof=1)) / math.sqrt(reps))
    ok = all(medians[i + 1] <= medians[i] + ses[i] + ses[i + 1]
             for i in range(len(medians) - 1))
    flag = None if ok else (
        f"median gaps do not shrink over T={tuple(T_values)}: "
        + ", ".join(f"{m:.4g}" for m in medians))
    return GapLadder(T_values=tuple(int(t) for t in T_values),
                     median_gaps=tuple(medians), gap_ses=tuple(ses),
                     nonincreasing=ok, flag=flag)


@dataclass(frozen=True)
class RobustnessReport:
    """Side-by-side clean vs contaminated Monte Carlo summary; each field is
    named as its key in the results of a robustness run."""

    clean_bias: float
    contaminated_bias: float
    clean_variance: float
    contaminated_variance: float
    variance_ratio: float
    ks_two_sample_stat: float
    ks_two_sample_pvalue: float
    normality_pvalue_clean: float
    normality_pvalue_contaminated: float
    median_gap_report: float


def robustness_report(model: Model, trend: Trend, taper: Taper,
                      target: str = "functional", g: GeneratingFunction | None = None,
                      T: int = 2048, reps: int = 200, master_seed: int = 0,
                      driver=None, workers: int = 1) -> RobustnessReport:
    """Compare an estimator on clean X versus contaminated Y = X + M.

    target "functional": plug-in J(I) against the true functional, with
    the asymptotic standard deviation from the variance formula.
    target "whittle": the first free parameter of the tapered Whittle
    fit.  Both samples are sqrt(T)-scaled deviations from the truth;
    the same X drives each pair; the driver's kappa4 enters the
    asymptotic variance and the fits.  Replications run over `workers`
    processes, with the same results.
    """
    if target not in ("functional", "whittle"):
        raise DomainError(f"unknown robustness target: {target!r}")
    if target == "functional" and g is None:
        raise DomainError("functional target needs a generating function g")
    driver = driver if driver is not None else gaussian()
    kappa4 = driver.kappa4

    if target == "functional":
        truth = true_functional(model, g)
        sigma = math.sqrt(asymptotic_variance(model, g, taper, kappa4=kappa4))
        estimate = _plugin(taper, g)
    else:
        info = info_matrices(model, kappa4=kappa4)
        truth = float(model.free_vector()[0]) if model.free_names else float(
            getattr(model, model.scale_name))
        sigma = math.sqrt(tapering_factor(taper) * info.gamma[0, 0])

        def estimate(series):
            return whittle_estimate(series, taper, model, kappa4=kappa4).theta_hat[0]

    est_x, est_y = _paired(model, trend, estimate, T, reps, master_seed, driver, workers)
    root_t = math.sqrt(T)
    clean = root_t * (est_x - truth)
    cont = root_t * (est_y - truth)
    ks2 = scipy.stats.ks_2samp(clean, cont, method="asymp")
    norm_clean = scipy.stats.kstest(clean / sigma, scipy.stats.norm.cdf)
    norm_cont = scipy.stats.kstest(cont / sigma, scipy.stats.norm.cdf)
    var_clean = float(np.var(clean, ddof=1))
    var_cont = float(np.var(cont, ddof=1))
    return RobustnessReport(
        clean_bias=float(np.mean(clean)), contaminated_bias=float(np.mean(cont)),
        clean_variance=var_clean, contaminated_variance=var_cont,
        variance_ratio=var_cont / var_clean,
        ks_two_sample_stat=float(ks2.statistic),
        ks_two_sample_pvalue=float(ks2.pvalue),
        normality_pvalue_clean=float(norm_clean.pvalue),
        normality_pvalue_contaminated=float(norm_cont.pvalue),
        median_gap_report=float(np.median(np.abs(cont - clean))))
