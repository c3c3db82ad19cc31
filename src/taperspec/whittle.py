"""Tapered Whittle estimation and its asymptotic covariance.

The fitted criterion is

    U_T(theta) = (1/4pi) sum_j [ln f(lam_j, theta) + I(lam_j)/f(lam_j, theta)]
                 w(lam_j) w_j

over a canonical frequency grid (shifted off the origin for long-memory
families), with w an optional weight function, identically 1 by default.
A multiplicative innovation scale is profiled out in closed form, so the
numeric search runs over shape parameters only.

The estimator's limit covariance is e(h) Gamma(theta) with
Gamma = W^{-1} (A + B) W^{-1}, where W, A, B are quadratures of products
of the log-density gradient (B carries the fourth cumulant of the
innovations and vanishes for Gaussian data).  The taper enters only
through the factor e(h) = H4 / H2^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from ._quad import spectral_integral
from .errors import DomainError, SingularInformationError
from .models import Model
from .spectrum import Periodogram, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor

_F_FLOOR = 1e-300

# Families whose parameter box reaches long-memory points need the grid
# shifted off the origin regardless of where the search starts.
_SHIFTED_FAMILIES = frozenset({"arfima0d0", "arfima_pdq", "fgn"})


@dataclass(frozen=True)
class InfoMatrices:
    """W, A, B and Gamma = W^{-1}(A + B)W^{-1} for one model point."""

    W: np.ndarray
    A: np.ndarray
    B: np.ndarray
    gamma: np.ndarray
    names: tuple

    def __post_init__(self):
        for arr in (self.W, self.A, self.B, self.gamma):
            arr.setflags(write=False)


@dataclass(frozen=True)
class WhittleFit:
    """Minimizer of the tapered Whittle criterion plus its error model.

    `asym_cov` (e(h) Gamma at the fitted point) and `se` are computed by
    `info_matrices` on first access and then kept; a singular information
    matrix raises SingularInformationError there, not during the fit.
    """

    theta_hat: np.ndarray
    names: tuple
    objective_value: float
    iterations: int
    converged: bool
    model: Model
    sigma2_hat: float | None
    taper_id: str
    T: int
    tapering_factor: float
    kappa4: float = 0.0
    weight: object = None

    def __post_init__(self):
        self.theta_hat.setflags(write=False)

    @functools.cached_property
    def asym_cov(self) -> np.ndarray:
        info = info_matrices(self.model, weight=self.weight, kappa4=self.kappa4)
        cov = self.tapering_factor * info.gamma
        cov.setflags(write=False)
        return cov

    @functools.cached_property
    def se(self) -> np.ndarray:
        se = np.sqrt(np.clip(np.diag(self.asym_cov), 0.0, None) / self.T)
        se.setflags(write=False)
        return se


def _weight_values(weight, points: np.ndarray) -> np.ndarray:
    if weight is None:
        return np.ones_like(points)
    vals = np.asarray(weight(points), dtype=float)
    if vals.shape != points.shape:
        vals = np.broadcast_to(vals, points.shape).astype(float)
    return vals


def whittle_objective(pgram: Periodogram, model: Model, theta=None,
                      weight=None) -> float:
    """U_T at the model point (or at `theta` substituted into it)."""
    if theta is not None:
        model = model.with_free(np.asarray(theta, dtype=float))
    pts = pgram.grid.points
    f = np.asarray(model.density(pts), dtype=float)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise DomainError("density is not positive and finite on the grid")
    f = np.maximum(f, _F_FLOOR)
    w = _weight_values(weight, pts)
    total = np.sum((np.log(f) + pgram.values / f) * w) * pgram.grid.weight
    return float(total / (4.0 * math.pi))


def _profile_scale(pgram: Periodogram, shape_model: Model, weight) -> tuple:
    """Closed-form innovation-scale minimizer and the profiled criterion.

    For f = sigma2 f1: sigma2_hat = sum(I/f1 w w_j) / sum(w w_j), and the
    profiled value is the plain criterion evaluated there.
    """
    scale = shape_model.scale_name
    unit = shape_model.with_params(**{scale: 1.0})
    pts = pgram.grid.points
    f1 = np.asarray(unit.density(pts), dtype=float)
    if not np.all(np.isfinite(f1)) or np.any(f1 <= 0.0):
        raise DomainError("density is not positive and finite on the grid")
    f1 = np.maximum(f1, _F_FLOOR)
    w = _weight_values(weight, pts)
    denom = float(np.sum(w)) * pgram.grid.weight
    if denom <= 0.0:
        raise DomainError("weight function integrates to zero on the grid")
    s2 = float(np.sum(pgram.values / f1 * w) * pgram.grid.weight / denom)
    s2 = max(s2, _F_FLOOR)
    value = np.sum((np.log(s2 * f1) + pgram.values / (s2 * f1)) * w)
    value = float(value * pgram.grid.weight / (4.0 * math.pi))
    return s2, value


_COEF_BOX = (-0.99, 0.99)
_D_BOX = (-0.49, 0.49)
_H_BOX = (0.01, 0.99)


def default_bounds(model: Model) -> list:
    """Compact search box per free parameter, by name."""
    out = []
    for name in model.free_names:
        if name == "d":
            out.append(_D_BOX)
        elif name == "H":
            out.append(_H_BOX)
        else:
            out.append(_COEF_BOX)
    return out


def golden_section(fn, lo: float, hi: float, tol: float = 1e-7,
                   max_evals: int = 2000) -> tuple:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (x, fx, evals, converged).  Infinite objective values are
    tolerated; the bracket simply keeps shrinking.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    while (b - a) > tol and evals < max_evals:
        if fc < fd:
            b = d
            d, fd = c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a = c
            c, fc = d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        evals += 1
    if fc < fd:
        return c, fc, evals, (b - a) <= tol
    return d, fd, evals, (b - a) <= tol


def _nm_starts(bounds) -> list:
    p = len(bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    center = lo + 0.5 * span
    starts = [center]
    for pattern in ((0.0,) * p,
                    (1.0,) * p,
                    tuple(i % 2 for i in range(p)),
                    tuple((i + 1) % 2 for i in range(p))):
        sel = np.asarray(pattern)
        starts.append(lo + 0.1 * span + sel * 0.8 * span)
    return starts


def whittle_estimate(series, taper: Taper, model: Model, weight=None,
                     kappa4: float = 0.0, oversample: int = 4,
                     bounds=None, tol: float = 1e-7,
                     max_evals: int = 2000) -> WhittleFit:
    """Fit the model family to a series by tapered Whittle minimization.

    `model` doubles as the family template; its free parameters are the
    search space and its scale (when it has one) is profiled out.  The
    search is golden-section for one shape parameter and Nelder-Mead from
    five deterministic starts otherwise; both are derivative-free on
    purpose, the periodogram makes the criterion rough.
    """
    x = np.asarray(series.values if hasattr(series, "values") else series,
                   dtype=float)
    T = x.size
    shifted = (model.memory_class != "short"
               or model.family in _SHIFTED_FAMILIES)
    grid = canonical_grid(T, oversample=oversample, shifted=shifted)
    pgram = tapered_periodogram(x, taper, grid=grid)
    names = model.free_names
    p = len(names)
    has_scale = model.scale_name is not None

    def shape_objective(vec) -> tuple:
        try:
            cand = model.with_free(np.atleast_1d(np.asarray(vec, dtype=float)))
            if has_scale:
                s2, val = _profile_scale(pgram, cand, weight)
                return val, s2
            return whittle_objective(pgram, cand, weight=weight), None
        except (DomainError, ValueError, FloatingPointError):
            return math.inf, None

    if p == 0:
        if not has_scale:
            raise DomainError("model has no free parameters to fit")
        s2, value = _profile_scale(pgram, model, weight)
        fitted = model.with_params(**{model.scale_name: s2})
        theta = np.array([s2])
        fit_names = (model.scale_name,)
        iterations, converged = 1, True
    else:
        box = list(bounds) if bounds is not None else default_bounds(model)
        if len(box) != p:
            raise DomainError(f"need {p} bounds pairs, got {len(box)}")
        if p == 1:
            xopt, value, iterations, converged = golden_section(
                lambda t: shape_objective([t])[0],
                box[0][0], box[0][1], tol=tol, max_evals=max_evals)
            best_vec = np.array([xopt])
        else:
            per_start = max(200, max_evals // 5)
            results = []
            evals = 0
            for start in _nm_starts(box):
                res = scipy.optimize.minimize(
                    lambda v: shape_objective(v)[0], start,
                    method="Nelder-Mead", bounds=box,
                    options={"xatol": tol, "fatol": 1e-12,
                             "maxfev": per_start})
                evals += res.nfev
                results.append(res)
            best = min(results, key=lambda r: r.fun)
            best_vec = np.asarray(best.x, dtype=float)
            value = float(best.fun)
            iterations = evals
            converged = bool(best.success)
        value2, s2 = shape_objective(best_vec)
        if not math.isfinite(value2):
            raise DomainError("objective not finite at the reported minimum")
        value = value2
        fitted = model.with_free(best_vec)
        if has_scale and s2 is not None:
            fitted = fitted.with_params(**{model.scale_name: s2})
        theta = best_vec
        fit_names = names

    return WhittleFit(
        theta_hat=theta, names=fit_names, objective_value=float(value),
        iterations=int(iterations), converged=bool(converged), model=fitted,
        sigma2_hat=(float(s2) if (has_scale and p > 0) else
                    (float(theta[0]) if (has_scale and p == 0) else None)),
        taper_id=taper.id, T=T, tapering_factor=tapering_factor(taper),
        kappa4=kappa4, weight=weight)


def _score_index(model: Model, names: tuple) -> list:
    """Rows of `model.score` holding d ln f / d theta_k for each name."""
    all_names = list(model.free_names)
    if model.scale_name is not None:
        all_names.append(model.scale_name)
    index = {n: i for i, n in enumerate(all_names)}
    for name in names:
        if name not in index:
            raise DomainError(f"unknown parameter {name!r}")
    return [index[name] for name in names]


def info_matrices(model: Model, weight=None, kappa4: float = 0.0,
                  names: tuple | None = None) -> InfoMatrices:
    """W, A, B and Gamma by quadrature of log-density gradient products.

    W_ij = (1/4pi) int s_i s_j w, A_ij the same with w^2 (so A = W when
    w is 1), and B = (kappa4 / 16 pi^2) v v' with v_i = int s_i w.
    Defaults to the model's shape parameters, or its scale when there are
    none.  Every entry comes from one multi-row quadrature of a single
    score evaluation.
    """
    if names is None:
        names = model.free_names if model.free_names else (model.scale_name,)
        if names == (None,):
            raise DomainError("model exposes no parameters")
    idx = _score_index(model, tuple(names))
    p = len(idx)
    pairs = [(i, j) for i in range(p) for j in range(i, p)]

    def integrand(lam):
        s = np.atleast_2d(model.score(lam))[idx]
        w = _weight_values(weight, np.asarray(lam, dtype=float))
        rows = [s[i] * w for i in range(p)]
        rows += [s[i] * s[j] * w for i, j in pairs]
        if weight is not None:
            w2 = w ** 2
            rows += [s[i] * s[j] * w2 for i, j in pairs]
        return np.vstack(rows)

    # a caller's weight may oscillate at any frequency; the score alone is smooth
    vals = spectral_integral(integrand, long_memory=model.memory_class != "short",
                             degree=0 if weight is None else None)
    v = vals[:p]

    def symmetric(upper):
        out = np.empty((p, p))
        for (i, j), val in zip(pairs, upper):
            out[i, j] = out[j, i] = val / (4.0 * math.pi)
        return out

    W = symmetric(vals[p:p + len(pairs)])
    A = W if weight is None else symmetric(vals[p + len(pairs):])
    B = (kappa4 / (16.0 * math.pi**2)) * np.outer(v, v)
    if not np.all(np.isfinite(W)) or np.linalg.cond(W) > 1e12:
        raise SingularInformationError("information matrix W is singular")
    w_inv = np.linalg.inv(W)
    gamma = w_inv @ (A + B) @ w_inv
    return InfoMatrices(W=W, A=A, B=B, gamma=gamma, names=tuple(names))
