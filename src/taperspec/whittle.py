"""Tapered Whittle estimation and its asymptotic covariance.

The fitted criterion is

    U_T(theta) = (1/4pi) sum_j [ln f(lam_j, theta) + I(lam_j)/f(lam_j, theta)]
                 w(lam_j) w_j

over a canonical frequency grid (shifted off the origin for the
fractional families, `Model.fractional`), with w an optional weight
function, identically 1 by default.  The summand is even in lam, so on
the unshifted grid the sum runs over its N/2 + 1 nodes in [0, pi] with
fold weights (1, 2, ..., 2, 1), and a weight w enters as
w(lam) + w(-lam) (`FrequencyGrid.fold`): the same sum with half the
density, log and ratio work.  The shifted grid keeps all N points at unit
weight, so the long-memory fits keep their bits (see `spectrum`).
A multiplicative innovation scale is profiled out in closed form, so the
numeric search runs over shape parameters only: one by projected Fisher
scoring, with the gradient and expected Hessian of the profiled criterion
in closed form from `model.score` (the periodogram is fixed during a
search, so the criterion is as smooth as the density), more by
Nelder-Mead from five deterministic starts.

Only what depends on the candidate is computed per criterion evaluation.
The frequency constants the densities read (cos lam, e^{-i lam},
2 sin(|lam|/2)) are computed once per grid, on its nodes
(`FrequencyGrid.constants`); each candidate is built once, at unit scale
from a template, and its density evaluated once, for the criterion and
the scoring step alike; and the unit weight is never materialized: the
grid sums the unweighted terms under its own fold weights.

The estimator's limit covariance is e(h) Gamma(theta) with
Gamma = W^{-1} (A + B) W^{-1}, where W, A, B are quadratures of products
of the log-density gradient (B carries the fourth cumulant of the
innovations and vanishes for Gaussian data).  The taper enters only
through the factor e(h) = H4 / H2^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from ._quad import spectral_integral
from .errors import DomainError, SingularInformationError
from .models import Model
from .spectrum import Periodogram, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor

_F_FLOOR = 1e-300
_NM_PENALTY = 1e300  # above every feasible criterion value


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
    `periodogram` is the one the criterion was fitted to, and `iterations`
    counts the criterion evaluations of the search.
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
    periodogram: Periodogram | None = field(default=None, repr=False)

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


def _weight_values(weight, points: np.ndarray) -> np.ndarray | None:
    """w on the points, or None for the unit weight (multiplying by 1 is exact)."""
    if weight is None:
        return None
    vals = np.asarray(weight(points), dtype=float)
    if vals.shape != points.shape:
        vals = np.broadcast_to(vals, points.shape).astype(float)
    return vals


def _node_weights(weight, grid) -> np.ndarray | None:
    """w folded onto the grid's nodes (`FrequencyGrid.fold`), None for the unit weight."""
    return None if weight is None else grid.fold(_weight_values(weight, grid.points))


def _grid_density(model: Model, grid) -> np.ndarray:
    """f on the grid's nodes, through the grid's shared frequency constants."""
    f = np.asarray(model.density(grid.constants), dtype=float)
    lo, hi = f.min(), f.max()  # nan propagates into both
    if not (lo > 0.0 and hi < math.inf):
        raise DomainError("density is not positive and finite on the grid")
    return f if lo >= _F_FLOOR else np.maximum(f, _F_FLOOR)


def whittle_objective(pgram: Periodogram, model: Model, theta=None,
                      weight=None) -> float:
    """U_T at the model point (or at `theta` substituted into it)."""
    if theta is not None:
        model = model.with_free(np.asarray(theta, dtype=float))
    grid = pgram.grid
    f = _grid_density(model, grid)
    total = grid.sum(np.log(f) + pgram.node_values / f, _node_weights(weight, grid))
    return float(total * grid.weight / (4.0 * math.pi))


def _profile_scale(pgram: Periodogram, f1: np.ndarray, weight) -> tuple:
    """Closed-form innovation-scale minimizer and the profiled criterion.

    `f1` is the candidate's density at scale 1 on the grid's nodes.  For
    f = sigma2 f1: sigma2_hat = sum(I/f1 w w_j) / sum(w w_j), and the
    profiled value is the plain criterion evaluated there.
    """
    grid = pgram.grid
    w = _node_weights(weight, grid)
    denom = (grid.N if w is None else float(np.sum(w))) * grid.weight
    if denom <= 0.0:
        raise DomainError("weight function integrates to zero on the grid")
    s2 = float(grid.sum(pgram.node_values / f1, w) * grid.weight / denom)
    s2 = max(s2, _F_FLOOR)
    f = s2 * f1
    value = grid.sum(np.log(f) + pgram.node_values / f, w)
    value = float(value * grid.weight / (4.0 * math.pi))
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


def _scoring_step(pgram: Periodogram, s2: float, f1, unit: Model, weight) -> float:
    """Fisher-scoring step -g/H for the one shape parameter of `unit`.

    g = (1/4pi) sum_j (1 - I_j/f_j) s_j w_j dlam is the gradient of the
    profiled criterion at f = s2 f1 (s2 minimizes it, so by the envelope
    theorem it drops out) and H = (1/4pi) sum_j s_j^2 w_j dlam the grid
    version of `info_matrices`' W, s being the shape row of `model.score`.
    `f1` is the unit density the criterion was evaluated at, or None for
    a family without a scale, whose density is then evaluated here.
    A zero H, or any non-finite step, gives a zero step.
    """
    grid = pgram.grid
    f = s2 * (_grid_density(unit, grid) if f1 is None else f1)
    s = np.atleast_2d(unit.score(grid.constants))[0]
    w = _node_weights(weight, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -grid.sum((1.0 - pgram.node_values / f) * s, w) / grid.sum(s * s, w)
    return float(step) if np.isfinite(step) else 0.0


def _fisher_scoring(evaluate, step_at, lo: float, hi: float, tol: float,
                    max_evals: int) -> tuple:
    """Minimize evaluate(x) = (value, state) on [lo, hi] from the centre.

    Each step `step_at(state)` is clipped into the box and halved while
    the criterion rises (a non-finite value counts as rising); the search
    converges once a step is at most `tol`.  Returns
    (x, value, state, evaluations, converged).
    """
    x = lo + 0.5 * (hi - lo)
    value, state = evaluate(x)
    if not math.isfinite(value):
        raise DomainError("objective not finite at the search start")
    evals = 1
    while evals < max_evals:
        trial = min(max(x + step_at(state), lo), hi)
        while trial != x:
            t_value, t_state = evaluate(trial)
            evals += 1
            if t_value <= value or abs(trial - x) <= tol or evals >= max_evals:
                break
            trial = x + 0.5 * (trial - x)
        moved = abs(trial - x)
        if trial != x and t_value <= value:
            x, value, state = trial, t_value, t_state
        if moved <= tol:
            return x, value, state, evals, True
    return x, value, state, evals, False


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
    search space and its scale (when it has one) is profiled out.  One
    shape parameter is fitted by projected Fisher scoring from the centre
    of its box (`_fisher_scoring`), more than one by Nelder-Mead from five
    deterministic starts.  `iterations` counts criterion evaluations.
    """
    x = np.asarray(series.values if hasattr(series, "values") else series,
                   dtype=float)
    T = x.size
    # a fractional family's box reaches long-memory points wherever it starts
    grid = canonical_grid(T, oversample=oversample, shifted=model.fractional)
    pgram = tapered_periodogram(x, taper, grid=grid)
    p = len(model.free_names)
    has_scale = model.scale_name is not None
    # candidates are built at unit scale, so each is built once
    template = model.with_params(**{model.scale_name: 1.0}) if has_scale else model

    def shape_objective(vec) -> tuple:
        """(value, (s2, f1, candidate)): s2 = 1 and f1 = None for a family
        without a scale, else the scale and the unit density on the grid."""
        try:
            cand = template.with_free(np.atleast_1d(np.asarray(vec, dtype=float)))
            if has_scale:
                f1 = _grid_density(cand, pgram.grid)
                s2, val = _profile_scale(pgram, f1, weight)
                return val, (s2, f1, cand)
            return whittle_objective(pgram, cand, weight=weight), (1.0, None, cand)
        except (DomainError, ValueError, FloatingPointError):
            return math.inf, (None, None, None)

    if p == 0:
        if not has_scale:
            raise DomainError("model has no free parameters to fit")
        s2, value = _profile_scale(pgram, _grid_density(template, pgram.grid), weight)
        fitted = model.with_params(**{model.scale_name: s2})
        theta = np.array([s2])
        iterations, converged = 1, True
    else:
        box = list(bounds) if bounds is not None else default_bounds(model)
        if len(box) != p:
            raise DomainError(f"need {p} bounds pairs, got {len(box)}")
        if p == 1:
            xopt, value, (s2, _, _), iterations, converged = _fisher_scoring(
                lambda t: shape_objective([t]),
                lambda state: _scoring_step(pgram, *state, weight),
                float(box[0][0]), float(box[0][1]), tol, max_evals)
            best_vec = np.array([xopt])
        else:
            per_start = max(200, max_evals // 5)
            # Nelder-Mead subtracts criterion values (inf - inf is nan), so an
            # infeasible candidate scores the finite penalty; min() maps nan there too
            results = [scipy.optimize.minimize(
                lambda v: min(_NM_PENALTY, shape_objective(v)[0]), start,
                method="Nelder-Mead", bounds=box,
                options={"xatol": tol, "fatol": 1e-12, "maxfev": per_start})
                for start in _nm_starts(box)]
            best = min(results, key=lambda r: r.fun)
            best_vec = np.asarray(best.x, dtype=float)
            iterations = sum(r.nfev for r in results)
            converged = bool(best.success)
            value, (s2, _, _) = shape_objective(best_vec)
            if not math.isfinite(value):
                raise DomainError("objective not finite at the reported minimum")
        fitted = model.with_free(best_vec)
        if has_scale:
            fitted = fitted.with_params(**{model.scale_name: s2})
        theta = best_vec

    return WhittleFit(
        theta_hat=theta, names=model.fitted_names, objective_value=float(value),
        iterations=int(iterations), converged=bool(converged), model=fitted,
        sigma2_hat=float(s2) if has_scale else None,
        taper_id=taper.id, T=T, tapering_factor=tapering_factor(taper),
        kappa4=kappa4, weight=weight, periodogram=pgram)


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
    score evaluation (exponent 0 for long memory: the score is log-singular).
    """
    if names is None:
        names = model.fitted_names
        if names == (None,):
            raise DomainError("model exposes no parameters")
    idx = _score_index(model, tuple(names))
    p = len(idx)
    pairs = [(i, j) for i in range(p) for j in range(i, p)]

    def integrand(lam):
        s = np.atleast_2d(model.score(lam))[idx]
        rows = [s[i] for i in range(p)] + [s[i] * s[j] for i, j in pairs]
        w = _weight_values(weight, np.asarray(lam, dtype=float))
        if w is not None:
            w2 = w ** 2
            rows = [r * w for r in rows] + [r * w2 for r in rows[p:]]
        return np.vstack(rows)

    # a caller's weight may oscillate at any frequency; the score alone is smooth
    vals = spectral_integral(integrand, exponent=0.0 if model.long_memory else None,
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
