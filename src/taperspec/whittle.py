"""Tapered Whittle estimation and its asymptotic covariance.

The fitted criterion is

    U_T(theta) = (1/4pi) sum_j [ln f(lam_j, theta) + I(lam_j)/f(lam_j, theta)] w_j

over the sample's canonical frequency grid (shifted off the origin for
the fractional families, `Model.fractional`, like every statistic of
such a model).  The summand is even in lam, so
on the unshifted grid the sum runs over its N/2 + 1 nodes in [0, pi] with
fold weights (1, 2, ..., 2, 1): the same sum with half the density, log
and ratio work.  The shifted grid keeps all N points at unit
weight, so the long-memory fits keep their bits (see `spectrum`).
A multiplicative innovation scale is profiled out in closed form, so the
numeric search runs over shape parameters only: one by projected Fisher
scoring, with the gradient and expected Hessian of the profiled criterion
in closed form from `model.score` (the periodogram is fixed during a
search, so the criterion is as smooth as the density), more by
Nelder-Mead from five deterministic starts.

An AR(1) family (`models.ar_polynomial` of length 2: `ar1`, or `arma`
with one phi and no theta) needs no search.  Its unit density is
1 / (2 pi |1 - theta z|^2), z = e^{-i lam}.  On the unshifted grid
(N >= 4T: no lag wraps around)
sum_j I_j cos(k lam_j) w = g_k / sum h^2, g_k = sum_t y_t y_{t+k} the
lagged products of y = h x, and the z_j are the N-th roots of unity, so
sum_j ln|1 - theta z_j|^2 = ln(1 - theta^N)^2 and the profiled criterion is

    (1/2) [ln(s2 / 2 pi) + 1 - (2/N) ln|1 - theta^N|],
    s2 = (g0 (1 + theta^2) - 2 theta g1) / sum h^2 = sum_t (y_t - theta y_{t-1})^2 / sum h^2

(y = 0 outside 1..T; the last sum does not cancel).  The first term is
minimized by the Yule-Walker estimate g1 / g0 (Brockwell & Davis 1991,
section 10.8), the second moves the minimizer by about |theta|^{N-1}.  So
where |theta_hat|^{N-1} is at most the search tolerance, theta_hat =
g1 / g0 clipped into the box is the fit, with no density or periodogram;
elsewhere (small T, theta near +-1) the scoring search starts there.

Only what depends on the candidate is computed per criterion evaluation.
The frequency constants the densities read (cos lam, e^{-i lam},
2 sin(|lam|/2)) are computed once per grid, on its nodes
(`FrequencyGrid.constants`); each candidate is built once from a template
(at unit scale when its family has a scale), and its density evaluated
once, for the criterion and the scoring step alike; a family with no
shape parameter fits its scale alone, on the same path, at one
evaluation.  A candidate costs its density arithmetic: for
`arfima_pdq{d, phi}` at T = 2048 (8192 shifted-grid points, about 530 per
Nelder-Mead fit) one pow, Horner's rule, a modulus, two divisions, a log
and two sums, about 0.13 ms; building it, checks included, takes microseconds.

The estimator's limit covariance is e(h) Gamma(theta) with
Gamma = W^{-1} (W + B) W^{-1}, where W and B are quadratures of products
of the log-density gradient (B carries the fourth cumulant of the
innovations and vanishes for Gaussian data).  The taper enters only
through the factor e(h) = H4 / H2^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.optimize

from ._quad import spectral_integral
from .errors import DomainError, SingularInformationError
from .functionals import _lagged_products
from .models import Model, ar_polynomial
from .spectrum import Periodogram, _values_of, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor

_F_FLOOR = 1e-300
_NM_PENALTY = 1e300  # above every feasible criterion value


@dataclass(frozen=True)
class InfoMatrices:
    """W, B and Gamma = W^{-1}(W + B)W^{-1} for one model point."""

    W: np.ndarray
    B: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for arr in (self.W, self.B, self.gamma):
            arr.setflags(write=False)


@dataclass(frozen=True)
class WhittleFit:
    """Minimizer of the tapered Whittle criterion plus its error model.

    `asym_cov` (e(h) Gamma at the fitted point) and `se` are computed by
    `info_matrices` on first access and then kept; a singular information
    matrix raises SingularInformationError there, not during the fit.
    `periodogram` is the one the criterion was fitted to, built on first read
    after a closed-form AR(1) fit.
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
    _periodogram: Callable[[], Periodogram] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.theta_hat.setflags(write=False)

    @functools.cached_property
    def periodogram(self) -> Periodogram:
        return self._periodogram()

    def __getstate__(self):  # the builder is a closure, which does not pickle: build it
        return {**self.__dict__, "periodogram": self.periodogram, "_periodogram": None}

    @functools.cached_property
    def asym_cov(self) -> np.ndarray:
        info = info_matrices(self.model, kappa4=self.kappa4)
        cov = self.tapering_factor * info.gamma
        cov.setflags(write=False)
        return cov

    @functools.cached_property
    def se(self) -> np.ndarray:
        se = np.sqrt(np.clip(np.diag(self.asym_cov), 0.0, None) / self.T)
        se.setflags(write=False)
        return se


def _grid_density(model: Model, grid) -> np.ndarray:
    """f on the grid's nodes, through the grid's shared frequency constants."""
    f = np.asarray(model.density(grid.constants), dtype=float)
    lo, hi = f.min(), f.max()  # nan propagates into both
    if not (lo > 0.0 and hi < math.inf):
        raise DomainError("density is not positive and finite on the grid")
    return f if lo >= _F_FLOOR else np.maximum(f, _F_FLOOR)


def _criterion(pgram: Periodogram, f: np.ndarray) -> float:
    """U_T for the density values f on the grid's nodes."""
    grid = pgram.grid
    return float(grid.sum(np.log(f) + pgram.node_values / f) * grid.weight / (4.0 * math.pi))


def whittle_objective(pgram: Periodogram, model: Model) -> float:
    """U_T at the model point."""
    return _criterion(pgram, _grid_density(model, pgram.grid))


def _profile_scale(pgram: Periodogram, f1: np.ndarray) -> tuple:
    """Closed-form innovation-scale minimizer and the profiled criterion.

    `f1` is the candidate's density at scale 1 on the grid's nodes.  For
    f = sigma2 f1: sigma2_hat is the grid mean of I/f1, and the
    profiled value is the plain criterion evaluated there.
    """
    grid = pgram.grid
    denom = grid.N * grid.weight
    s2 = float(grid.sum(pgram.node_values / f1) * grid.weight / denom)
    s2 = max(s2, _F_FLOOR)
    return s2, _criterion(pgram, s2 * f1)


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


def _scoring_step(pgram: Periodogram, s2: float, f1: np.ndarray, unit: Model) -> float:
    """Fisher-scoring step -g/H for the one shape parameter of `unit`.

    g = (1/4pi) sum_j (1 - I_j/f_j) s_j dlam is the gradient of the
    profiled criterion at f = s2 f1 (s2 minimizes it, so by the envelope
    theorem it drops out) and H = (1/4pi) sum_j s_j^2 dlam the grid
    version of `info_matrices`' W, s being the shape row of `model.score`.
    `f1` and `s2` are the state the criterion was evaluated in (see
    `whittle_estimate`), so no density is evaluated here.
    A zero H, or any non-finite step, gives a zero step.
    """
    grid = pgram.grid
    f = s2 * f1
    s = np.atleast_2d(unit.score(grid.constants))[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -grid.sum((1.0 - pgram.node_values / f) * s) / grid.sum(s * s)
    return float(step) if np.isfinite(step) else 0.0


def _fisher_scoring(evaluate, step_at, x: float, lo: float, hi: float, tol: float,
                    max_evals: int) -> tuple:
    """Minimize evaluate(x) = (value, state) on [lo, hi] from x.

    Each step `step_at(state)` is clipped into the box.  A clipped step of
    at most `tol` ends the search, converged, without being evaluated: it
    would move x by no more than the tolerance (near the minimum, scoring's
    last step is often pure round-off).  A longer step is evaluated and
    halved while the criterion rises (a non-finite value counts as rising);
    the search also converges once a halved step is at most `tol`.
    Returns (x, value, state, evaluations, converged).
    """
    value, state = evaluate(x)
    if not math.isfinite(value):
        raise DomainError("objective not finite at the search start")
    evals = 1
    while evals < max_evals:
        trial = min(max(x + step_at(state), lo), hi)
        if abs(trial - x) <= tol:
            return x, value, state, evals, True
        while True:
            t_value, t_state = evaluate(trial)
            evals += 1
            if t_value <= value or abs(trial - x) <= tol or evals >= max_evals:
                break
            trial = x + 0.5 * (trial - x)
        moved = abs(trial - x)
        if t_value <= value:
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


def whittle_estimate(series, taper: Taper, model: Model,
                     kappa4: float = 0.0, bounds=None, tol: float = 1e-7,
                     max_evals: int = 2000) -> WhittleFit:
    """Fit the model family to a series by tapered Whittle minimization.

    `model` doubles as the family template; its free parameters are the
    search space and its scale (when it has one) is profiled out.  A
    family with no free parameter fits its scale alone, at one criterion
    evaluation, and takes no `bounds` pairs.  An AR(1) family is
    fitted in closed form, theta_hat = g1 / g0 clipped into its box (see
    the module docstring), when |theta_hat|^{N-1} <= `tol` on the sample's
    grid of N points; otherwise, and for every other one-parameter family,
    by projected Fisher scoring (`_fisher_scoring`) from theta_hat or the
    centre of the box.  More than one shape parameter is fitted by
    Nelder-Mead from five deterministic starts.  `iterations` counts
    criterion evaluations (1 for a closed form).  A series holding nan or
    inf is refused.
    """
    x = _values_of(series)
    if not np.all(np.isfinite(x)):
        raise DomainError("series contains nan or inf")
    T = x.shape[0]
    p = len(model.free_names)
    has_scale = model.scale_name is not None
    if not (p or has_scale):
        raise DomainError("model has no free parameters to fit")
    box = list(bounds) if bounds is not None else default_bounds(model)
    if len(box) != p:
        raise DomainError(f"need {p} bounds pairs, got {len(box)}")
    start, closed = None, False
    if p == 1:
        lo, hi = float(box[0][0]), float(box[0][1])
        if len(ar_polynomial(model) or ()) == 2:  # an AR(1): the closed form
            y = taper.values(T) * x
            g = np.append(_lagged_products(y, 1), 0.0)  # g_1 = 0 at T = 1
            if g[0] > 0.0:  # else g_1 / g_0 is undefined (no energy): search from the centre
                start, n = float(min(max(g[1] / g[0], lo), hi)), canonical_grid(T, False).N
                closed = abs(start) ** (n - 1) <= tol
    # a fractional family's box reaches long-memory points wherever it starts
    pgram = None if closed else tapered_periodogram(x, taper, shifted=model.fractional)
    # candidates are built at unit scale, so each is built once
    template = model.with_params(**{model.scale_name: 1.0}) if has_scale else model

    def shape_objective(vec) -> tuple:
        """(value, (s2, f1, candidate)): the candidate's density f1 on the
        grid's nodes, at unit scale when the family has a scale, and the
        scale s2 that minimizes the criterion (1 for a family without one)."""
        try:
            cand = template.with_free(vec)
            f1 = _grid_density(cand, pgram.grid)
            s2, val = _profile_scale(pgram, f1) if has_scale else (1.0, _criterion(pgram, f1))
            return val, (s2, f1, cand)
        except (DomainError, ValueError, FloatingPointError):
            return math.inf, (None, None, None)

    if closed:  # the module docstring's closed form; g0 > 0, so sum h^2 > 0 too
        resid = y[1:] - start * y[:-1]  # y_t - theta y_{t-1} for t = 2..T; t = 1, T + 1 below
        ss = float(resid @ resid) + y[0] ** 2 + (start * y[-1]) ** 2
        s2 = max(ss / taper.sum_of_powers(2, T), _F_FLOOR)
        value = 0.5 * (math.log(s2 / (2.0 * math.pi)) + 1.0 - 2.0 * math.log1p(-start**n) / n)
        best_vec, iterations, converged = np.array([start]), 1, True
    elif p == 0:  # the scale alone
        best_vec, iterations, converged = np.empty(0), 1, True
        value, (s2, _, _) = shape_objective(best_vec)
    elif p == 1:
        xopt, value, (s2, _, _), iterations, converged = _fisher_scoring(
            lambda t: shape_objective([t]),
            lambda state: _scoring_step(pgram, *state),
            lo + 0.5 * (hi - lo) if start is None else start,
            lo, hi, tol, max_evals)
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
    return WhittleFit(
        theta_hat=best_vec if p else np.array([s2]), names=model.fitted_names,
        objective_value=float(value),
        iterations=int(iterations), converged=bool(converged), model=fitted,
        sigma2_hat=float(s2) if has_scale else None,
        taper_id=taper.id, T=T, tapering_factor=tapering_factor(taper),
        kappa4=kappa4,
        _periodogram=lambda: tapered_periodogram(x, taper) if pgram is None else pgram)


def info_matrices(model: Model, kappa4: float = 0.0) -> InfoMatrices:
    """W, B and Gamma by quadrature of log-density gradient products.

    W_ij = (1/4pi) int s_i s_j and B = (kappa4 / 16 pi^2) v v' with
    v_i = int s_i, over the parameters a fit reports, `model.fitted_names`:
    the shape parameters, or the scale when there are none.  They are the
    leading rows of `model.score` (shape rows first, then the scale).
    Every entry comes from one multi-row quadrature of a single
    score evaluation (exponent 0 for long memory: the score is log-singular).
    """
    p = len(model.fitted_names)
    if model.fitted_names == (None,):
        raise DomainError("model exposes no parameters")
    pairs = [(i, j) for i in range(p) for j in range(i, p)]

    def integrand(lam):
        s = np.atleast_2d(model.score(lam))[:p]
        return np.vstack([s[i] for i in range(p)] + [s[i] * s[j] for i, j in pairs])

    vals = spectral_integral(integrand, exponent=0.0 if model.long_memory else None, degree=0)
    v = vals[:p]

    def symmetric(upper):
        out = np.empty((p, p))
        for (i, j), val in zip(pairs, upper):
            out[i, j] = out[j, i] = val / (4.0 * math.pi)
        return out

    W = symmetric(vals[p:])
    B = (kappa4 / (16.0 * math.pi**2)) * np.outer(v, v)
    if not np.all(np.isfinite(W)) or np.linalg.cond(W) > 1e12:
        raise SingularInformationError("information matrix W is singular")
    w_inv = np.linalg.inv(W)
    gamma = w_inv @ (W + B) @ w_inv
    return InfoMatrices(W=W, B=B, gamma=gamma)
