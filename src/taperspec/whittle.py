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
Nelder-Mead from five deterministic starts (for a pure AR from r_hat
alone, or from r_hat too where an earlier r_hat_k was clipped, below).

A pure AR(p) family (`models.ar_polynomial`: `ar1`, or `arma` with phi
and no theta) needs no search.  Its unit density is 1 / (2 pi |a(z)|^2),
a(z) = 1 - phi_1 z - ... - phi_p z^p = prod_i (1 - rho_i z), z = e^{-i lam}.
On the unshifted grid (N >= 4T and p <= N - T: no lag wraps around),
I_j |a(z_j)|^2 is the periodogram of the residuals eps = a(B) y of
y = h x (y = 0 outside 1..T), so sum_j I_j |a(z_j)|^2 w = sum_t eps_t^2 / sum h^2
= a' G a / sum h^2, G the Toeplitz matrix of the lagged products
g_k = sum_t y_t y_{t+k}.  The z_j are the N-th roots of unity, so
sum_j ln|a(z_j)|^2 = 2 sum_i ln|1 - rho_i^N|, and the profiled criterion is

    (1/2) [ln(s2 / 2 pi) + 1 - (2/N) sum_i ln|1 - rho_i^N|],
    s2 = sum_{t=1}^{T+p} eps_t^2 / sum h^2.

The first term is minimized by the Yule-Walker estimate, which
Durbin-Levinson recursion on g_0..g_p gives with its partial
autocorrelations r_1..r_p (Brockwell & Davis 1991, sections 5.2 and 8.2;
Dahlhaus 1988 for the tapered estimate); the second moves the minimizer by
about max|rho|^{N-1}.  The fit is searched in r, whose cube
(-1, 1)^p is the stationary region (`models._step_up` maps it onto phi;
Barndorff-Nielsen & Schou 1973): the box is (-0.99, 0.99)^p there.  So
where max|rho_hat|^{N-1} is at most the search tolerance and no r_hat_k
with k < p lies outside the box, r_hat clipped into the box is the fit,
with no density or periodogram (clipping r_p alone keeps the residual sum
minimal over the box, see `_yule_walker`); elsewhere (small T, a root near
the circle, an earlier r_hat_k clipped) the search starts there.  For
p = 1, r_1 = g_1 / g_0 and rho_1 = phi_1: no root is sought.

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

import numpy as np
import scipy.optimize

from ._quad import spectral_integral
from .errors import DomainError, SingularInformationError
from .functionals import _lagged_products
from .models import Model, _step_up, ar_polynomial
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
    `periodogram` is the one the criterion was fitted to, None after a
    closed-form fit.
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
    periodogram: Periodogram | None = field(default=None, repr=False)

    def __post_init__(self):
        self.theta_hat.setflags(write=False)

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


def _search_box(model: Model, bounds, pure_ar: bool) -> list:
    """`bounds`, or the default box, checked pair by pair: finite with lo < hi,
    and inside (-1, 1) for the partial autocorrelations of a pure AR."""
    if bounds is None:
        return default_bounds(model)
    box = [tuple(map(float, b)) for b in bounds]
    if len(box) != len(model.free_names):
        raise DomainError(f"need {len(model.free_names)} bounds pairs, got {len(box)}")
    inf = 1.0 if pure_ar else math.inf
    for name, (lo, hi) in zip(model.free_names, box):
        if not -inf < lo < hi < inf:  # a nan fails too
            raise DomainError(f"bounds pair for {name!r} must have {-inf} < lo < hi < {inf}, "
                              f"got ({lo}, {hi})")
    return box


def _yule_walker(g, box) -> tuple:
    """Durbin-Levinson on g_0..g_p (g_0 > 0): the partial autocorrelations
    r_1..r_p of the Yule-Walker fit, r_1 = g_1 / g_0, each clipped into its
    pair, and whether they minimize the residual sum over the box.  They do
    unless some r_k with k < p was clipped.  For any fixed r_p the sum is a
    convex quadratic in the order-(p-1) coefficients (eps = e_f - r_p e_b,
    both residuals linear in them), stationary at their Yule-Walker values,
    so clipping r_p alone keeps a minimizer; but r_{k+1}..r_p were fitted to
    the unclipped r_k."""
    r, phi, v = [], (), g[0]
    for k in range(1, len(g)):
        rk = g[k]
        for i, c in enumerate(phi):
            rk -= c * g[k - 1 - i]
        rk /= v
        v *= 1.0 - rk * rk
        phi = _step_up((rk,), phi)
        r.append(rk)
    clipped = [min(max(rk, lo), hi) for rk, (lo, hi) in zip(r, box)]
    return clipped, clipped[:-1] == r[:-1]


def _residual_sum(y: np.ndarray, a) -> float:
    """sum_t (a(B) y)_t^2 over t = 1..T + p, y = 0 outside 1..T: the terms
    t = p + 1..T first, then those that reach past an end of y."""
    p, T = len(a) - 1, y.shape[0]
    eps = np.convolve(y, a)
    inner = eps[p:T]
    ss = float(inner @ inner)
    for e in eps[:p].tolist() + eps[max(p, T):].tolist():
        ss += e * e
    return ss


def whittle_estimate(series, taper: Taper, model: Model,
                     kappa4: float = 0.0, bounds=None, tol: float = 1e-7,
                     max_evals: int = 2000) -> WhittleFit:
    """Fit the model family to a series by tapered Whittle minimization.

    `model` doubles as the family template; its free parameters are the
    search space and its scale (when it has one) is profiled out.  A
    family with no free parameter fits its scale alone, at one criterion
    evaluation, and takes no `bounds` pairs.  A pure AR(p)
    (`models.ar_polynomial`) is fitted in its partial autocorrelations r,
    whose box must lie inside (-1, 1): r_hat clipped into it where
    max|rho_hat|^{N-1} <= `tol` on the sample's grid of N points and no
    r_hat_k with k < p was clipped (see the module docstring), else a
    search from there.  One parameter is searched
    by projected Fisher scoring (`_fisher_scoring`), from r_hat or the
    centre of the box; more by Nelder-Mead, from r_hat alone unless an
    earlier r_hat_k was clipped, else from it and five deterministic starts.  `iterations` counts criterion evaluations (1 for
    a closed form).  A series holding nan or inf is refused, and so is a
    bounds pair that is not finite with lo < hi.
    """
    x = _values_of(series)
    if not np.all(np.isfinite(x)):
        raise DomainError("series contains nan or inf")
    T = x.shape[0]
    p = len(model.free_names)
    has_scale = model.scale_name is not None
    if not (p or has_scale):
        raise DomainError("model has no free parameters to fit")
    pure_ar = p > 0 and ar_polynomial(model) is not None
    box = _search_box(model, bounds, pure_ar)
    start, minimizes, closed = None, False, False
    if pure_ar:
        y = taper.values(T) * x
        g = _lagged_products(y, p).tolist()
        g += [0.0] * (p + 1 - len(g))  # g_k = 0 for k >= T
        if g[0] > 0.0:  # else r_hat is undefined (no energy): search from the centre
            start, minimizes = _yule_walker(g, box)
            n = canonical_grid(T, False).N
            if minimizes and p <= n - T:
                a = (1.0, *[-c for c in _step_up(start)])
                rho = start if p == 1 else np.roots(a).tolist()  # a = prod_i (1 - rho_i z)
                closed = max(map(abs, rho)) ** (n - 1) <= tol
    # a fractional family's box reaches long-memory points wherever it starts
    pgram = None if closed else tapered_periodogram(x, taper, shifted=model.fractional)
    # candidates are built at unit scale, so each is built once
    template = model.with_params(**{model.scale_name: 1.0}) if has_scale else model
    free_of = _step_up if pure_ar else np.asarray  # search coordinates -> free parameters

    def shape_objective(vec) -> tuple:
        """(value, (s2, f1, candidate)): the candidate's density f1 on the
        grid's nodes, at unit scale when the family has a scale, and the
        scale s2 that minimizes the criterion (1 for a family without one)."""
        try:
            cand = template.with_free(free_of(vec))
            f1 = _grid_density(cand, pgram.grid)
            s2, val = _profile_scale(pgram, f1) if has_scale else (1.0, _criterion(pgram, f1))
            return val, (s2, f1, cand)
        except (DomainError, ValueError, FloatingPointError):
            return math.inf, (None, None, None)

    if closed:  # the module docstring's closed form; g0 > 0, so sum h^2 > 0 too
        s2 = max(_residual_sum(y, a) / taper.sum_of_powers(2, T), _F_FLOOR)
        log_circle = (math.log1p(-start[0] ** n) if p == 1  # sum_i ln|1 - rho_i^N|
                      else sum(math.log(abs(1.0 - v**n)) for v in rho))
        value = 0.5 * (math.log(s2 / (2.0 * math.pi)) + 1.0 - 2.0 * log_circle / n)
        best_vec, iterations, converged = start, 1, True
    elif p == 0:  # the scale alone
        best_vec, iterations, converged = np.empty(0), 1, True
        value, (s2, _, _) = shape_objective(best_vec)
    elif p == 1:
        lo, hi = box[0]
        xopt, value, (s2, _, _), iterations, converged = _fisher_scoring(
            lambda t: shape_objective([t]),
            lambda state: _scoring_step(pgram, *state),
            lo + 0.5 * (hi - lo) if start is None else start[0],
            lo, hi, tol, max_evals)
        best_vec = np.array([xopt])
    else:
        # r_hat is near the minimizer unless an earlier r_hat_k was clipped
        starts = (([] if start is None else [np.array(start)])
                  + ([] if minimizes else _nm_starts(box)))
        per_start = max(200, max_evals // len(starts))
        # Nelder-Mead subtracts criterion values (inf - inf is nan), so an
        # infeasible candidate scores the finite penalty; min() maps nan there too
        results = [scipy.optimize.minimize(
            lambda v: min(_NM_PENALTY, shape_objective(v)[0]), x0,
            method="Nelder-Mead", bounds=box,
            options={"xatol": tol, "fatol": 1e-12, "maxfev": per_start})
            for x0 in starts]
        best = min(results, key=lambda r: r.fun)
        best_vec = np.asarray(best.x, dtype=float)
        iterations = sum(r.nfev for r in results)
        converged = bool(best.success)
        value, (s2, _, _) = shape_objective(best_vec)
    if not math.isfinite(value):
        raise DomainError("objective not finite at the reported minimum")
    theta_hat = np.array(free_of(best_vec), dtype=float)
    fitted = model.with_free(theta_hat)
    if has_scale:
        fitted = fitted.with_params(**{model.scale_name: s2})
    return WhittleFit(
        theta_hat=theta_hat if p else np.array([s2]), names=model.fitted_names,
        objective_value=float(value),
        iterations=int(iterations), converged=bool(converged), model=fitted,
        sigma2_hat=float(s2) if has_scale else None,
        taper_id=taper.id, T=T, tapering_factor=tapering_factor(taper),
        kappa4=kappa4, periodogram=pgram)


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
