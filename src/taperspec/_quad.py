"""Internal quadrature helpers.

Three tools live here: a recursive adaptive Simpson rule for one-off
scalar integrals (the moments of a custom taper; the built-in tapers
have closed forms), the population integral `spectral_integral` of an even function over
[-pi, pi], and the cosine coefficients `cosine_coefficient`.

`spectral_integral` runs a periodic midpoint rule on short-memory integrands
and a graded Gauss rule on those with an origin exponent beta, F ~ |lam|^beta
at 0, whose integral exists exactly when beta > -1 (Fox and Taqqu, Ann.
Statist. 14, 1986; Avram, PTRF 79, 1988).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi

from .errors import DivergenceError

_MAX_DEPTH = 48
# midpoint rule for spectral_integral: node counts on [0, pi] and stopping tolerance
_MIN_NODES = 64
_MAX_NODES = 1 << 16
_RTOL = 1e-13
# graded Gauss rule: nodes per panel, ratio (no power of two, so no level repeats
# another's node) and count of the geometric panels (to about 1e-33), top level
_GAUSS_NODES = 16
_GRADE = 0.24
_GRADED_PANELS = 52
_MAX_LEVEL = 8


def _simpson_step(fn, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= _MAX_DEPTH or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _simpson_step(fn, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + _simpson_step(
        fn, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
    )


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Integrate fn over [a, b] to absolute tolerance tol."""
    fa = float(fn(a))
    fb = float(fn(b))
    m = 0.5 * (a + b)
    fm = float(fn(m))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(fn, a, fa, b, fb, m, fm, whole, tol, 0)


@functools.lru_cache(maxsize=64)
def _graded_rule(beta: float, level: int) -> tuple:
    """Nodes in (0, pi) and weights (doubled for [-pi, pi]) of one graded level:
    Gauss-Legendre panels of width pi / 2^level above that width, geometric
    ones below it (each sees the origin at a fixed multiple of its width, so
    |lam|^beta and log |lam| converge on all alike), and a Gauss-Jacobi cell
    [0, eps] with weight lam^beta, exact when F / lam^beta is a polynomial."""
    t, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    top = math.pi / 2**level
    edges = np.concatenate((top * _GRADE ** np.arange(_GRADED_PANELS, 0, -1),
                            top * np.arange(1, 2**level + 1)))
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2, (edges[1:] - edges[:-1])[:, None] / 2
    tj, wj = roots_jacobi(_GAUSS_NODES, 0.0, beta)
    x = (1.0 + tj) / 2
    nodes = np.concatenate((edges[0] * x, (mid + half * t).ravel()))
    weights = 2.0 * np.concatenate((edges[0] * wj / (2.0 ** (beta + 1.0) * x**beta),
                                    (half * w).ravel()))
    for table in (nodes, weights):
        table.setflags(write=False)
    return nodes, weights


def spectral_integral(fn: Callable[[np.ndarray], np.ndarray], exponent: float | None = None,
                      degree: int | None = None) -> float | np.ndarray:
    """Integral over [-pi, pi] of an even function given vectorized on arrays.

    Short-memory integrands (`exponent` None) go through the periodic
    midpoint rule on [0, pi], nodes (j + 1/2) pi / m: for the even extension
    of a smooth periodic function this is the trapezoid rule on the whole
    circle, which converges geometrically (Trefethen and Weideman, SIAM
    Review 56, 2014).  The rule runs at m, 2m, 4m, ... and stops once every
    row agrees with the level before within 1e-13 * int |row|, or once m
    reaches _MAX_NODES; the last level is returned.  No node falls on lambda = 0 or pi, so an integrable log
    singularity at the origin (the d-score of ARFIMA at d = 0) is sampled
    only where finite.  An `exponent` beta runs the levels k0, k0 + 1, ...,
    _MAX_LEVEL of `_graded_rule` the same way, or raises DivergenceError
    when beta <= -1.  Given another exponent than the integrand's own beta',
    only its origin cell errs, by about (1e-33)^(beta' + 1) of the integral.

    `degree` is the highest trigonometric frequency the integrand is known
    to carry (the k of a cos(k lam) factor; smooth factors such as a
    short-memory density or score count as 0).  It sets the first level:
    the smallest power of two m >= max(64, 2 (degree + 1)) midpoint nodes,
    or the first graded level whose panels hold half a period of
    cos(degree lam).  Either integrates that oscillation with room to
    spare, where a coarser start can alias it and have two levels agree on
    a wrong value.  An integrand that may oscillate faster than any known
    `degree` must pass None, which runs the top level alone.

    `fn` may return one row per node or an array of shape (k, len(lam));
    the result is then a float or the length-k vector of row integrals.
    `fn` is evaluated once per level for all rows.
    """
    if exponent is not None:
        if exponent <= -1.0:
            raise DivergenceError(f"integrand ~ |lam|^{exponent:g} at the origin is not integrable")
        level = _MAX_LEVEL if degree is None else min(_MAX_LEVEL, max(1, degree.bit_length()))
        prev = None
        while True:
            nodes, weights = _graded_rule(float(exponent), level)
            vals = np.asarray(fn(nodes), dtype=float)
            est = vals @ weights
            done = prev is not None and np.all(
                np.abs(est - prev) <= _RTOL * (np.abs(vals) @ weights))
            if done or level >= _MAX_LEVEL:
                return est if vals.ndim == 2 else float(est)
            prev, level = est, level + 1
    if degree is None:
        m = _MAX_NODES
    else:
        m = min(_MAX_NODES, max(_MIN_NODES, 1 << (2 * degree + 1).bit_length()))
    prev = None
    while True:
        vals = np.asarray(fn((np.arange(m) + 0.5) * (math.pi / m)), dtype=float)
        h = 2.0 * math.pi / m
        est = h * vals.sum(axis=-1)
        done = prev is not None and np.all(
            np.abs(est - prev) <= _RTOL * h * np.abs(vals).sum(axis=-1))
        if done or m >= _MAX_NODES:
            return est if vals.ndim == 2 else float(est)
        prev, m = est, 2 * m


def cosine_coefficient(fn: Callable, u: int) -> float:
    """int_{-pi}^{pi} fn(lam) cos(u lam) dlam for an even fn bounded at the origin:
    the midpoint rule at lag 0, QUADPACK's oscillatory rule (QAWO) elsewhere."""
    u = abs(int(u))
    if u == 0:
        return spectral_integral(fn)
    val, _ = quad(lambda x: float(np.asarray(fn(np.array([x])))[0]), 0.0, math.pi,
                  weight="cos", wvar=float(u), limit=400, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * val
