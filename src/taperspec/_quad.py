"""Internal quadrature helpers.

Three tools live here: a recursive adaptive Simpson rule for one-off
scalar integrals (the moments of a custom taper; the built-in tapers
have closed forms), the population integral `spectral_integral` of an even function over
[-pi, pi], and the cosine coefficients `cosine_coefficient`.

`spectral_integral` has two paths.  A short-memory integrand is smooth
and periodic, so the periodic midpoint rule converges on it geometrically
(Trefethen and Weideman, SIAM Review 56, 2014); the rule doubles its node
count from a start level set by the integrand's known oscillation until
two levels agree, capped at _MAX_NODES nodes on [0, pi].  A long-memory
integrand may carry an algebraic pole at the origin and goes through
QUADPACK's adaptive Gauss-Kronrod rule instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_MAX_DEPTH = 48
# midpoint rule for spectral_integral: node counts on [0, pi] and stopping tolerance
_MIN_NODES = 64
_MAX_NODES = 1 << 16
_RTOL = 1e-13


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


def spectral_integral(fn: Callable[[np.ndarray], np.ndarray], long_memory: bool = False,
                      degree: int | None = None) -> float | np.ndarray:
    """Integral over [-pi, pi] of an even function given vectorized on arrays.

    Short-memory integrands go through the periodic midpoint rule on
    [0, pi], nodes (j + 1/2) pi / m: for the even extension of a smooth
    periodic function this is the trapezoid rule on the whole circle,
    which converges geometrically.  The rule runs at m, 2m, 4m, ... and
    stops once every row agrees with the level before within
    1e-13 * int |row|, or once m reaches _MAX_NODES; the last level is
    returned.  No node falls on lambda = 0 or pi, so an integrable log
    singularity at the origin (the d-score of ARFIMA at d = 0) is sampled
    only where finite.

    `degree` is the highest trigonometric frequency the integrand is known
    to carry (the k of a cos(k lam) factor; smooth factors such as a
    short-memory density or score count as 0).  The first level is the
    smallest power of two m >= max(64, 2 (degree + 1)): it integrates that
    oscillation exactly with room to spare, where a coarser start can
    alias it and have two levels agree on a wrong value.  An integrand
    that may oscillate faster than any known `degree` must pass None,
    which runs one level at _MAX_NODES.

    Long-memory integrands, which may carry an integrable algebraic pole
    at the origin, go through adaptive Gauss-Kronrod, whose epsilon
    extrapolation resolves endpoint singularities far better than any
    fixed mesh; `degree` is ignored there.

    `fn` may return one row per node or an array of shape (k, len(lam));
    the result is then a float or the length-k vector of row integrals.
    On the midpoint path `fn` is evaluated once per level for all rows; on
    the Gauss-Kronrod path each row gets its own adaptive rule, and the
    rows of every node are kept for the call, so a node the rules share
    is evaluated once.
    """
    if long_memory:
        from scipy.integrate import quad

        rows_at = {}  # node -> every row of fn there

        def scalar_fn(x: float, row: int) -> float:
            vals = rows_at.get(x)
            if vals is None:
                vals = rows_at[x] = np.asarray(fn(np.array([x])))
            return float(vals[row, 0] if vals.ndim == 2 else vals[0])

        def row_integral(row: int) -> float:
            val, _ = quad(scalar_fn, 0.0, math.pi, args=(row,), limit=400,
                          epsabs=1e-9, epsrel=1e-10)
            return 2.0 * val

        first = row_integral(0)
        shape = next(iter(rows_at.values())).shape
        if len(shape) == 1:
            return first
        return np.array([first] + [row_integral(r) for r in range(1, shape[0])])
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


def cosine_coefficient(fn: Callable, u: int, long_memory: bool = False) -> float:
    """int_{-pi}^{pi} fn(lam) cos(u lam) dlam for a (possibly singular) even fn.

    The oscillatory rule (QAWO) cannot extrapolate through an endpoint
    pole, so for long-memory symbols the pole neighbourhood [0, a] is
    integrated by plain adaptive Gauss-Kronrod (cos is smooth there when
    a * u is order one) and only [a, pi] goes through the oscillatory rule.
    """
    from scipy.integrate import quad

    def scalar_fn(x: float) -> float:
        return float(np.asarray(fn(np.array([x])))[0])

    u = abs(int(u))
    if u == 0:
        return spectral_integral(fn, long_memory=long_memory)
    if not long_memory:
        val, _ = quad(scalar_fn, 0.0, math.pi, weight="cos", wvar=float(u),
                      limit=400, epsabs=1e-10, epsrel=1e-10)
        return 2.0 * val
    a = min(math.pi / 2.0, 2.0 / u)
    v1, _ = quad(lambda x: scalar_fn(x) * math.cos(u * x), 0.0, a,
                 limit=200, epsabs=1e-9, epsrel=1e-9)
    v2, _ = quad(scalar_fn, a, math.pi, weight="cos", wvar=float(u),
                 limit=400, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * (v1 + v2)
