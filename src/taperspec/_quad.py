"""Internal quadrature helpers.

Two tools live here: a recursive adaptive Simpson rule for one-off scalar
integrals (taper moments, normalization constants), and vectorized
trapezoid integration of even functions over [-pi, pi], with an optional
graded mesh that crowds nodes near lambda = 0 for integrands with an
integrable pole there.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_MAX_DEPTH = 48


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


def even_nodes(n: int = 1 << 16, graded: bool = False, power: float = 2.0) -> np.ndarray:
    """Nodes in (0, pi] for integrating an even function over [-pi, pi].

    With graded=True the nodes follow pi * (j/n)^power, clustering near the
    origin so that integrable singularities (long-memory poles) are resolved.
    The origin itself is excluded; the first cell is closed by treating the
    integrand as its value at the first node (safe for any integrable pole
    because the cell width shrinks like n^-power).
    """
    j = np.arange(1, n + 1, dtype=float)
    if graded:
        return math.pi * (j / n) ** power
    return math.pi * j / n


def integrate_even(values: np.ndarray, nodes: np.ndarray) -> float:
    """Trapezoid integral of an even function over [-pi, pi].

    `values` holds the integrand at `nodes` (inside (0, pi]); the value at 0
    is extrapolated as values[0], which for graded meshes contributes
    O(width of first cell) and is otherwise exact for smooth integrands in
    the usual trapezoid sense.
    """
    x = np.concatenate(([0.0], nodes))
    y = np.concatenate(([values[0]], values))
    return 2.0 * float(np.trapezoid(y, x))


def spectral_integral(fn: Callable[[np.ndarray], np.ndarray], long_memory: bool = False,
                      n: int = 1 << 16) -> float | np.ndarray:
    """Integral over [-pi, pi] of an even function given vectorized on arrays.

    Short-memory integrands use a fine trapezoid rule (spectrally accurate
    for analytic densities).  Long-memory integrands, which may carry an
    integrable algebraic pole at the origin, go through adaptive
    Gauss-Kronrod, whose epsilon extrapolation resolves endpoint
    singularities far better than any fixed mesh.

    `fn` may return one row per node or an array of shape (k, len(lam));
    the result is then a float or the length-k vector of row integrals.
    On the trapezoid path `fn` is evaluated once for all rows; on the
    Gauss-Kronrod path each row gets its own adaptive rule.
    """
    if long_memory:
        from scipy.integrate import quad

        shape = []  # shape of one evaluation, recorded by the first call

        def scalar_fn(x: float, row: int) -> float:
            vals = np.asarray(fn(np.array([x])))
            if not shape:
                shape.append(vals.shape)
            return float(vals[row, 0] if vals.ndim == 2 else vals[0])

        def row_integral(row: int) -> float:
            val, _ = quad(scalar_fn, 0.0, math.pi, args=(row,), limit=400,
                          epsabs=1e-9, epsrel=1e-10)
            return 2.0 * val

        first = row_integral(0)
        if len(shape[0]) == 1:
            return first
        return np.array([first] + [row_integral(r) for r in range(1, shape[0][0])])
    nodes = even_nodes(n)
    vals = np.asarray(fn(nodes), dtype=float)
    if vals.ndim == 2:
        return np.array([integrate_even(v, nodes) for v in vals])
    return integrate_even(vals, nodes)


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
