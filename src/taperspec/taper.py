"""Data tapers and their Fejer-type kernels.

A taper is a nonnegative function h on [0, 1] applied multiplicatively to
the sample before any frequency-domain statistic is formed.  The objects
here carry the continuous function, its moments

    H_k = int_0^1 h(t)^k dt,

the discrete sums H_{k,T}(lambda) = sum_{t=1}^T h^k(t/T) e^{-i lambda t},
and the induced Fejer-type kernels of order 2 and 3.  All discrete sums
run over t = 1..T.

Built-in tapers (CLI names in parentheses), with their moments in closed form:

* rectangular ("rect"):    h = 1,                         H_k = 1
* linear ("linear"):       h(t) = 1 - t,                  H_k = 1/(k+1)
* Tukey-Hanning ("tukey"): h(t) = (1 - cos(pi t)) / 2,    H_k = C(2k,k)/4^k
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from ._quad import adaptive_simpson
from .errors import DomainError, InvalidTaperError, UnsupportedArityError

_MOMENT_TOL = 1e-12
_VALIDATION_GRID = 4096


class Taper:
    """A data taper h: [0, 1] -> [0, inf).

    Parameters
    ----------
    taper_id : str
        Stable identifier; used in provenance records and CLI output.
    fn : callable
        Vectorized or scalar evaluation of h.  Must be nonnegative and
        finite on [0, 1] and must not vanish almost everywhere.

    Notes
    -----
    Every moment H_k is kept once computed: a built-in taper's in closed
    form, a custom taper's by adaptive Simpson quadrature.  Values h(t/T),
    the signed values h(t/T)(-1)^t and the sums of powers are cached per T
    so that repeated periodogram calls share them.
    """

    def __init__(self, taper_id: str, fn: Callable):
        self.id = taper_id
        self._fn = _vectorize(fn)
        self._moments: dict[int, float] = {}
        self._values: dict[int, np.ndarray] = {}
        self._signed: dict[int, np.ndarray] = {}
        self._sums: dict[tuple, float] = {}
        self._validate()

    def _validate(self) -> None:
        grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        vals = self._fn(grid)
        if not np.all(np.isfinite(vals)):
            raise InvalidTaperError(f"taper {self.id!r} is non-finite on [0, 1]")
        if np.any(vals < 0.0):
            raise InvalidTaperError(f"taper {self.id!r} is negative on [0, 1]")
        if self.moment(2) <= 0.0:
            raise InvalidTaperError(f"taper {self.id!r} vanishes almost everywhere")

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=float))

    def __repr__(self) -> str:
        return f"Taper({self.id!r})"

    def moment(self, k: int) -> float:
        """H_k = int_0^1 h^k, computed once per k."""
        if k < 1 or k != int(k):
            raise ValueError("moment order must be a positive integer")
        k = int(k)
        if k not in self._moments:
            self._moments[k] = self._compute_moment(k)
        return self._moments[k]

    def _compute_moment(self, k: int) -> float:
        """H_k by adaptive Simpson quadrature; a built-in taper has a closed form."""
        fn = self._fn
        return adaptive_simpson(lambda t: float(fn(t)) ** k, 0.0, 1.0, _MOMENT_TOL)

    def values(self, T: int) -> np.ndarray:
        """Sampled taper h(t/T) for t = 1..T (cached per T)."""
        if T < 1:
            raise ValueError("T must be positive")
        got = self._values.get(T)
        if got is None:
            got = self._fn(np.arange(1, T + 1, dtype=float) / T)
            got.setflags(write=False)
            self._values[T] = got
        return got

    def signed_values(self, T: int) -> np.ndarray:
        """h(t/T) (-1)^t for t = 1..T, the taper of the FFT path (cached per T)."""
        got = self._signed.get(T)
        if got is None:
            t = np.arange(1, T + 1)
            got = self.values(T) * np.where(t % 2 == 0, 1.0, -1.0)
            got.setflags(write=False)
            self._signed[T] = got
        return got

    def sum_of_powers(self, k: int, T: int) -> float:
        """H_{k,T}(0) = sum_{t=1}^T h^k(t/T) (cached per k and T)."""
        if (k, T) not in self._sums:
            self._sums[k, T] = float(np.sum(self.values(T) ** k))
        return self._sums[k, T]


def _vectorize(fn: Callable) -> Callable:
    probe = np.array([0.0, 0.5, 1.0])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape == probe.shape:
            return lambda x: np.asarray(fn(x), dtype=float)
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


class _BuiltinTaper(Taper):
    """A built-in taper, whose moments H_k are closed forms in k (`_TAPERS`)."""

    def _compute_moment(self, k: int) -> float:
        return _TAPERS[self.id][1](k)


def tapering_factor(taper: Taper) -> float:
    """e(h) = H_4 / H_2^2; equals 1 exactly for the rectangular taper."""
    h2 = taper.moment(2)
    return taper.moment(4) / (h2 * h2)


def phase_sum(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_{t=1}^T w_t exp(-i lambda t) for each lambda of a 1-d array.

    Chunked so the (len(lam), T) phase matrix never exceeds ~8M entries.
    """
    T = w.shape[0]
    t = np.arange(1, T + 1, dtype=float)
    out = np.empty(lam.shape[0], dtype=complex)
    step = max(1, (8 << 20) // (16 * T))
    for i in range(0, lam.shape[0], step):
        out[i:i + step] = np.exp(-1j * np.outer(lam[i:i + step], t)) @ w
    return out


def dirichlet_kernel(taper: Taper, k: int, T: int, lam) -> np.ndarray:
    """H_{k,T}(lambda) = sum_{t=1}^T h^k(t/T) exp(-i lambda t), vectorized over lambda."""
    out = phase_sum(taper.values(T) ** k, np.atleast_1d(np.asarray(lam, dtype=float)))
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return out[0]
    return out


def fejer_kernel(taper: Taper, k: int, T: int, u) -> np.ndarray:
    """Fejer-type kernel of order k in {2, 3}.

    F_{2,T}(u) = |H_{1,T}(u)|^2 / (2 pi H_{2,T}(0))            (real, >= 0)
    F_{3,T}(u1, u2) = H_{1,T}(u1) H_{1,T}(u2) H_{1,T}(-u1-u2)
                      / ((2 pi)^2 H_{3,T}(0))                  (complex)

    For k = 3, `u` must have trailing dimension 2.  Integrating the order-2
    kernel over [-pi, pi] (trapezoid on a full-period grid with at least
    2T + 1 points) gives exactly 1; the order-3 kernel integrates to 1 over
    the square, its imaginary part cancelling by symmetry.

    Raises
    ------
    UnsupportedArityError
        If k is not 2 or 3.
    DomainError
        If the taper vanishes on the sample (sum h^k = 0).
    """
    if k not in (2, 3):
        raise UnsupportedArityError(f"Fejer kernel order must be 2 or 3, got {k}")
    h_k = taper.sum_of_powers(k, T)
    if h_k == 0.0:
        raise DomainError(f"taper {taper.id!r} vanishes on the sample: sum h^{k} = 0 at T = {T}")
    if k == 2:
        lam = np.asarray(u, dtype=float)
        h1 = np.atleast_1d(dirichlet_kernel(taper, 1, T, lam.ravel()))
        norm = 2.0 * math.pi * h_k
        vals = np.abs(h1) ** 2 / norm
        if lam.ndim == 0:
            return float(vals[0])
        return vals.reshape(lam.shape)
    pts = np.asarray(u, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("order-3 kernel requires points with trailing dimension 2")
    flat = pts.reshape(-1, 2)
    a = dirichlet_kernel(taper, 1, T, flat[:, 0])
    b = dirichlet_kernel(taper, 1, T, flat[:, 1])
    c = dirichlet_kernel(taper, 1, T, -flat[:, 0] - flat[:, 1])
    norm = (2.0 * math.pi) ** 2 * h_k
    out = np.atleast_1d(a) * np.atleast_1d(b) * np.atleast_1d(c) / norm
    return out.reshape(pts.shape[:-1])


def custom(taper_id: str, fn: Callable) -> Taper:
    """Wrap a user-supplied taper function, validating it on a 4096-point grid."""
    return Taper(taper_id, fn)


# The built-in tapers by CLI name: h, and k -> H_k in closed form.
_TAPERS: dict[str, tuple[Callable, Callable[[int], float]]] = {
    "rect": (lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda k: 1.0),
    "linear": (lambda t: 1.0 - np.asarray(t, dtype=float), lambda k: 1.0 / (k + 1)),
    "tukey": (lambda t: 0.5 * (1.0 - np.cos(math.pi * np.asarray(t, dtype=float))),
              lambda k: math.comb(2 * k, k) / 4**k),
}


@functools.cache
def get_taper(name: str) -> Taper:
    """The shared built-in taper for a CLI name.

    There is one instance per name and process, so its moments H_k and
    sampled values h(t/T) are computed once and reused by every caller
    (forked worker processes inherit them).  Raises InvalidTaperError for
    an unknown name.
    """
    if name not in _TAPERS:
        raise InvalidTaperError(f"unknown taper {name!r}; expected one of {sorted(_TAPERS)}")
    return _BuiltinTaper(name, _TAPERS[name][0])
