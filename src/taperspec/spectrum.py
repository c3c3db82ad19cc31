"""Tapered discrete Fourier transforms and periodograms.

The canonical frequency grid for a sample of length T has N = 2^ceil(log2(
oversample * T)) points

    lambda_j = -pi + 2 pi (j + 1) / N,   j = 0..N-1,

strictly increasing in (-pi, pi], each carrying quadrature weight 2 pi / N.
Trapezoid sums over this grid are exact for trigonometric polynomials of
degree < N, which is what makes the periodogram-sum and quadratic-form
routes agree to machine precision for band-limited integrands.

The shifted variant places points at half-integer offsets,

    lambda_j = -pi + 2 pi (j + 1/2) / N,

avoiding lambda = 0; estimators for long-memory models use it so that a
spectral pole at the origin is never evaluated.

The tapered DFT is d(lambda) = sum_{t=1}^T h(t/T) X_t e^{-i lambda t}, and
the periodogram I(lambda) = |d(lambda)|^2 / C_T with the exact
normalization C_T = 2 pi sum_{t=1}^T h^2(t/T).  On a full canonical grid
the weighted periodogram sum reproduces the tapered sample energy exactly
(Parseval): sum_j I_j w = sum_t h_t^2 X_t^2 / sum_t h_t^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import FrequencyConstants, TimeSeries
from .taper import Taper

OVERSAMPLE_CHOICES = (1, 2, 4, 8)


@dataclass(frozen=True)
class FrequencyGrid:
    """Evaluation frequencies plus their quadrature weight."""

    points: np.ndarray
    weight: float
    shifted: bool = False
    canonical: bool = False
    T: int | None = None

    @property
    def N(self) -> int:
        return int(self.points.shape[0])

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.N, self.weight)

    @functools.cached_property
    def constants(self) -> FrequencyConstants:
        """The points with their density constants, computed once per grid
        (so once per process for a memoized `canonical_grid`)."""
        return FrequencyConstants(self.points)

    @functools.cached_property
    def shift_phase(self) -> np.ndarray:
        """e^{-i pi t / N} for t = 1..N, the half-bin shift of the FFT path."""
        return np.exp(-1j * math.pi * np.arange(1, self.N + 1) / self.N)


def _build_grid(T: int, oversample: int = 4, shifted: bool = False) -> FrequencyGrid:
    if T < 1:
        raise ValueError("T must be positive")
    if oversample not in OVERSAMPLE_CHOICES:
        raise ValueError(f"oversample must be one of {OVERSAMPLE_CHOICES}")
    n = 1 << max(1, int(math.ceil(math.log2(oversample * T))))
    j = np.arange(n, dtype=float)
    offset = 0.5 if shifted else 1.0
    points = -math.pi + 2.0 * math.pi * (j + offset) / n
    points.setflags(write=False)
    return FrequencyGrid(points, 2.0 * math.pi / n, shifted=shifted, canonical=True, T=T)


_grid_memo = functools.lru_cache(maxsize=8)(_build_grid)


def canonical_grid(T: int, oversample: int = 4, shifted: bool = False) -> FrequencyGrid:
    """Full-period grid with N = next power of two >= oversample * T.

    Memoized per process on the argument values, however they are passed:
    the grid is frozen and its arrays read-only, so one grid and its cached
    constants serve every call (and every forked worker).
    """
    return _grid_memo(T, oversample, bool(shifted))


canonical_grid.__wrapped__ = _build_grid
canonical_grid.cache_info = _grid_memo.cache_info


def _values_of(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)


def _canonical_fft(x: np.ndarray, taper: Taper, grid: FrequencyGrid) -> np.ndarray:
    """`tapered_dft` on a canonical grid, not yet rotated if it is unshifted."""
    n, T = grid.N, x.shape[0]
    y = taper.signed_values(T) * x
    if grid.shifted:
        y = y * grid.shift_phase[:T]
    a = np.zeros(n, dtype=y.dtype)
    if T < n:
        a[1:T + 1] = y
    else:
        a[1:T] = y[:-1]
        a[0] = y[-1]
    return np.fft.fft(a)


def tapered_dft(series, taper: Taper, grid) -> np.ndarray:
    """d(lambda_j) for all grid points (FFT path on canonical grids)."""
    x = _values_of(series)
    T = x.shape[0]
    if isinstance(grid, FrequencyGrid) and grid.canonical:
        out = _canonical_fft(x, taper, grid)
        return out if grid.shifted else np.roll(out, -1)
    lam = grid.points if isinstance(grid, FrequencyGrid) else np.atleast_1d(
        np.asarray(grid, dtype=float)
    )
    y = taper.values(T) * x
    t = np.arange(1, T + 1, dtype=float)
    out = np.empty(lam.shape[0], dtype=complex)
    step = max(1, (8 << 20) // (16 * T))
    for i in range(0, lam.shape[0], step):
        out[i:i + step] = np.exp(-1j * np.outer(lam[i:i + step], t)) @ y
    return out


@dataclass(frozen=True)
class Periodogram:
    """Tapered periodogram sampled on a frequency grid."""

    values: np.ndarray
    grid: FrequencyGrid
    taper_id: str
    T: int
    c_norm: float


def tapered_periodogram(series, taper: Taper, grid: FrequencyGrid | None = None,
                        oversample: int = 4) -> Periodogram:
    """I(lambda) = |d(lambda)|^2 / (2 pi sum h^2) on the given or default grid;
    DomainError if the taper vanishes on the sample (sum h^2 = 0)."""
    x = _values_of(series)
    T = x.shape[0]
    if grid is None:
        grid = canonical_grid(T, oversample=oversample)
    c_norm = 2.0 * math.pi * taper.sum_of_powers(2, T)
    if c_norm == 0.0:
        raise DomainError(f"taper {taper.id!r} vanishes on the sample: sum h^2 = 0 at T = {T}")
    d = _canonical_fft(x, taper, grid) if grid.canonical else tapered_dft(x, taper, grid)
    vals = (d.real**2 + d.imag**2) / c_norm
    if grid.canonical and not grid.shifted:
        # |d|^2 is elementwise, so the FFT's rotation moves to the real array
        vals = np.concatenate((vals[1:], vals[:1]))
    vals.setflags(write=False)
    return Periodogram(vals, grid, taper.id, T, c_norm)
