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

from .models import FrequencyConstants, TimeSeries
from .taper import Taper

_OVERSAMPLE_CHOICES = (1, 2, 4, 8)


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
        """The points with their density constants, computed once per grid."""
        return FrequencyConstants(self.points)


def canonical_grid(T: int, oversample: int = 4, shifted: bool = False) -> FrequencyGrid:
    """Full-period grid with N = next power of two >= oversample * T."""
    if T < 1:
        raise ValueError("T must be positive")
    if oversample not in _OVERSAMPLE_CHOICES:
        raise ValueError(f"oversample must be one of {_OVERSAMPLE_CHOICES}")
    n = 1 << max(1, int(math.ceil(math.log2(oversample * T))))
    j = np.arange(n, dtype=float)
    offset = 0.5 if shifted else 1.0
    points = -math.pi + 2.0 * math.pi * (j + offset) / n
    points.setflags(write=False)
    return FrequencyGrid(points, 2.0 * math.pi / n, shifted=shifted, canonical=True, T=T)


def _values_of(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)


def tapered_dft(series, taper: Taper, grid) -> np.ndarray:
    """d(lambda_j) for all grid points (FFT path on canonical grids)."""
    x = _values_of(series)
    T = x.shape[0]
    h = taper.values(T)
    if isinstance(grid, FrequencyGrid) and grid.canonical:
        n = grid.N
        t = np.arange(1, T + 1)
        y = h * x * np.where(t % 2 == 0, 1.0, -1.0)
        if grid.shifted:
            y = y * np.exp(-1j * math.pi * t / n)
        a = np.zeros(n, dtype=y.dtype)
        if T < n:
            a[1:T + 1] = y
        else:
            a[1:T] = y[:-1]
            a[0] = y[-1]
        out = np.fft.fft(a)
        if not grid.shifted:
            out = np.roll(out, -1)
        return out
    lam = grid.points if isinstance(grid, FrequencyGrid) else np.atleast_1d(
        np.asarray(grid, dtype=float)
    )
    y = h * x
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
    """I(lambda) = |d(lambda)|^2 / (2 pi sum h^2) on the given or default grid."""
    x = _values_of(series)
    T = x.shape[0]
    if grid is None:
        grid = canonical_grid(T, oversample=oversample)
    h2_sum = float(np.sum(taper.values(T) ** 2))
    c_norm = 2.0 * math.pi * h2_sum
    d = tapered_dft(x, taper, grid)
    vals = (d.real**2 + d.imag**2) / c_norm
    vals.setflags(write=False)
    return Periodogram(vals, grid, taper.id, T, c_norm)
