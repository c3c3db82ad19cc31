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
(Parseval): sum_j I_j w = sum_t h_t^2 X_t^2 / sum_t h_t^2.  On the
unshifted grid, symmetric about 0, the FFT input is real: a real FFT gives
bins 0..N/2 and Hermitian symmetry the rest, so I is exactly even (the
shifted grid's half-bin phase keeps the complex FFT).

The estimators (Whittle criterion, gof projections, plug-in) sum even
functions of I over the grid, so the unshifted grid folds those sums onto
its N/2 + 1 nodes lambda_j = 2 pi j / N in [0, pi] (`FrequencyGrid.nodes`)
with fold weights (1, 2, ..., 2, 1): the points +-lambda carry equal
terms, and 0 and pi appear once.  The
periodogram keeps only its values on the nodes, the real FFT's half, and
mirrors them onto all N points only when a caller reads `values`.  A
weight that need not be even folds as w(lambda) + w(-lambda)
(`FrequencyGrid.fold`), so a weighted sum is unchanged.  The shifted grid
is symmetric too, but its sums are the long-memory path: the benchmark
holds its results to 1e-6 relative of recorded ones, finer than the
Whittle search resolves, so even a round-off change in the criterion can
fail that gate.  It keeps all N points at weight 1 and its sums their
bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import FrequencyConstants, TimeSeries, _frozen
from .taper import Taper, phase_sum

OVERSAMPLE_CHOICES = (1, 2, 4, 8)


@dataclass(frozen=True)
class FrequencyGrid:
    """Evaluation frequencies plus their quadrature weight.

    Even functions are evaluated on `nodes` only and summed over all N
    points by `sum` (see the module docstring).
    """

    points: np.ndarray
    weight: float
    shifted: bool = False
    canonical: bool = False
    T: int | None = None

    @property
    def N(self) -> int:
        return int(self.points.shape[0])

    @property
    def folded(self) -> bool:
        """True on the unshifted canonical grid, whose sums run over [0, pi]."""
        return self.canonical and not self.shifted

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The points in [0, pi] of a folded grid (the last N/2 + 1), else every point."""
        return self.points[self.N // 2 - 1:] if self.folded else self.points

    @functools.cached_property
    def fold_weights(self) -> np.ndarray | None:
        """(1, 2, ..., 2, 1) on the nodes of a folded grid, None (all ones) otherwise."""
        return _frozen(self.fold(np.ones(self.N))) if self.folded else None

    def fold(self, w: np.ndarray) -> np.ndarray:
        """Node weights w(lam) + w(-lam) of a weight w given on all N points
        (w alone at 0 and pi, each a single point); w itself unless folded."""
        if not self.folded:
            return w
        h = self.N // 2 - 1  # index of lam = 0
        out = np.array(w[h:], dtype=float)
        out[1:-1] += w[:h][::-1]
        return out

    def sum(self, terms: np.ndarray, weights: np.ndarray | None = None):
        """The sum over all N points of an even function given on the nodes,
        each term times its node weight from `fold` (unit weight when None)."""
        if weights is not None:
            return np.sum(terms * weights)
        if not self.folded:
            return np.sum(terms)
        return 2.0 * np.sum(terms) - terms[0] - terms[-1]

    @functools.cached_property
    def constants(self) -> FrequencyConstants:
        """The nodes with their density constants, computed once per grid
        (so once per process for a memoized `canonical_grid`)."""
        return FrequencyConstants(self.nodes)

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
    """`tapered_dft` on a canonical grid in FFT order, bins 0..N/2 only if unshifted."""
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
    return np.fft.fft(a) if grid.shifted else np.fft.rfft(a)


def _unfold(half: np.ndarray) -> np.ndarray:
    """Unshifted grid order of FFT bins 0..N/2 of a real input (bin N - k = conj bin k);
    real bins (a periodogram's) are mirrored as they are."""
    tail = half[-2:0:-1]
    return np.concatenate((half[1:], np.conj(tail) if np.iscomplexobj(half) else tail, half[:1]))


def tapered_dft(series, taper: Taper, grid) -> np.ndarray:
    """d(lambda_j) for all grid points (FFT path on canonical grids; exactly
    Hermitian, d(-lambda) = conj d(lambda), on an unshifted one)."""
    x = _values_of(series)
    if isinstance(grid, FrequencyGrid) and grid.canonical:
        out = _canonical_fft(x, taper, grid)
        return out if grid.shifted else _unfold(out)
    lam = grid.points if isinstance(grid, FrequencyGrid) else np.atleast_1d(
        np.asarray(grid, dtype=float)
    )
    return phase_sum(taper.values(x.shape[0]) * x, lam)


@dataclass(frozen=True)
class Periodogram:
    """Tapered periodogram sampled on a frequency grid: `node_values` on
    `grid.nodes`, mirrored onto every grid point in `values` on first read."""

    node_values: np.ndarray
    grid: FrequencyGrid
    taper_id: str
    T: int
    c_norm: float

    @functools.cached_property
    def values(self) -> np.ndarray:
        if not self.grid.folded:
            return self.node_values
        return _frozen(_unfold(self.node_values[::-1]))


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
    if grid.folded:
        d = d[::-1]  # real-FFT bins N/2..0 sit at the nodes 0..pi (see _unfold)
    vals = (d.real**2 + d.imag**2) / c_norm
    return Periodogram(_frozen(vals), grid, taper.id, T, c_norm)
