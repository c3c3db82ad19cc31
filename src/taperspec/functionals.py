"""Linear spectral functionals J(f) = int f g and their tapered estimators.

Two estimation routes are kept deliberately distinct:

* the frequency route `plugin_estimate`, a weighted periodogram sum over a
  canonical grid, and
* the time route `quadratic_form`, Q = sum_{t,s} ghat(t-s) h_t h_s X_t X_s
  evaluated through lagged products.

For band-limited g and a canonical grid with N > T - 1 + deg(g) the two are
related by the exact identity  plugin * C_T = Q  (grid quadrature is exact
for trigonometric polynomials), which the test-suite checks to ~1e-8
relative and which guards both implementations at once.

The limiting variance of sqrt(T)(J_T - J) is

    sigma_h^2 = 4 pi e(h) int f^2 g^2 + kappa4 e(h) (int f g)^2,

with e(h) = H_4 / H_2^2 the tapering factor and kappa4 the fourth cumulant
of the innovation distribution.

`fejer_smoothing_error` returns the exact smoothing bias
Delta_T = E[int I g] - J, computed in the lag domain:

    E[int I g] = (1/C_T) sum_{|u|<T} r(u) ghat(u) c_h(u),

where c_h(u) = sum_t h(t/T) h((t+|u|)/T) and C_T = 2 pi sum_t h^2(t/T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from ._quad import cosine_coefficient, spectral_integral
from .errors import DomainError
from .models import Model, TimeSeries
from .spectrum import FrequencyGrid, Periodogram, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor


@dataclass(frozen=True)
class GeneratingFunction:
    """Even weight function g on [-pi, pi] paired with its Fourier transform.

    `fourier(u)` is ghat(u) = int e^{i u lam} g(lam) dlam (real and even in
    u).  `degree` is the trigonometric degree for band-limited g, or None.
    """

    kind: str
    eval: Callable
    fourier: Callable
    degree: int | None = None
    label: str = ""
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, lam):
        return self.eval(lam)

    def on_grid(self, grid: FrequencyGrid) -> np.ndarray:
        """g at the grid's points, folded onto its nodes (`FrequencyGrid.fold`),
        as floats (kept per canonical grid size)."""
        if not grid.canonical:
            return np.asarray(self.eval(grid.points), dtype=float)
        return self._keep(("grid", grid.N, grid.shifted),
                          lambda: grid.fold(np.asarray(self.eval(grid.points), dtype=float)))

    def coefficients(self, max_lag: int) -> np.ndarray:
        """ghat(u) for u = 0..max_lag (kept per max_lag)."""
        return self._keep(("fourier", max_lag), lambda: self.fourier(np.arange(max_lag + 1)))

    def _keep(self, key, make) -> np.ndarray:
        if key not in self._kept:
            self._kept[key] = np.array(np.atleast_1d(make()), dtype=float)
            self._kept[key].setflags(write=False)
        return self._kept[key]


def cosine(u: int) -> GeneratingFunction:
    """g(lam) = cos(u lam); ghat places mass pi at lags +-u (2 pi at 0 for u=0)."""
    u = int(u)
    if u < 0:
        raise ValueError("cosine order must be nonnegative")

    def _eval(lam):
        return np.cos(u * np.asarray(lam, dtype=float))

    def _fourier(t):
        t_arr = np.atleast_1d(np.asarray(t))
        if u == 0:
            out = np.where(t_arr == 0, 2.0 * math.pi, 0.0)
        else:
            out = np.where(np.abs(t_arr) == u, math.pi, 0.0)
        return out if np.ndim(t) else float(out[0])

    return GeneratingFunction("cosine", _eval, _fourier, degree=u, label=f"cosine({u})")


def indicator(mu: float) -> GeneratingFunction:
    """Even symmetrization of 1_[0, mu]: value 1/2 on (0, mu) and (-mu, 0).

    J(f) with this weight is the spectral distribution function
    F(mu) = int_0^mu f.  ghat(t) = sin(mu t)/t, ghat(0) = mu.
    """
    mu = float(mu)
    if not 0.0 < mu <= math.pi:
        raise ValueError("indicator endpoint must lie in (0, pi]")

    def _eval(lam):
        lam_arr = np.asarray(lam, dtype=float)
        inside = 0.5 * (np.abs(lam_arr) <= mu)
        at_zero = 0.5 * (lam_arr == 0.0)
        out = inside + at_zero
        return out if np.ndim(lam) else float(out)

    def _fourier(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(t_arr == 0.0, mu, np.sin(mu * t_arr) / t_arr)
        return out if np.ndim(t) else float(out[0])

    return GeneratingFunction("indicator", _eval, _fourier, degree=None,
                              label=f"indicator({mu!r})")


def custom(fn: Callable, fourier: Callable | None = None, degree: int | None = None,
           label: str = "custom") -> GeneratingFunction:
    """Wrap an even weight function; missing Fourier coefficients are
    computed by quadrature and cached per lag."""
    cache: dict[int, float] = {}

    def _eval(lam):
        return np.asarray(fn(np.asarray(lam, dtype=float)))

    if fourier is not None:
        four = fourier
    else:
        def four(t):
            t_arr = np.atleast_1d(np.asarray(t))
            out = np.empty(t_arr.size)
            for i, k in enumerate(t_arr):
                k = abs(int(k))
                if k not in cache:
                    cache[k] = cosine_coefficient(_eval, k)
                out[i] = cache[k]
            return out if np.ndim(t) else float(out[0])

    return GeneratingFunction("custom", _eval, four, degree=degree, label=label)


# ---------------------------------------------------------------------------
# population quantities

def true_functional(model: Model, g: GeneratingFunction) -> float:
    """J = int_{-pi}^{pi} f(lam) g(lam) dlam."""
    if g.degree is not None:
        lags = np.arange(g.degree + 1)
        r = np.atleast_1d(model.covariance(lags))
        ghat = np.atleast_1d(g.fourier(lags))
        return float((r[0] * ghat[0] + 2.0 * np.sum(r[1:] * ghat[1:])) / (2.0 * math.pi))
    if g.kind == "indicator":
        mu = float(g.fourier(0))
        val, _ = quad(lambda x: float(model.density(x)), 0.0, mu,
                      limit=400, epsabs=1e-11, epsrel=1e-11)
        return val
    return spectral_integral(lambda lam: model.density(lam) * np.asarray(g.eval(lam)),
                             exponent=model.origin_exponent if model.long_memory else None)


def asymptotic_variance(model: Model, g: GeneratingFunction, taper: Taper,
                        kappa4: float = 0.0) -> float:
    """Limit of T Var(J_T): 4 pi e(h) int f^2 g^2 + kappa4 e(h) (int f g)^2.

    A cosine or indicator g is 1 at the origin, where f ~ |lam|^beta
    (`Model.origin_exponent`), so int f^2 g^2 diverges when 2 beta <= -1:
    d >= 1/4, or H >= 3/4, raises DomainError.  A custom g is integrated as
    given, with exponent 2 beta while that is integrable and 0 otherwise;
    for 2 beta <= -1 only a g that vanishes at the origin gives a finite integral.
    """
    if g.kind in ("cosine", "indicator") and 2.0 * model.origin_exponent <= -1.0:
        raise DomainError(f"int f^2 g^2 diverges for {model.describe()} and {g.label}: "
                          f"f^2 ~ |lam|^{2.0 * model.origin_exponent:g} at the origin")
    e_h = tapering_factor(taper)
    if g.kind == "indicator":
        mu = float(g.fourier(0))
        part, _ = quad(lambda x: float(model.density(x)) ** 2, 0.0, mu,
                       limit=400, epsabs=1e-11, epsrel=1e-11)
        f2g2 = 0.5 * part
    else:
        beta2 = 2.0 * model.origin_exponent
        f2g2 = spectral_integral(
            lambda lam: (model.density(lam) * np.asarray(g.eval(lam))) ** 2,
            exponent=(beta2 if beta2 > -1.0 else 0.0) if model.long_memory else None,
            degree=None if g.degree is None else 2 * g.degree,
        )
    j = true_functional(model, g)
    return 4.0 * math.pi * e_h * f2g2 + kappa4 * e_h * j * j


# ---------------------------------------------------------------------------
# estimators

def plugin_estimate(pgram: Periodogram, g: GeneratingFunction) -> float:
    """J_T = sum_j I(lambda_j) g(lambda_j) w_j on the periodogram's grid, as
    a sum over its nodes with g folded (exact for any g, even or not)."""
    grid = pgram.grid
    return float(grid.sum(pgram.node_values, g.on_grid(grid)) * grid.weight)


def _lagged_products(y: np.ndarray, max_lag: int) -> np.ndarray:
    """c(u) = sum_t y_t y_{t+u} for u = 0..max_lag."""
    T = y.shape[0]
    max_lag = min(max_lag, T - 1)
    if max_lag <= 64:
        out = np.empty(max_lag + 1)
        for u in range(max_lag + 1):
            out[u] = float(np.dot(y[: T - u], y[u:]))
        return out
    n = 1 << int(math.ceil(math.log2(2 * T)))
    spec = np.fft.rfft(y, n)
    acf = np.fft.irfft(spec.real**2 + spec.imag**2, n)
    return acf[: max_lag + 1]


def quadratic_form(series, taper: Taper, g: GeneratingFunction) -> float:
    """Q = sum_{t,s} ghat(t-s) h(t/T) h(s/T) X_t X_s via lagged products."""
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float)
    T = x.shape[0]
    y = taper.values(T) * x
    max_lag = T - 1 if g.degree is None else min(g.degree, T - 1)
    c = _lagged_products(y, max_lag)
    ghat = g.coefficients(max_lag)
    return float(ghat[0] * c[0] + 2.0 * np.dot(ghat[1:], c[1:]))


def covariance_estimate(series, taper: Taper, u: int, oversample: int = 4) -> float:
    """r_hat(u): the plug-in estimate with cosine weight."""
    pg = tapered_periodogram(series, taper, oversample=oversample)
    return plugin_estimate(pg, cosine(u))


def spectral_function_estimate(series, taper: Taper, mu: float,
                               oversample: int = 4) -> float:
    """F_hat(mu) = int_0^mu I(lam) dlam by grid quadrature."""
    pg = tapered_periodogram(series, taper, oversample=oversample)
    return plugin_estimate(pg, indicator(mu))


# ---------------------------------------------------------------------------
# smoothing bias

def fejer_smoothing_error(model: Model, g: GeneratingFunction, taper: Taper,
                          T: int) -> float:
    """Delta_T = E[int I g dlam] - J, exactly, in the lag domain.

    For band-limited g only lags up to deg(g) contribute; otherwise all
    lags |u| < T enter through the taper autocorrelation c_h(u).
    """
    if T < 1:
        raise ValueError("T must be positive")
    h = taper.values(T)
    c_t = 2.0 * math.pi * float(np.sum(h * h))
    j = true_functional(model, g)
    top = T - 1 if g.degree is None else min(g.degree, T - 1)
    lags = np.arange(top + 1)
    r = np.atleast_1d(model.covariance(lags)).astype(float)
    ghat = np.atleast_1d(g.fourier(lags)).astype(float)
    c_h = _lagged_products(h, top)
    terms = r * ghat * c_h / c_t
    expected = terms[0] + 2.0 * float(np.sum(terms[1:]))
    return expected - j
