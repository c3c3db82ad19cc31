"""Stationary process models: densities, scores, covariances, simulators.

Families
--------
white_noise   f = sigma2 / 2pi
ar1           f = (sigma2/2pi) |1 - theta e^{-i lam}|^{-2}
arma          f = (sigma2/2pi) |b(e^{-i lam})|^2 / |a(e^{-i lam})|^2
arfima0d0     f = (2 sin(|lam|/2))^{-2d}          (no 2pi factor; see below)
arfima_pdq    f = (sigma2/2pi) |1-e^{-i lam}|^{-2d} |b|^2 / |a|^2
fgn           f = c(H) |1-e^{-i lam}|^2 sum_k |lam + 2pi k|^{-(2H+1)}

The pure fractional family is normalized so its density is exactly
(2 sin(lam/2))^{-2d}; its simulator therefore scales unit-variance
innovations by sqrt(2pi).  The mixed arfima_pdq family instead follows the
rational convention with sigma2/2pi included; its covariance
r(u) = (sigma2/2pi) sum_m c(m) r_d(u - m) convolves the unit-variance arma
and the arfima0d0 ones (Hosking 1981), and no covariance is cached.  fGn is
normalized to unit variance (integral of f equals r(0) = 1); its density sums
every alias in closed form with Hurwitz zeta functions (Beran 1994, 2.3).

All spectral densities are even functions on [-pi, pi].  Scores are
gradients of log f with respect to the family's parameter vector, in the
order given by `param_names`.

Simulation is driven by an innovation distribution with unit variance
(`NoiseDriver`): gaussian, centered_exponential (Exp(1) - 1, kappa4 = 6),
or laplace (scale 1/sqrt(2), kappa4 = 3).  Randomness comes from
counter-based Philox streams; use `derive_seed(master, rep)` to key one
stream per Monte Carlo replication.

The two ARFIMA families simulate by FFT convolution with the K + 1 MA
weights of (1-B)^{-d}, truncated at K = 2^20.  A path of L values draws
into one zeroed buffer of n >= L + 2K points (about 17 MB at the cap) and
drops it after its real FFT.  Two bounded caches keep what every path of
a study reuses: K and its tail fraction per d (no array, at most 8 values
of d) and the weights' real FFT per (d, n) (n // 2 + 1 complex values,
about 17 MB at the cap, at most 2 entries, read-only).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.fft
from scipy.signal import lfilter
from scipy.special import zeta

from .errors import DomainError, SchemaError

# ---------------------------------------------------------------------------
# randomness

def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def derive_seed(master_seed: int, rep: int) -> int:
    """Stable 64-bit sub-seed for replication `rep` of a master seed."""
    ss = np.random.SeedSequence((int(master_seed), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# innovation drivers

@dataclass(frozen=True)
class NoiseDriver:
    """Unit-variance innovation distribution with known fourth cumulant.

    `fill(rng, out)` writes out.size draws into a contiguous float array, the
    values `sample(rng, out.size)` returns, bit for bit.
    """

    name: str
    kappa4: float
    fill: Callable[[np.random.Generator, np.ndarray], None]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        self.fill(rng, out)
        return out


def gaussian() -> NoiseDriver:
    return NoiseDriver("gaussian", 0.0, lambda rng, out: rng.standard_normal(out=out))


def centered_exponential() -> NoiseDriver:
    return NoiseDriver(
        "centered_exponential", 6.0,
        lambda rng, out: np.subtract(rng.standard_exponential(out=out), 1.0, out=out),
    )


def laplace() -> NoiseDriver:
    scale = 1.0 / math.sqrt(2.0)
    # Generator.laplace takes no out=: its draws are copied in
    return NoiseDriver(
        "laplace", 3.0, lambda rng, out: np.copyto(out, rng.laplace(0.0, scale, out.size))
    )


_DRIVERS = {
    "gaussian": gaussian,
    "centered_exponential": centered_exponential,
    "laplace": laplace,
}


def get_driver(name: str) -> NoiseDriver:
    try:
        return _DRIVERS[name]()
    except KeyError:
        raise SchemaError(
            f"unknown driver {name!r}; expected one of {sorted(_DRIVERS)}"
        ) from None


# ---------------------------------------------------------------------------
# sample container

@dataclass
class TimeSeries:
    """Simulated sample path plus a provenance record."""

    values: np.ndarray
    provenance: dict

    @property
    def T(self) -> int:
        return int(self.values.shape[0])


# ---------------------------------------------------------------------------
# model base

class Model:
    """Common interface for all families.

    Subclasses set `family`, `param_names`, `free_names` (parameters a
    fitter optimizes), `scale_name` (the multiplicative variance parameter
    profiled out in closed form, or None) and `fractional` (the family has
    a memory parameter, d or H, so a fit searches long-memory points; every
    statistic of a fractional model, the periodogram kind's, a Whittle fit
    and a gof projection, takes the grid shifted off the origin, even at a
    point without memory).  A fractional instance sets
    `origin_exponent` beta, with f(lam) ~ |lam|^beta at the origin: -2d
    for the ARFIMA families, 1 - 2H for fGn and 0 for every other family.
    It has `long_memory` when beta != 0, a pole or a zero at the origin.
    """

    family: str = ""
    param_names: tuple = ()
    free_names: tuple = ()
    scale_name: str | None = None
    fractional: bool = False
    origin_exponent: float = 0.0

    @property
    def long_memory(self) -> bool:
        return self.origin_exponent != 0.0

    @property
    def fitted_names(self) -> tuple:
        """The parameters a fit reports: the free ones, else the scale."""
        return self.free_names or (self.scale_name,)

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.param_names}

    def density(self, lam) -> np.ndarray:
        """f at an array of frequencies or a FrequencyConstants value."""
        raise NotImplementedError

    def score(self, lam) -> np.ndarray:
        """d log f / d theta, shape (p, len(lam))."""
        raise NotImplementedError

    def covariance(self, u):
        """r(u) = int e^{i u lam} f(lam) dlam (real, even in u)."""
        raise NotImplementedError

    def simulate(self, driver: NoiseDriver, T: int, seed: int) -> TimeSeries:
        raise NotImplementedError

    def check_driver(self, driver: NoiseDriver) -> None:
        """Raise DomainError if `simulate` cannot draw from `driver`."""

    def with_params(self, **updates) -> "Model":
        merged = self.params()
        merged.update(updates)
        return type(self)(**merged)

    def free_vector(self) -> np.ndarray:
        return np.array([_flatten_one(getattr(self, n)) for n in self.free_names],
                        dtype=float)

    def with_free(self, vec: Sequence[float]) -> "Model":
        return self.with_params(**dict(zip(self.free_names, vec)))

    def describe(self) -> str:
        parts = []
        for name in self.param_names:
            val = getattr(self, name)
            if isinstance(val, tuple):
                parts.append(f"{name}=[{','.join(repr(float(v)) for v in val)}]")
            else:
                parts.append(f"{name}={float(val)!r}")
        return f"{self.family}{{{','.join(parts)}}}"

    def __repr__(self) -> str:
        return self.describe()

    def _base_provenance(self, driver, T, seed) -> dict:
        return {
            "model": self.describe(),
            "driver": driver.name,
            "T": int(T),
            "seed": int(seed),
        }


def _flatten_one(v):
    if isinstance(v, tuple):
        raise ValueError("vector parameter cannot be a scalar free slot")
    return float(v)


def _as_lam(lam) -> np.ndarray:
    return np.atleast_1d(np.asarray(lam, dtype=float))


def _maybe_scalar(out, lam):
    if np.ndim(lam) == 0:
        return float(out[0])
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class FrequencyConstants:
    """Frequencies lam with the trigonometric constants the densities share.

    cos(lam), e^{-i lam}, 2 sin(|lam|/2) with its square, (2 cos(lam/2))^2
    and, per j, e^{i j lam} (the table `exp_ij`) are computed on first use
    and then kept, read-only.  Every family's `density` and the `TestBasis`
    projections and values read them through this value and wrap a plain
    array in a fresh one, so the many evaluations on one grid
    (`FrequencyGrid.constants`) compute them once.  numpy reads the value
    as its frequency array.
    """

    def __init__(self, lam):
        self.lam = _as_lam(lam)
        self._exp_ij = {}

    def exp_ij(self, j: int) -> np.ndarray:
        """e^{i j lam}, computed once per j."""
        if j not in self._exp_ij:
            self._exp_ij[j] = _frozen(np.exp(1j * j * self.lam))
        return self._exp_ij[j]

    def __array__(self, dtype=None, copy=None):
        lam = self.lam if dtype is None else self.lam.astype(dtype, copy=False)
        return lam.copy() if copy else lam

    @functools.cached_property
    def cos(self) -> np.ndarray:
        return _frozen(np.cos(self.lam))

    @functools.cached_property
    def z(self) -> np.ndarray:
        """e^{-i lam}."""
        return _frozen(np.exp(-1j * self.lam))

    @functools.cached_property
    def two_sin_half(self) -> np.ndarray:
        """2 sin(|lam|/2) = |1 - e^{-i lam}|."""
        return _frozen(2.0 * np.sin(np.abs(self.lam) / 2.0))

    @functools.cached_property
    def two_sin_half_sq(self) -> np.ndarray:
        """(2 sin(|lam|/2))^2 = |1 - e^{-i lam}|^2."""
        # not through two_sin_half, which the short-memory densities never keep
        return _frozen((2.0 * np.sin(np.abs(self.lam) / 2.0)) ** 2)

    @functools.cached_property
    def two_cos_half_sq(self) -> np.ndarray:
        """(2 cos(lam/2))^2 = |1 + e^{-i lam}|^2."""
        return _frozen((2.0 * np.cos(self.lam / 2.0)) ** 2)


def _constants(lam) -> FrequencyConstants:
    return lam if isinstance(lam, FrequencyConstants) else FrequencyConstants(lam)


def _scale(family: str, sigma2) -> float:
    """sigma2 as a float; DomainError unless 0 < sigma2 < inf (NaN included)."""
    if not 0.0 < sigma2 < math.inf:
        raise DomainError(f"{family} requires 0 < sigma2 < inf")
    return float(sigma2)


# ---------------------------------------------------------------------------
# white noise

class WhiteNoise(Model):
    family = "white_noise"
    param_names = ("sigma2",)
    free_names = ()
    scale_name = "sigma2"

    def __init__(self, sigma2: float = 1.0):
        self.sigma2 = _scale(self.family, sigma2)

    def density(self, lam):
        out = np.full(_constants(lam).lam.shape, self.sigma2 / (2.0 * math.pi))
        return _maybe_scalar(out, lam)

    def score(self, lam):
        lam_arr = _as_lam(lam)
        return np.full((1, lam_arr.size), 1.0 / self.sigma2)

    def covariance(self, u):
        u_arr = np.atleast_1d(np.asarray(u))
        out = np.where(u_arr == 0, self.sigma2, 0.0).astype(float)
        return _maybe_scalar(out, u)

    def simulate(self, driver, T, seed):
        rng = make_rng(seed)
        x = math.sqrt(self.sigma2) * driver.sample(rng, T)
        return TimeSeries(x, self._base_provenance(driver, T, seed))


# ---------------------------------------------------------------------------
# ARMA machinery shared by ar1 / arma / arfima_pdq

def _coefficients(v) -> tuple:
    """ARMA coefficients, a sequence or one number, as a tuple of floats."""
    return tuple(map(float, v if isinstance(v, tuple) else np.atleast_1d(np.asarray(v, dtype=float))))


def _poly_on_circle(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1 + c1 z + ... + cp z^p at z = e^{-i lam}, by Horner's rule: np.polyval's
    bits without its pass over zeros (its first step, 0 z + cp, gives cp)."""
    *rest, top = coeffs.tolist()
    if not rest:
        return np.full_like(z, top)
    out = top * z
    out += rest.pop()
    for c in reversed(rest):
        out *= z
        out += c
    return out


def _arma_score_rows(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> list:
    """d log f / d phi_j and d log f / d theta_j of |b|^2/|a|^2 at z = e^{-i lam}."""
    rows = []
    for coeffs in (a, b):
        val = _poly_on_circle(coeffs, z)
        zp = np.ones_like(z)
        for _ in range(coeffs.size - 1):
            zp = zp * z
            rows.append(2.0 * np.real(zp * np.conj(val)) / np.abs(val) ** 2)
    return rows


def _spectral_radius(poly: np.ndarray) -> float:
    """Largest inverse-root modulus of 1 + c1 z + ... + cp z^p."""
    if poly.size <= 1:
        return 0.0
    roots = np.roots(poly[::-1])
    if roots.size == 0:
        return 0.0
    return float(np.max(1.0 / np.abs(roots)))


def _roots_outside_unit_circle(poly: np.ndarray) -> bool:
    """Whether every root of 1 + c1 z + ... + cp z^p has modulus > 1.

    Schur-Cohn step-down recursion, without root finding: the property
    holds iff the reflection coefficient k = c_p has |k| < 1 and the
    polynomial with coefficients (c_i - k c_{p-i}) / (1 - k^2),
    i = 1..p-1, has it as well.  Non-finite coefficients fail.
    """
    c = [float(v) for v in poly[1:]]
    while c:
        k = c[-1]
        if not abs(k) < 1.0:
            return False
        c = [(c[i] - k * c[-2 - i]) / (1.0 - k * k) for i in range(len(c) - 1)]
    return True


def _check_arma(phi: tuple, theta: tuple):
    a, b = [1.0] + [-v for v in phi], [1.0, *theta]
    if not _roots_outside_unit_circle(a):
        raise DomainError("autoregressive polynomial has a root on or inside the unit circle")
    if not _roots_outside_unit_circle(b):
        raise DomainError("moving-average polynomial is not invertible")
    return np.array(a), np.array(b)


def _rational_density(top, a: np.ndarray, b: np.ndarray, c: FrequencyConstants):
    """top |b|^2 / (2 pi |a|^2) at z = e^{-i lam}, lam from the constants c.

    A polynomial of order 0 is identically 1; multiplying or dividing by 1
    is exact, so that factor is skipped.
    """
    if b.size > 1:
        top = top * np.abs(_poly_on_circle(b, c.z)) ** 2
    if a.size == 1:
        return top / (2.0 * math.pi)
    return top / (2.0 * math.pi * np.abs(_poly_on_circle(a, c.z)) ** 2)


def _burn_in(rho: float) -> int:
    if rho <= 0.0:
        return 500
    return max(500, int(math.ceil(50.0 / (1.0 - rho))))


def _arma_acov(a: np.ndarray, b: np.ndarray, rho: float, tol: float = 1e-16) -> np.ndarray:
    """Autocovariance c(0..L-1) of b/a under unit-variance noise (0 past L - 1), from
    the MA(infinity) weights psi, truncated once their geometric tail is below tol."""
    psi = b
    if a.size > 1:
        L = b.size
        if rho > 0:
            L = max(b.size, int(math.ceil(math.log(tol) / math.log(rho))) + a.size)
        psi = lfilter(b, a, np.eye(1, L)[0])
    return np.correlate(psi, psi, mode="full")[psi.size - 1:]


class AR1(Model):
    family = "ar1"
    param_names = ("theta", "sigma2")
    free_names = ("theta",)
    scale_name = "sigma2"

    def __init__(self, theta: float, sigma2: float = 1.0):
        if not -1.0 < theta < 1.0:
            raise DomainError("ar1 requires |theta| < 1")
        self.theta = float(theta)
        self.sigma2 = _scale(self.family, sigma2)

    def _denom(self, c: FrequencyConstants) -> np.ndarray:
        """|1 - theta e^{-i lam}|^2 as a sum of two nonnegative terms, so it
        does not cancel near lam = 0 as theta -> 1 nor near pi as theta -> -1."""
        if self.theta < 0.0:
            return (1.0 + self.theta) ** 2 - self.theta * c.two_cos_half_sq
        return (1.0 - self.theta) ** 2 + self.theta * c.two_sin_half_sq

    def density(self, lam):
        return _maybe_scalar(self.sigma2 / (2.0 * math.pi * self._denom(_constants(lam))), lam)

    def score(self, lam):
        c = _constants(lam)
        out = np.empty((2, c.lam.size))
        out[0] = 2.0 * (c.cos - self.theta) / self._denom(c)
        out[1] = 1.0 / self.sigma2
        return out

    def covariance(self, u):
        u_arr = np.abs(np.atleast_1d(np.asarray(u)).astype(float))
        out = self.sigma2 * self.theta**u_arr / (1.0 - self.theta**2)
        return _maybe_scalar(out, u)

    def simulate(self, driver, T, seed):
        rng = make_rng(seed)
        burn = _burn_in(abs(self.theta))
        e = math.sqrt(self.sigma2) * driver.sample(rng, T + burn)
        x = lfilter([1.0], [1.0, -self.theta], e)[burn:]
        prov = self._base_provenance(driver, T, seed)
        prov["burn_in"] = burn
        return TimeSeries(x, prov)


class ARMA(Model):
    """ARMA(p, q); a subclass puts its own free parameters, `lead_names`,
    before the coefficients and takes them first in its constructor."""

    family = "arma"
    param_names = ("phi", "theta", "sigma2")
    scale_name = "sigma2"
    lead_names: tuple = ()

    def __init__(self, phi=(), theta=(), sigma2: float = 1.0):
        phi, theta = _coefficients(phi), _coefficients(theta)
        self.sigma2 = _scale(self.family, sigma2)
        self._a, self._b = _check_arma(phi, theta)
        self.phi = phi
        self.theta = theta
        self.free_names = self.lead_names + tuple(f"phi{i+1}" for i in range(len(phi))) + tuple(
            f"theta{i+1}" for i in range(len(theta))
        )

    def free_vector(self):
        lead = tuple(getattr(self, name) for name in self.lead_names)
        return np.array(lead + self.phi + self.theta, dtype=float)

    def with_free(self, vec):
        vec = np.asarray(vec, dtype=float).tolist()
        k = len(self.lead_names)
        p = k + len(self.phi)
        return type(self)(*vec[:k], phi=tuple(vec[k:p]), theta=tuple(vec[p:]),
                          sigma2=self.sigma2)

    @functools.cached_property
    def _rho(self) -> float:
        """AR spectral radius, for the burn-in and the MA(infinity) length."""
        return _spectral_radius(self._a)

    def density(self, lam):
        c = _constants(lam)
        out = _rational_density(self.sigma2, self._a, self._b, c)
        if np.ndim(out) == 0:  # white noise written as arma{}
            out = np.full(c.lam.shape, out)
        return _maybe_scalar(out, lam)

    def score(self, lam):
        c = _constants(lam)
        rows = _arma_score_rows(self._a, self._b, c.z)
        rows.append(np.full(c.lam.size, 1.0 / self.sigma2))
        return np.vstack(rows)

    def covariance(self, u):
        acov = _arma_acov(self._a, self._b, self._rho)
        u_arr = np.abs(np.atleast_1d(np.asarray(u)).astype(int))
        out = np.where(u_arr < acov.size, self.sigma2 * acov[np.minimum(u_arr, acov.size - 1)], 0.0)
        return _maybe_scalar(out, u)

    def simulate(self, driver, T, seed):
        rng = make_rng(seed)
        burn = _burn_in(self._rho)
        e = math.sqrt(self.sigma2) * driver.sample(rng, T + burn)
        x = lfilter(self._b, self._a, e)[burn:]
        prov = self._base_provenance(driver, T, seed)
        prov["burn_in"] = burn
        return TimeSeries(x, prov)


def ar_polynomial(model: Model) -> tuple | None:
    """(1, -phi_1, ..., -phi_p) of an `ar1`, or an `arma` without theta; else
    None.  A subclass may change the density (`arfima_pdq`), so types match exactly."""
    if type(model) is AR1:
        return (1.0, -model.theta)
    if type(model) is ARMA and not model.theta:
        return (1.0, *(-v for v in model.phi))
    return None


# ---------------------------------------------------------------------------
# fractional integration

_PSI_CAP = 1 << 20


def _frac_weights(d: float, out: np.ndarray | None = None,
                  tol: float = 1e-8) -> tuple[int, float]:
    """Truncation K of the MA weights of (1-B)^{-d} with relative tail energy
    below tol, and the tail fraction achieved; psi_0..psi_K go into out[:K + 1]
    when out is given.

    psi_k = psi_{k-1} (k-1+d)/k, in blocks of 2^14.  The tail energy past K
    behaves like psi_K^2 K / (1 - 2d); K grows like tol^{1/(1-2d)} and is
    capped at 2^20, with the achieved tail fraction reported so callers can
    record it.
    """
    total = 1.0
    k0 = 1
    last = 1.0
    tail_frac = 1.0
    if out is not None:
        out[0] = 1.0
    while k0 <= _PSI_CAP:
        size = min(1 << 14, _PSI_CAP - k0 + 1)
        k = np.arange(k0, k0 + size, dtype=float)
        ratios = (k - 1.0 + d) / k
        block = last * np.cumprod(ratios)
        if out is not None:
            out[k0:k0 + size] = block
        last = block[-1]
        total += float(np.sum(block**2))
        k_end = k0 + size - 1
        tail = last**2 * k_end / max(1.0 - 2.0 * d, 1e-12)
        tail_frac = tail / total
        if tail_frac < tol:
            break
        k0 += size
    return k_end, float(tail_frac)


@functools.lru_cache(maxsize=8)
def _frac_psi(d: float) -> tuple[int, float]:
    """`_frac_weights(d)`, the truncation K and its tail fraction, per d."""
    return _frac_weights(d)


@functools.lru_cache(maxsize=2)
def _frac_spectrum(d: float, n: int) -> np.ndarray:
    """Real FFT of the K + 1 weights of (1-B)^{-d} zero-padded to n points.

    Every path of a study filters with the same weights at the same n, so
    the transform is kept (size and bound in the module docstring).
    Write-protected.
    """
    buf = np.zeros(n)
    _frac_weights(d, buf)
    spec = scipy.fft.rfft(buf)
    spec.setflags(write=False)
    return spec


def _frac_r0(d: float) -> float:
    return 2.0 * math.pi * math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2


def _frac_noise(model: Model, driver: NoiseDriver, L: int, T: int, seed: int) -> tuple:
    """L values of (1-B)^{-d} applied to unit-variance draws, d = model.d, and the
    provenance of a path of length T with the MA truncation K and its tail fraction.

    K + L draws xi are taken, the first K only feeding the filter.  The values
    are scipy.signal.fftconvolve(xi, psi)[K:K + L] for the K + 1 weights psi,
    bit for bit: the draws fill a zeroed buffer of n = next_fast_len(L + 2K, True)
    points, whose real FFT is multiplied in place by `_frac_spectrum(d, n)` and
    inverted.  Each array of n points is dropped once used; only the L values
    are kept.
    """
    K, tail_frac = _frac_psi(model.d)
    n = scipy.fft.next_fast_len(L + 2 * K, True)
    weights = _frac_spectrum(model.d, n)  # before the path's buffer: a first build never overlaps it
    buf = np.zeros(n)
    driver.fill(make_rng(seed), buf[:L + K])
    spec = scipy.fft.rfft(buf)
    del buf
    spec *= weights
    frac = scipy.fft.irfft(spec, n, overwrite_x=True)[K:K + L].copy()
    prov = model._base_provenance(driver, T, seed)
    prov["ma_truncation"] = K
    prov["ma_tail_fraction"] = tail_frac
    return frac, prov


class ARFIMA0d0(Model):
    family = "arfima0d0"
    param_names = ("d",)
    free_names = ("d",)
    scale_name = None
    fractional = True

    def __init__(self, d: float):
        if not -0.5 < d < 0.5:
            raise DomainError("arfima0d0 requires -1/2 < d < 1/2")
        self.d = float(d)
        self.origin_exponent = -2.0 * self.d

    def density(self, lam):
        with np.errstate(divide="ignore"):
            out = _constants(lam).two_sin_half ** (-2.0 * self.d)
        return _maybe_scalar(out, lam)

    def score(self, lam):
        with np.errstate(divide="ignore"):
            return -2.0 * np.log(_constants(lam).two_sin_half)[None, :]

    def covariance(self, u):
        u_arr = np.abs(np.atleast_1d(np.asarray(u)).astype(int))
        top = int(u_arr.max()) if u_arr.size else 0
        r = np.empty(top + 1)
        r[0] = _frac_r0(self.d)
        for k in range(1, top + 1):
            r[k] = r[k - 1] * (k - 1.0 + self.d) / (k - self.d)
        return _maybe_scalar(r[u_arr], u)

    def simulate(self, driver, T, seed):
        frac, prov = _frac_noise(self, driver, T, T, seed)
        return TimeSeries(math.sqrt(2.0 * math.pi) * frac, prov)


class ArfimaPDQ(ARMA):
    """The ARMA filter b/a applied to fractional noise (Hosking 1981)."""

    family = "arfima_pdq"
    param_names = ("d", "phi", "theta", "sigma2")
    lead_names = ("d",)
    fractional = True

    def __init__(self, d: float, phi=(), theta=(), sigma2: float = 1.0):
        if not -0.5 < d < 0.5:
            raise DomainError("arfima_pdq requires -1/2 < d < 1/2")
        self.d = float(d)
        self.origin_exponent = -2.0 * self.d
        super().__init__(phi, theta, sigma2)

    def density(self, lam):
        c = _constants(lam)
        with np.errstate(divide="ignore"):
            frac = c.two_sin_half ** (-2.0 * self.d)
        return _maybe_scalar(_rational_density(self.sigma2 * frac, self._a, self._b, c), lam)

    def score(self, lam):
        c = _constants(lam)
        with np.errstate(divide="ignore"):
            d_row = -2.0 * np.log(c.two_sin_half)
        rows = [d_row, *_arma_score_rows(self._a, self._b, c.z),
                np.full(c.lam.size, 1.0 / self.sigma2)]
        return np.vstack(rows)

    def covariance(self, u):
        """(sigma2/2pi) sum_{|m| < L} c(m) r_d(u - m), every lag in one convolution."""
        u_arr = np.abs(np.atleast_1d(np.asarray(u)).astype(int))
        c = _arma_acov(self._a, self._b, self._rho)
        r = ARFIMA0d0(self.d).covariance(np.arange(u_arr.max(initial=0) + c.size))
        # r_d at lags 1-L..top+L-1, c at 1-L..L-1 (L = c.size): "valid" gives u = 0..top
        out = np.convolve(np.r_[r[c.size - 1:0:-1], r], np.r_[c[:0:-1], c], mode="valid")
        return _maybe_scalar(self.sigma2 / (2.0 * math.pi) * out[u_arr], u)

    def simulate(self, driver, T, seed):
        burn = _burn_in(self._rho)
        frac, prov = _frac_noise(self, driver, T + burn, T, seed)
        x = lfilter(self._b, self._a, math.sqrt(self.sigma2) * frac)[burn:]
        prov["burn_in"] = burn
        return TimeSeries(x, prov)


# ---------------------------------------------------------------------------
# fractional Gaussian noise


class FGN(Model):
    family = "fgn"
    param_names = ("H",)
    free_names = ("H",)
    scale_name = None
    fractional = True

    def __init__(self, H: float):
        if not 0.0 < H < 1.0:
            raise DomainError("fgn requires 0 < H < 1")
        self.H = float(H)
        self.origin_exponent = 1.0 - 2.0 * self.H

    def _bracket(self, c: FrequencyConstants) -> np.ndarray:
        """|1-e^{-i lam}|^2 sum_k |lam+2pi k|^{-s}, s = 2H+1: with x = |lam|/2pi
        the sum is (2pi)^{-s} [zeta(s, x) + zeta(s, 1-x)] (Hurwitz zeta).

        At lam = 0 the k = 0 term makes this 0 * inf; its limit there,
        lam^{1-2H}, is +inf for H > 1/2, 0 for H < 1/2 and 1 at H = 1/2.
        """
        s, x = 2.0 * self.H + 1.0, np.abs(c.lam) / (2.0 * math.pi)
        out = np.full(x.shape, math.inf if self.H > 0.5 else float(self.H == 0.5))
        off = x != 0.0
        out[off] = (c.two_sin_half[off] ** 2 * (2.0 * math.pi) ** -s
                    * (zeta(s, x[off]) + zeta(s, 1.0 - x[off])))
        return out

    def _norm(self) -> float:
        """c(H) = sin(pi H) Gamma(2H+1) / (2 pi), which makes r(0) = 1."""
        return math.sin(math.pi * self.H) * math.gamma(2.0 * self.H + 1.0) / (2.0 * math.pi)

    def density(self, lam):
        out = self._norm() * self._bracket(_constants(lam))
        return _maybe_scalar(out, lam)

    def score(self, lam):
        lam_arr = _as_lam(lam)
        dh = 1e-5
        lo = FGN(self.H - dh)
        hi = FGN(self.H + dh)
        with np.errstate(divide="ignore"):
            row = (np.log(hi.density(lam_arr)) - np.log(lo.density(lam_arr))) / (2.0 * dh)
        return row[None, :]

    def covariance(self, u):
        u_arr = np.abs(np.atleast_1d(np.asarray(u)).astype(float))
        h2 = 2.0 * self.H
        out = 0.5 * ((u_arr + 1.0) ** h2 - 2.0 * u_arr**h2 + np.abs(u_arr - 1.0) ** h2)
        return _maybe_scalar(out, u)

    def check_driver(self, driver):
        if driver.name != "gaussian":
            raise DomainError("fgn simulation is defined for the gaussian driver only")

    def simulate(self, driver, T, seed):
        self.check_driver(driver)
        rng = make_rng(seed)
        prov = self._base_provenance(driver, T, seed)
        if T == 1:
            return TimeSeries(rng.standard_normal(1), prov)
        r = np.asarray(self.covariance(np.arange(T)), dtype=float)
        circ = np.concatenate([r, r[-2:0:-1]])
        # the complex transform: the real-input one rounds differently
        eig = scipy.fft.fft(circ.astype(complex)).real
        neg = eig < 0.0
        prov["clipped_eigenvalues"] = int(np.sum(neg))
        prov["clipped_mass"] = float(-np.sum(eig[neg]))
        eig = np.clip(eig, 0.0, None)
        m = circ.size
        u_norm = rng.standard_normal(m)
        v_norm = rng.standard_normal(m)
        z = np.sqrt(eig / m) * (u_norm + 1j * v_norm)
        x = scipy.fft.fft(z).real[:T]
        return TimeSeries(x, prov)


# ---------------------------------------------------------------------------
# model grammar

_MODEL_RE = re.compile(r"^\s*([A-Za-z0-9_]+)\s*(?:\{(.*)\}\s*)?$", re.S)


def _split_args(body: str) -> list[str]:
    parts = []
    depth = 0
    token = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(token))
            token = []
        else:
            token.append(ch)
    if token or parts:
        parts.append("".join(token))
    return [p for p in (s.strip() for s in parts) if p]


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise SchemaError(f"unterminated list in model parameter: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(float(v) for v in inner.split(","))
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"cannot parse model parameter value {text!r}") from None


_FAMILIES: dict[str, type] = {
    "white_noise": WhiteNoise,
    "ar1": AR1,
    "arma": ARMA,
    "arfima0d0": ARFIMA0d0,
    "arfima_pdq": ArfimaPDQ,
    "fgn": FGN,
}


def parse_model(text: str) -> Model:
    """Build a model from grammar like ``ar1{theta=0.5,sigma2=1}``.

    ``arfima{d=0.3}`` is accepted as an alias: it resolves to the pure
    fractional family when only ``d`` is given and to the mixed family
    when ARMA parameters appear.
    """
    match = _MODEL_RE.match(text)
    if not match:
        raise SchemaError(f"cannot parse model specification {text!r}")
    name, body = match.group(1), match.group(2) or ""
    kwargs = {}
    for item in _split_args(body):
        if "=" not in item:
            raise SchemaError(f"model parameter {item!r} is not key=value")
        key, _, val = item.partition("=")
        kwargs[key.strip()] = _parse_value(val)
    if name == "arfima":
        name = "arfima0d0" if set(kwargs) <= {"d"} else "arfima_pdq"
    cls = _FAMILIES.get(name)
    if cls is None:
        raise SchemaError(
            f"unknown model family {name!r}; expected one of {sorted(_FAMILIES) + ['arfima']}"
        )
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad parameters for {name}: {exc}") from None
