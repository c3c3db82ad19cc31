"""Dense tapered Toeplitz matrices and Gaussian quadratic-form laws.

A generator psi (an even integrable function on [-pi, pi]: a `Model`'s
density or a `GeneratingFunction`, so a plain callable enters through
`functionals.custom`) and a taper h define the T x T symmetric matrix with
entries

    psihat(t - s) h(t/T) h(s/T),   psihat(u) = int e^{i u lam} psi(lam) dlam.

Normalized traces of products of such matrices converge, as T grows, to

    (2 pi)^{m-1} H_{2m} int prod_i psi_i(lam) dlam,

where H_{2m} is the (2m)-th moment of the taper.  Each factor of the
product contributes the taper twice per summation index, which is why the
moment order is 2m and not m.  The limit needs sum beta_i > -1 for psi_i ~
|lam|^{beta_i} at the origin (Avram, PTRF 79, 1988); `trace_limit` reads
the exponents of its models and raises DivergenceError otherwise; it
integrates over the narrowest generator support, so an indicator's jump
ends the band.  The module also carries the exact law of the tapered quadratic form
Q = x' B^h(g) x under a Gaussian series with density f: its cumulants are
traces of powers of Sigma_f B^h(g), where Sigma_f is the plain (untapered)
covariance matrix, and its distribution is the eigenvalue mixture
sum_j lam_j xi_j^2.

Everything here is dense and guarded by hard size limits; the point is
desk-scale verification of limit theorems, not production linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._quad import spectral_integral
from .errors import DivergenceError, DomainError, SizeGuardError
from .functionals import GeneratingFunction
from .models import Model, _frozen, make_rng
from .taper import Taper, get_taper

_BUILD_GUARD = 2048
_CUMULANT_GUARD = 1024
_EIG_GUARD = 512
_GENERATOR_TYPES = ("generator must be a Model or a GeneratingFunction "
                    "(wrap a callable in functionals.custom)")


def _fourier_coefficients(psi, T: int) -> np.ndarray:
    """psihat(u) for u = 0..T-1: a model's covariance, a generating
    function's closed-form (or kept) transform."""
    lags = np.arange(T)
    if isinstance(psi, Model):
        return np.asarray(psi.covariance(lags), dtype=float)
    if isinstance(psi, GeneratingFunction):
        return np.asarray(psi.fourier(lags), dtype=float)
    raise DomainError(_GENERATOR_TYPES)


def _density_fn(psi):
    if isinstance(psi, Model):
        return psi.density
    if isinstance(psi, GeneratingFunction):
        return psi.eval
    raise DomainError(_GENERATOR_TYPES)


def build_matrix(psi, taper: Taper, T: int) -> np.ndarray:
    """The dense T x T tapered Toeplitz matrix of psi, read-only."""
    T = int(T)
    if T < 1:
        raise DomainError("order must be positive")
    if T > _BUILD_GUARD:
        raise SizeGuardError(f"order {T} exceeds dense build guard {_BUILD_GUARD}")
    ghat = _fourier_coefficients(psi, T)
    h = taper.values(T)
    return _frozen(scipy.linalg.toeplitz(ghat) * np.outer(h, h))


def trace_product(matrices) -> float:
    """(1/T) tr[A_1 A_2 ... A_m] for m in {2, 3, 4}, all of one order."""
    mats = list(matrices)
    m = len(mats)
    if m not in (2, 3, 4):
        raise DomainError(f"trace product takes 2 to 4 factors, got {m}")
    orders = {a.shape[0] for a in mats}
    if len(orders) != 1:
        raise DomainError(f"order mismatch among factors: {sorted(orders)}")
    # tr(P A_last) = sum_ij P_ij (A_last)_ji; the last factor is symmetric,
    # so one matmul fewer than the naive chain.
    prod = mats[0]
    for a in mats[1:-1]:
        prod = prod @ a
    return float(np.sum(prod * mats[-1]) / orders.pop())


def _product_integral(psi_list) -> float:
    """int prod_i psi_i over the narrowest support, with the summed origin
    exponents and, when every factor has one, degrees (a model counts 0)."""
    fns = [_density_fn(p) for p in psi_list]
    models = [p for p in psi_list if isinstance(p, Model)]
    exponent = (sum(m.origin_exponent for m in models)
                if any(m.long_memory for m in models) else None)
    degrees = [0 if isinstance(p, Model) else p.degree for p in psi_list]
    gens = [p for p in psi_list if isinstance(p, GeneratingFunction)]

    def integrand(lam):
        out = np.ones_like(lam)
        for fn in fns:
            out = out * np.asarray(fn(lam), dtype=float)
        return out

    val = spectral_integral(integrand, exponent, None if None in degrees else sum(degrees),
                            min((g.support for g in gens), default=math.pi))
    if not np.isfinite(val):
        raise DivergenceError("product of generators is not integrable")
    return float(val)


def trace_limit(psi_list, taper: Taper) -> float:
    """(2 pi)^{m-1} H_{2m} int prod_i psi_i(lam) dlam."""
    psi_list = list(psi_list)
    m = len(psi_list)
    if m < 1:
        raise DomainError("need at least one generator")
    integral = _product_integral(psi_list)
    return (2.0 * math.pi) ** (m - 1) * taper.moment(2 * m) * integral


def _covariance_matrix(f, T: int) -> np.ndarray:
    """Plain Toeplitz covariance matrix of the density f (rect taper)."""
    return build_matrix(f, get_taper("rect"), T)


def qf_cumulant(f, g, taper: Taper, T: int, k: int) -> float:
    """k-th cumulant of Q = x' B^h(g) x for Gaussian x with density f.

    chi_k = 2^{k-1} (k-1)! tr[(Sigma_f B^h(g))^k], k in {1, 2, 3, 4}.
    """
    T = int(T)
    if T > _CUMULANT_GUARD:
        raise SizeGuardError(f"order {T} exceeds cumulant guard {_CUMULANT_GUARD}")
    k = int(k)
    if k not in (1, 2, 3, 4):
        raise DomainError(f"cumulant order must be in 1..4, got {k}")
    prod = _covariance_matrix(f, T) @ build_matrix(g, taper, T)
    power = prod
    for _ in range(k - 1):
        power = power @ prod
    return float(2.0 ** (k - 1) * math.factorial(k - 1) * np.trace(power))


@dataclass(frozen=True)
class QFDistribution:
    """Eigenvalue mixture law of a Gaussian tapered quadratic form."""

    eigenvalues: np.ndarray
    near_zero: int
    symmetrized: bool

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n variates of sum_j lam_j xi_j^2 with iid standard normal xi."""
        rng = make_rng(seed)
        xi = rng.standard_normal((int(n), self.eigenvalues.size))
        return (xi * xi) @ self.eigenvalues


def qf_distribution(f, g, taper: Taper, T: int) -> QFDistribution:
    """Exact law of Q = x' B^h(g) x under a Gaussian series with density f.

    The spectrum of Sigma_f B^h(g) is computed from the symmetrization
    S B^h(g) S with S = Sigma_f^{1/2}, which shares its eigenvalues; if
    Sigma_f is numerically indefinite the non-symmetric eigenproblem is
    solved directly and imaginary parts below 1e-8 (relative) are dropped.
    """
    T = int(T)
    if T > _EIG_GUARD:
        raise SizeGuardError(f"order {T} exceeds eigensolve guard {_EIG_GUARD}")
    sigma = _covariance_matrix(f, T)
    bg = build_matrix(g, taper, T)
    w, u = np.linalg.eigh(sigma)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.min() >= -1e-10 * max(scale, 1.0):
        root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
        eigs = np.linalg.eigvalsh(root @ bg @ root)
        symmetrized = True
    else:
        raw = np.linalg.eigvals(sigma @ bg)
        mag = float(np.max(np.abs(raw))) if raw.size else 0.0
        if np.max(np.abs(raw.imag)) > 1e-8 * max(mag, 1.0):
            raise DomainError("product spectrum has non-negligible imaginary parts")
        eigs = np.sort(raw.real)
        symmetrized = False
    eigs = eigs[::-1].copy()
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    near_zero = int(np.sum(np.abs(eigs) <= 1e-10 * max(top, 1.0)))
    return QFDistribution(eigenvalues=eigs, near_zero=near_zero, symmetrized=symmetrized)
