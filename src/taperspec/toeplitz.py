"""Dense tapered Toeplitz matrices and Gaussian quadratic-form laws.

A generator psi (an even integrable function on [-pi, pi]) and a taper h
define the T x T symmetric matrix with entries

    psihat(t - s) h(t/T) h(s/T),   psihat(u) = int e^{i u lam} psi(lam) dlam.

Normalized traces of products of such matrices converge, as T grows, to

    (2 pi)^{m-1} H_{2m} int prod_i psi_i(lam) dlam,

where H_{2m} is the (2m)-th moment of the taper.  Each factor of the
product contributes the taper twice per summation index, which is why the
moment order is 2m and not m.  The limit needs sum beta_i > -1 for psi_i ~
|lam|^{beta_i} at the origin (Avram, PTRF 79, 1988); `trace_limit` reads
the exponents of its models and raises DivergenceError otherwise.  The
module also carries the exact law of the tapered quadratic form
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

from ._quad import cosine_coefficient, spectral_integral
from .errors import DivergenceError, DomainError, SizeGuardError
from .functionals import GeneratingFunction
from .models import Model, make_rng
from .taper import Taper, rectangular

_BUILD_GUARD = 2048
_CUMULANT_GUARD = 1024
_EIG_GUARD = 512


@dataclass(frozen=True)
class TaperedToeplitzMatrix:
    """Dense symmetric matrix psihat(t-s) h(t/T) h(s/T), t,s = 1..T."""

    matrix: np.ndarray
    order: int
    taper_id: str
    label: str

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def T(self) -> int:
        return self.order


def _label(psi) -> str:
    if isinstance(psi, Model):
        return psi.describe()
    if isinstance(psi, GeneratingFunction):
        return psi.label or psi.kind
    return getattr(psi, "__name__", "callable")


def _fourier_coefficients(psi, T: int) -> np.ndarray:
    """psihat(u) for u = 0..T-1.

    Models supply their covariance, generating functions their closed-form
    (or cached) transform, and a bare callable goes through oscillatory
    quadrature lag by lag.
    """
    lags = np.arange(T)
    if isinstance(psi, Model):
        return np.asarray(psi.covariance(lags), dtype=float)
    if isinstance(psi, GeneratingFunction):
        return np.asarray(psi.fourier(lags), dtype=float)
    if callable(psi):
        return np.array([cosine_coefficient(psi, int(u)) for u in lags])
    raise DomainError("generator must be a model, a generating function, or a callable")


def _density_fn(psi):
    if isinstance(psi, Model):
        return psi.density
    if isinstance(psi, GeneratingFunction):
        return psi.eval
    if callable(psi):
        return psi
    raise DomainError("generator must be a model, a generating function, or a callable")


def build_matrix(psi, taper: Taper, T: int) -> TaperedToeplitzMatrix:
    """Assemble the dense T x T tapered Toeplitz matrix of psi."""
    T = int(T)
    if T < 1:
        raise DomainError("order must be positive")
    if T > _BUILD_GUARD:
        raise SizeGuardError(f"order {T} exceeds dense build guard {_BUILD_GUARD}")
    ghat = _fourier_coefficients(psi, T)
    h = taper.values(T)
    mat = scipy.linalg.toeplitz(ghat) * np.outer(h, h)
    return TaperedToeplitzMatrix(matrix=mat, order=T, taper_id=taper.id, label=_label(psi))


def trace_product(matrices) -> float:
    """(1/T) tr[A_1 A_2 ... A_m] for m in {2, 3, 4}, all of one order."""
    mats = list(matrices)
    m = len(mats)
    if m not in (2, 3, 4):
        raise DomainError(f"trace product takes 2 to 4 factors, got {m}")
    orders = {a.order for a in mats}
    if len(orders) != 1:
        raise DomainError(f"order mismatch among factors: {sorted(orders)}")
    T = mats[0].order
    # tr(P A_last) = sum_ij P_ij (A_last)_ji; the last factor is symmetric,
    # so one matmul fewer than the naive chain.
    prod = mats[0].matrix
    for a in mats[1:-1]:
        prod = prod @ a.matrix
    return float(np.sum(prod * mats[-1].matrix) / T)


def _product_integral(psi_list) -> float:
    """int prod_i psi_i.  With long memory, Gauss panels would straddle the jump
    of an indicator(mu) factor: the product goes over [0, mu] by lam = mu x / pi."""
    fns = [_density_fn(p) for p in psi_list]
    models = [p for p in psi_list if isinstance(p, Model)]
    exponent = (sum(m.origin_exponent for m in models)
                if any(m.long_memory for m in models) else None)
    scale = min((float(p.fourier(0)) for p in psi_list if exponent is not None and
                 isinstance(p, GeneratingFunction) and p.kind == "indicator"),
                default=math.pi) / math.pi

    def integrand(lam):
        lam = scale * np.asarray(lam, dtype=float)  # exact when scale is 1
        out = np.full_like(lam, scale)
        for fn in fns:
            out = out * np.asarray(fn(lam), dtype=float)
        return out

    val = spectral_integral(integrand, exponent=exponent)
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


def trace_deviation(psi_list, taper: Taper, T: int) -> float:
    """|S(T) - M|: the finite-T trace against its limit."""
    psi_list = list(psi_list)
    mats = [build_matrix(p, taper, T) for p in psi_list]
    if len(mats) == 1:
        s_t = float(np.trace(mats[0].matrix) / T)
    else:
        s_t = trace_product(mats)
    return abs(s_t - trace_limit(psi_list, taper))


def _covariance_matrix(f, T: int) -> np.ndarray:
    """Plain Toeplitz covariance matrix of the density f (rect taper)."""
    return build_matrix(f, rectangular(), T).matrix


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
    prod = _covariance_matrix(f, T) @ build_matrix(g, taper, T).matrix
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
    bg = build_matrix(g, taper, T).matrix
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
