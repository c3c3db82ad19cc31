"""Frequency-domain goodness-of-fit tests for spectral hypotheses.

The building block is the normalized projection vector

    Phi_j = sqrt(T) / sqrt(4 pi e(h)) sum_k [I(lam_k)/f0(lam_k) - 1]
            phi_j(lam_k) w_k

over an orthonormal system phi_1..phi_m.  Under a true simple hypothesis
Phi is asymptotically standard normal in R^m, so S = |Phi|^2 is chi^2
with one degree of freedom per active basis slot; the innovation kurtosis
drops out for mean-zero phi_j.  When the density is first fitted by
tapered Whittle, estimation removes variance along the score directions
and the limit becomes a weighted mixture: (m - p) unit chi-square terms
plus p terms weighted by

    nu_k = 1 - eig_k(Gamma^{-1} (sqrt(e) b)' (sqrt(e) b)),

with Gamma the score Gram matrix and b the basis-score cross matrix
below.  A slot aligned with the normalized score gets nu = 0 exactly, for
every taper: the factors of e(h) cancel.  A basis orthogonal to the score
leaves nu = 1, and with the first p slots identically zero that
reproduces a plain chi-square with m - p degrees of freedom.

Mixture p-values come from a Monte Carlo draw with a fixed internal seed:
simpler than characteristic-function inversion and the error is
quantifiable (the half-width rides along in the result).  The variates do
not depend on the data, so each process draws them once per law shape
(unit dof, number of nu terms, draws, seed) and every replication weights
the same read-only rows by its own nu.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.stats

from ._quad import spectral_integral
from .errors import DomainError
from .models import Model, make_rng
from .spectrum import Periodogram, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor
from .whittle import WhittleFit, whittle_estimate

logger = logging.getLogger(__name__)

_GRAM_TOL = 1e-6
_PARITY_NODES = 8193  # symmetric grid on which slots are classified zero/even/odd
_MC_SEED = 170339


@dataclass(frozen=True)
class TestBasis:
    """Orthonormal test functions with their numeric certificate.

    Identically-zero slots are legal (they carry no statistic mass and no
    degree of freedom) and are excluded from the Gram check; `parity`
    marks each slot "even" or "zero".  Odd functions are rejected at
    construction: the periodogram is even in lambda, so an odd slot
    projects to exactly zero for every sample while still claiming a
    degree of freedom, which would silently wreck the chi-square
    calibration.

    `evaluate` maps an array of frequencies to the (m, len(lam)) array of
    all slots at once, so a construction can share work between slots.
    `degree` is the highest frequency j of an e^{i j lam} factor in any
    slot, the rest of each slot being smooth (see ar_example_basis); the
    population quadratures start fine enough to resolve it.  It is None
    when unknown, which makes them run at their finest level only.
    """

    __test__ = False  # data container; keeps pytest from collecting it

    evaluate: object
    names: tuple
    parity: tuple
    gram_residual: float
    degree: int | None = None

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def active(self) -> tuple:
        return tuple(i for i, p in enumerate(self.parity) if p != "zero")

    @property
    def m_active(self) -> int:
        return len(self.active)

    def values(self, lam: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(lam, dtype=float))


def make_basis(functions, names=None, degree: int | None = None) -> TestBasis:
    """Certify a list of callables as an orthonormal system on [-pi, pi].

    `degree` is as in TestBasis.  Slots are classified zero or even, and
    any with a non-vanishing odd part rejected (see TestBasis), on a
    symmetric grid.  The Gram matrix of the non-zero slots comes from
    `spectral_integral`, started at twice the basis degree (a product of
    two slots carries up to that frequency), and must match the identity
    within 1e-6.
    """
    functions = tuple(functions)
    if not functions:
        raise DomainError("basis needs at least one function")

    def evaluate(lam):
        return np.vstack([np.broadcast_to(np.asarray(fn(lam), dtype=float),
                                          lam.shape) for fn in functions])

    if names is None:
        names = tuple(f"phi{j + 1}" for j in range(len(functions)))
    m = len(names)
    grid = np.linspace(-math.pi, math.pi, _PARITY_NODES)
    vals = evaluate(grid)
    if not np.all(np.isfinite(vals)):
        raise DomainError("basis function not finite on [-pi, pi]")
    zero = np.max(np.abs(vals), axis=1) < 1e-12
    odd_part = np.max(np.abs(vals - vals[:, ::-1]), axis=1)
    for j in range(m):
        if not zero[j] and odd_part[j] > 1e-10:
            raise DomainError(
                f"basis slot {j + 1} has an odd part (max {odd_part[j]:.3e}); "
                "odd functions project to zero against the even periodogram")
    parity = tuple("zero" if zero[j] else "even" for j in range(m))
    active = [j for j in range(m) if parity[j] != "zero"]
    if active:
        pairs = [(i, j) for i in range(len(active)) for j in range(i, len(active))]

        def products(lam):
            av = evaluate(lam)[active]
            return np.vstack([av[i] * av[j] for i, j in pairs])

        upper = spectral_integral(
            products, degree=None if degree is None else 2 * degree)
        gram = np.empty((len(active), len(active)))
        for (i, j), val in zip(pairs, np.atleast_1d(upper)):
            gram[i, j] = gram[j, i] = val
        residual = float(np.max(np.abs(gram - np.eye(len(active)))))
    else:
        residual = 0.0
    if residual > _GRAM_TOL:
        raise DomainError(
            f"basis fails the orthonormality certificate: residual {residual:.3e}")
    return TestBasis(evaluate=evaluate, names=tuple(names), parity=parity,
                     gram_residual=residual, degree=degree)


def cosine_basis(m: int) -> TestBasis:
    """phi_j(lam) = cos(j lam) / sqrt(pi), j = 1..m.

    Orthonormal by construction, so it skips the certificate (the tests
    certify it).
    """
    m = int(m)
    if m < 1:
        raise DomainError("cosine basis needs m >= 1")
    j = np.arange(1, m + 1, dtype=float)

    def evaluate(lam):
        return np.cos(np.outer(j, lam)) / math.sqrt(math.pi)

    names = tuple(f"cos{k}" for k in range(1, m + 1))
    return TestBasis(evaluate=evaluate, names=names, parity=("even",) * m,
                     gram_residual=0.0, degree=m)


def _ar_poly(model: Model) -> np.ndarray:
    """Coefficients (1, -phi_1, ..., -phi_p) of a pure AR model."""
    if hasattr(model, "theta") and hasattr(model, "sigma2") and model.family == "ar1":
        return np.array([1.0, -float(model.theta)])
    if model.family == "arma":
        if len(model.theta) != 0:
            raise DomainError("score-orthogonal basis requires a pure AR model")
        return np.concatenate(([1.0], -np.asarray(model.phi, dtype=float)))
    raise DomainError("score-orthogonal basis requires an AR family model")


def ar_example_basis(model: Model, m: int) -> TestBasis:
    """Score-orthogonal system for an AR(p) null.

    The first p slots are identically zero; slot j > p holds

        phi_j(lam) = Re[e^{i j lam} a(e^{-i lam}) / a(e^{i lam})] / sqrt(pi)

    with a(z) the AR polynomial.  The complex ratio has modulus one and
    its imaginary part is odd, so the real part alone carries the whole
    projection of the (even) periodogram; the sqrt(pi) normalization
    makes each surviving slot unit-norm.  A short Fourier-coefficient
    argument shows every slot with j > p is orthogonal both to the
    other slots and to the AR score, so the cross matrix b vanishes and
    the composite statistic keeps a plain chi-square limit with one
    degree of freedom per active slot.  Being orthonormal by
    construction, it skips the certificate (the tests certify it).
    """
    a = _ar_poly(model)
    p = a.size - 1
    m = int(m)
    if m <= p:
        raise DomainError(f"need m > p = {p} basis slots")

    def evaluate(lam):
        # e^{i lam} and the AR ratio are shared by every slot
        z = np.exp(1j * lam)
        ratio = np.polyval(a[::-1], np.conj(z)) / np.polyval(a[::-1], z)
        rows = [np.zeros_like(lam) for _ in range(p)]
        rows += [np.real(np.exp(1j * j * lam) * ratio) / math.sqrt(math.pi)
                 for j in range(p + 1, m + 1)]
        return np.vstack(rows)

    names = ("zero",) * p + tuple(f"re_psi{j}" for j in range(p + 1, m + 1))
    return TestBasis(evaluate=evaluate, names=names,
                     parity=("zero",) * p + ("even",) * (m - p),
                     gram_residual=0.0, degree=m)


@dataclass(frozen=True)
class GofResult:
    """Statistic, reference law, and decision of one goodness-of-fit run."""

    statistic: float
    p_value: float
    reject: bool
    alpha: float
    law: dict
    phi: np.ndarray
    fit: WhittleFit | None = None

    def __post_init__(self):
        self.phi.setflags(write=False)


def _density_values(f0, grid) -> np.ndarray:
    if isinstance(f0, Model):
        vals = np.asarray(f0.density(grid.constants), dtype=float)
    else:
        vals = np.asarray(f0(grid.points), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise DomainError("null density is not positive and finite on the grid")
    return vals


def _periodogram_for(series_or_pgram, taper: Taper, shifted: bool,
                     oversample: int) -> Periodogram:
    if isinstance(series_or_pgram, Periodogram):
        return series_or_pgram
    x = np.asarray(series_or_pgram.values
                   if hasattr(series_or_pgram, "values") else series_or_pgram,
                   dtype=float)
    grid = canonical_grid(x.size, oversample=oversample, shifted=shifted)
    return tapered_periodogram(x, taper, grid=grid)


def phi_vector(series_or_pgram, taper: Taper, f0, basis: TestBasis,
               oversample: int = 4) -> np.ndarray:
    """Normalized projections of I/f0 - 1 onto the basis."""
    shifted = isinstance(f0, Model) and f0.memory_class != "short"
    pgram = _periodogram_for(series_or_pgram, taper, shifted, oversample)
    pts = pgram.grid.points
    f_vals = _density_values(f0, pgram.grid)
    resid = pgram.values / f_vals - 1.0
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * (basis.values(pts) @ resid) * pgram.grid.weight


def simple_test(series_or_pgram, taper: Taper, f0, basis: TestBasis,
                alpha: float = 0.05, oversample: int = 4) -> GofResult:
    """S = |Phi|^2 against chi^2 with one dof per active slot."""
    phi = phi_vector(series_or_pgram, taper, f0, basis, oversample=oversample)
    s = float(np.dot(phi, phi))
    dof = basis.m_active
    p_value = float(scipy.stats.chi2.sf(s, dof))
    threshold = float(scipy.stats.chi2.ppf(1.0 - alpha, dof))
    return GofResult(statistic=s, p_value=p_value, reject=bool(s > threshold),
                     alpha=float(alpha),
                     law={"kind": "chisq", "dof": dof}, phi=phi)


def gamma_matrix(model: Model, names=None) -> np.ndarray:
    """Score Gram matrix (1/4pi) int grad ln f grad ln f' dlam."""
    from .whittle import info_matrices

    info = info_matrices(model, names=names)
    return info.W


def b_matrix(model: Model, basis: TestBasis, taper: Taper) -> np.ndarray:
    """b_jk = (4 pi e(h))^{-1/2} int phi_j d_k ln f dlam.

    Zero slots contribute zero rows; the rest go through one multi-row
    quadrature of a single score evaluation (singularity-aware when the
    model carries long memory).
    """
    names = model.free_names if model.free_names else (model.scale_name,)
    p = len(names)
    long_mem = model.memory_class != "short"
    scale = 1.0 / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    active = basis.active
    out = np.zeros((basis.m, p))
    if not active:
        return out

    def integrand(lam):
        phi = basis.values(lam)
        s = np.atleast_2d(model.score(lam))
        return np.vstack([phi[j] * s[k] for j in active for k in range(p)])

    vals = spectral_integral(integrand, long_memory=long_mem, degree=basis.degree)
    out[list(active)] = scale * vals.reshape(len(active), p)
    return out


def delta_vector(series_or_pgram, taper: Taper, model: Model,
                 oversample: int = 4) -> np.ndarray:
    """Delta_k = sqrt(T)/sqrt(4 pi e(h)) sum (I/f - 1) d_k ln f w.

    First-order relation to the fitted parameters:
    sqrt(T)(theta_hat - theta) ~ sqrt(e(h)/4pi) Gamma^{-1} Delta.
    """
    shifted = model.memory_class != "short"
    pgram = _periodogram_for(series_or_pgram, taper, shifted, oversample)
    pts = pgram.grid.points
    f_vals = _density_values(model, pgram.grid)
    resid = pgram.values / f_vals - 1.0
    names = model.free_names if model.free_names else (model.scale_name,)
    rows = np.atleast_2d(model.score(pts))[:len(names)]
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * (rows @ resid) * pgram.grid.weight


def mixture_weights(gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """nu_k = 1 - eig_k(Gamma^{-1} b' b), clamped into [0, 1].

    Clamping and degenerate nu = 1 weights are reported through the
    module logger; the caller receives the clamped values.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if not np.all(np.isfinite(gamma)) or np.linalg.cond(gamma) > 1e12:
        raise DomainError("score Gram matrix is singular")
    mu = np.linalg.eigvals(np.linalg.solve(gamma, b.T @ b))
    mu = np.sort(np.real(mu))[::-1]
    nu = 1.0 - mu
    clamped = int(np.sum((nu < 0.0) | (nu > 1.0)))
    if clamped:
        logger.warning("clamped %d mixture weight(s) into [0, 1]: %s",
                       clamped, np.array2string(nu, precision=6))
        nu = np.clip(nu, 0.0, 1.0)
    if np.any(nu >= 1.0 - 1e-12):
        logger.warning("degenerate mixture weight nu = 1 (basis orthogonal "
                       "to the score); component keeps full weight")
    return nu


@functools.lru_cache(maxsize=4)
def _reference_draws(unit_dof: int, p: int, draws: int, seed: int) -> tuple:
    """The mixture law's fixed-seed variates, drawn once per process.

    Returns the chi^2(unit_dof) row (None when unit_dof is 0) and the p
    rows of Z^2, read-only, in the stream order of the seed.
    """
    rng = make_rng(seed)
    chi = rng.chisquare(unit_dof, size=draws) if unit_dof > 0 else None
    if chi is not None:
        chi.setflags(write=False)
    z2 = np.empty((p, draws))
    for k in range(p):
        z2[k] = rng.standard_normal(draws) ** 2
    z2.setflags(write=False)
    return chi, z2


def _mixture_pvalue(s: float, unit_dof: int, nu: np.ndarray, draws: int,
                    seed: int) -> tuple:
    chi, z2 = _reference_draws(int(unit_dof), len(nu), int(draws), int(seed))
    total = np.zeros(draws)
    if chi is not None:
        total += chi
    for w, row in zip(nu, z2):
        total += w * row
    p = float(np.mean(total >= s))
    half_width = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)
    return p, float(half_width)


def composite_test(series, taper: Taper, model: Model, basis,
                   alpha: float = 0.05, kappa4: float = 0.0,
                   oversample: int = 4, mc_draws: int = 200000,
                   mc_seed: int = _MC_SEED, **fit_kwargs) -> GofResult:
    """Goodness-of-fit with the null density fitted by tapered Whittle.

    `basis` is either a TestBasis or a callable mapping the fitted model
    to one (score-orthogonal constructions depend on theta_hat).  The
    reference law is the chi-square mixture with one unit term per
    surplus active slot and one nu-weighted term per fitted shape
    parameter, sampled with a fixed internal seed independent of the data
    streams (its variates are drawn once per process, see the module
    docstring).
    """
    fit = whittle_estimate(series, taper, model, kappa4=kappa4,
                           oversample=oversample, **fit_kwargs)
    if not fit.converged:
        raise DomainError("estimator did not converge; test aborted")
    fitted = fit.model
    test_basis = basis(fitted) if callable(basis) else basis
    # the fit's periodogram serves unless the fitted memory class moves the grid
    same_grid = fit.periodogram.grid.shifted == (fitted.memory_class != "short")
    phi = phi_vector(fit.periodogram if same_grid else series, taper, fitted,
                     test_basis, oversample=oversample)
    s = float(np.dot(phi, phi))
    names = fitted.free_names if fitted.free_names else (fitted.scale_name,)
    p = len(names)
    m_active = test_basis.m_active
    if m_active <= p:
        raise DomainError(f"basis has {m_active} active slots; need more than {p}")
    gamma = gamma_matrix(fitted, names=names)
    e_h = tapering_factor(taper)
    b_eff = math.sqrt(e_h) * b_matrix(fitted, test_basis, taper)
    nu = mixture_weights(gamma, b_eff)
    p_value, half_width = _mixture_pvalue(s, m_active - p, nu, mc_draws, mc_seed)
    law = {"kind": "mixture", "unit_dof": m_active - p, "nu": tuple(float(v) for v in nu),
           "mc_draws": int(mc_draws), "mc_half_width": half_width}
    return GofResult(statistic=s, p_value=p_value,
                     reject=bool(p_value < alpha), alpha=float(alpha),
                     law=law, phi=phi, fit=fit)
