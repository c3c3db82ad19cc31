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

The reference law is computed, not sampled (`reference_pvalue`).  A nu
within 1e-6 of 0 drops out and one within 1e-6 of 1 joins the unit
terms; when nothing else remains the law is chi-square and the p-value
is its survival function.  Otherwise it comes from Imhof's (1961)
inversion of the characteristic function.  A score-orthogonal basis built
for the fitted model (`TestBasis.score_orthogonal`) has b = 0, so the
composite test takes nu = 1 and computes neither Gamma nor b.

Every active slot is even (`make_basis` rejects an odd part, and both
built-in bases are even by construction).  On the unshifted grid each
Phi_j is therefore the folded sum over its N/2 + 1 nodes in [0, pi] of
the slot times the residual r = I/f0 - 1 folded as r(lam) + r(-lam)
(`FrequencyGrid.fold`).  A model null is even, so its residual is
evaluated on the nodes alone under the fold weights (1, 2, ..., 2, 1)
(`FrequencyGrid.fold_weights`); a callable null need not be, so it is
evaluated, checked and folded on every grid point.  The shifted grid of a
long-memory null keeps all N points at unit weight and its bits (see
`spectrum`).

Both built-in bases are harmonic: slot j is Re(e^{i j lam} u(lam)) / sqrt(pi),
with u = 1 for `cosine_basis` and the AR ratio for `ar_example_basis`.  So
each Phi_j is one complex dot product of the grid's e^{i j lam} table with
u (I/f0 - 1) (`TestBasis.project`); the slot values themselves
(`TestBasis.evaluate`) are built only for the population quadratures.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from ._quad import spectral_integral
from .errors import DomainError
from .models import Model, _constants
from .spectrum import Periodogram, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor
from .whittle import WhittleFit, whittle_estimate

logger = logging.getLogger(__name__)

_GRAM_TOL = 1e-6
_PARITY_NODES = 8193  # symmetric grid on which slots are classified zero/even/odd
_NU_TOL = 1e-6  # a mixture weight this close to 0 or 1 is taken as exactly that


@dataclass(frozen=True)
class TestBasis:
    """Orthonormal test functions with their numeric certificate.

    Identically-zero slots are legal (they carry no statistic mass and no
    degree of freedom) as long as one slot is active, and are excluded
    from the Gram check; `parity` marks each slot "even" or "zero".  Odd
    functions are rejected at construction: the periodogram is even in
    lambda, so an odd slot projects to exactly zero for every sample while
    still claiming a degree of freedom, which would silently wreck the
    chi-square calibration.

    `project(c, r)` maps a FrequencyConstants value c and a vector r on
    its frequencies to the m sums sum_k phi_j(lam_k) r_k that `phi_vector`
    takes, without building the slots (see the module docstring).
    `evaluate` maps c to the (m, len(lam)) array of all slots at once,
    for the population quadratures and `values`.
    `degree` is the highest frequency j of an e^{i j lam} factor in any
    slot, the rest of each slot being smooth (see ar_example_basis); the
    population quadratures start fine enough to resolve it.  It is None
    when unknown, which makes them run at their finest level only.
    `score_orthogonal` marks b = 0 for the model it was built for.
    """

    __test__ = False  # data container; keeps pytest from collecting it

    evaluate: object
    project: object
    names: tuple
    parity: tuple
    gram_residual: float
    degree: int | None = None
    score_orthogonal: bool = False

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def active(self) -> tuple:
        return tuple(i for i, p in enumerate(self.parity) if p != "zero")

    @property
    def m_active(self) -> int:
        return len(self.active)

    def values(self, lam) -> np.ndarray:
        """All slots at an array of frequencies or a FrequencyConstants value."""
        return self.evaluate(_constants(lam))


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

    def rows(lam):
        return np.vstack([np.broadcast_to(np.asarray(fn(lam), dtype=float),
                                          lam.shape) for fn in functions])

    if names is None:
        names = tuple(f"phi{j + 1}" for j in range(len(functions)))
    m = len(names)
    grid = np.linspace(-math.pi, math.pi, _PARITY_NODES)
    vals = rows(grid)
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
    if not active:
        raise DomainError("basis has no active slot")
    pairs = [(i, j) for i in range(len(active)) for j in range(i, len(active))]

    def products(lam):
        av = rows(lam)[active]
        return np.vstack([av[i] * av[j] for i, j in pairs])

    upper = spectral_integral(products, degree=None if degree is None else 2 * degree)
    gram = np.empty((len(active), len(active)))
    for (i, j), val in zip(pairs, np.atleast_1d(upper)):
        gram[i, j] = gram[j, i] = val
    residual = float(np.max(np.abs(gram - np.eye(len(active)))))
    if residual > _GRAM_TOL:
        raise DomainError(
            f"basis fails the orthonormality certificate: residual {residual:.3e}")
    # the caller's functions see the plain frequency array
    return TestBasis(evaluate=lambda c: rows(c.lam), project=lambda c, r: rows(c.lam) @ r,
                     names=tuple(names), parity=parity, gram_residual=residual,
                     degree=degree)


def cosine_basis(m: int) -> TestBasis:
    """phi_j(lam) = cos(j lam) / sqrt(pi), j = 1..m.

    Orthonormal by construction, so it skips the certificate (the tests
    certify it).
    """
    m = int(m)
    if m < 1:
        raise DomainError("cosine basis needs m >= 1")
    j = np.arange(1, m + 1, dtype=float)

    def evaluate(c):
        return np.cos(np.outer(j, c.lam)) / math.sqrt(math.pi)

    names = tuple(f"cos{k}" for k in range(1, m + 1))
    return TestBasis(evaluate=evaluate, project=lambda c, r: _harmonic(c, r, 1, m),
                     names=names, parity=("even",) * m, gram_residual=0.0, degree=m)


def _harmonic(c, v, first: int, m: int) -> np.ndarray:
    """Re(sum_k e^{i j lam_k} v_k) / sqrt(pi) for j = first..m, from c's table."""
    v = np.asarray(v, dtype=complex)
    return np.array([np.real(c.exp_ij(j) @ v) for j in range(first, m + 1)]) / math.sqrt(math.pi)


def _ar_poly(model: Model) -> np.ndarray:
    """Coefficients (1, -phi_1, ..., -phi_p) of a pure AR model."""
    if model.family == "ar1":
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
    degree of freedom per active slot.  Orthonormal and score-orthogonal
    by construction, it skips the certificate (the tests certify both).
    """
    a = _ar_poly(model)
    p = a.size - 1
    m = int(m)
    if m <= p:
        raise DomainError(f"need m > p = {p} basis slots")

    def ratio(c):
        # a has real coefficients, so a(e^{-i lam}) = conj(a(e^{i lam}))
        q = np.polyval(a[::-1], c.exp_ij(1))
        return np.conj(q) / q

    def evaluate(c):
        # the AR ratio is shared by every slot, e^{i j lam} by every replication
        u = ratio(c)
        rows = [np.zeros_like(c.lam) for _ in range(p)]
        rows += [np.real(c.exp_ij(j) * u) / math.sqrt(math.pi) for j in range(p + 1, m + 1)]
        return np.vstack(rows)

    def project(c, r):
        return np.concatenate((np.zeros(p), _harmonic(c, ratio(c) * r, p + 1, m)))

    names = ("zero",) * p + tuple(f"re_psi{j}" for j in range(p + 1, m + 1))
    return TestBasis(evaluate=evaluate, project=project, names=names,
                     parity=("zero",) * p + ("even",) * (m - p),
                     gram_residual=0.0, degree=m, score_orthogonal=True)


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


def _null_residual(pgram: Periodogram, f0) -> np.ndarray:
    """I/f0 - 1 on the grid's nodes, times their fold weights.

    A `Model` null is even, so it is evaluated on the nodes only.  A
    callable need not be: it is evaluated and checked on every grid point,
    and its residual folded as r(lam) + r(-lam) (`FrequencyGrid.fold`).
    """
    grid = pgram.grid
    even = isinstance(f0, Model)
    vals = np.asarray(f0.density(grid.constants) if even else f0(grid.points), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise DomainError("null density is not positive and finite on the grid")
    if not even:
        return grid.fold(pgram.values / vals - 1.0)
    resid = pgram.node_values / vals - 1.0
    return resid if grid.fold_weights is None else resid * grid.fold_weights


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
    shifted = isinstance(f0, Model) and f0.long_memory
    pgram = _periodogram_for(series_or_pgram, taper, shifted, oversample)
    grid = pgram.grid
    resid = _null_residual(pgram, f0)
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * basis.project(grid.constants, resid) * grid.weight


def simple_test(series_or_pgram, taper: Taper, f0, basis: TestBasis,
                alpha: float = 0.05, oversample: int = 4) -> GofResult:
    """S = |Phi|^2 against chi^2 with one dof per active slot."""
    phi = phi_vector(series_or_pgram, taper, f0, basis, oversample=oversample)
    s = float(np.dot(phi, phi))
    p_value, dof = reference_pvalue(s, basis.m_active)
    return GofResult(statistic=s, p_value=p_value, reject=bool(p_value < alpha),
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
    quadrature of a single score evaluation (exponent 0 for long memory:
    the score is log-singular and the basis bounded).
    """
    p = len(model.fitted_names)
    scale = 1.0 / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    active = basis.active
    out = np.zeros((basis.m, p))
    if not active:
        return out

    def integrand(lam):
        phi = basis.values(lam)
        s = np.atleast_2d(model.score(lam))
        return np.vstack([phi[j] * s[k] for j in active for k in range(p)])

    vals = spectral_integral(integrand, exponent=0.0 if model.long_memory else None,
                             degree=basis.degree)
    out[list(active)] = scale * vals.reshape(len(active), p)
    return out


def mixture_weights(gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """nu_k = 1 - eig_k(Gamma^{-1} b' b), clamped into [0, 1].

    Clamping is reported through the module logger; the caller receives
    the clamped values.
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
    return nu


def _imhof_sf(s: float, dof: int, weights) -> float:
    """P(chi^2_dof + sum_k w_k chi^2_1 > s) by Imhof's inversion formula.

    With theta(u) = (dof atan u + sum atan(w_k u)) / 2 and
    rho(u) = (1 + u^2)^(dof/4) prod (1 + w_k^2 u^2)^(1/4),

        P = 1/2 + (1/pi) int_0^inf sin(theta(u) - s u / 2) / (u rho(u)) du.

    Up to a = pi / s, where s u / 2 reaches pi / 2, the integrand does not
    oscillate: a plain rule takes [0, a], split at the powers of ten when
    a is large.  On [a, inf) the sine is split into
    sin(theta) cos(s u / 2) - cos(theta) sin(s u / 2), two Fourier
    integrals for QUADPACK's QAWF.  (A split fixed at u = 1 fails at both
    ends: for s near 0 QAWF's first cycle spans decades of the amplitude,
    and for large s the head oscillates too often.)  The result is clipped
    into [0, 1].
    """
    if s <= 0.0:
        return 1.0
    w = tuple(float(v) for v in weights)

    def theta(u):
        return 0.5 * (dof * math.atan(u) + sum(math.atan(v * u) for v in w))

    def amplitude(u):  # 1 / (u rho(u))
        log_rho = 0.25 * (dof * math.log1p(u * u) + sum(math.log1p((v * u) ** 2) for v in w))
        return math.exp(-log_rho) / u

    quad = scipy.integrate.quad
    a = math.pi / s
    decades = tuple(10.0 ** k for k in range(1, math.ceil(math.log10(a)))) if a > 10.0 else None
    head = quad(lambda u: math.sin(theta(u) - 0.5 * s * u) * amplitude(u), 0.0, a,
                points=decades)[0]
    tail_cos = quad(lambda u: math.sin(theta(u)) * amplitude(u), a, math.inf,
                    weight="cos", wvar=0.5 * s)[0]
    tail_sin = quad(lambda u: math.cos(theta(u)) * amplitude(u), a, math.inf,
                    weight="sin", wvar=0.5 * s)[0]
    return min(max(0.5 + (head + tail_cos - tail_sin) / math.pi, 0.0), 1.0)


def reference_pvalue(s: float, unit_dof: int, nu=()) -> tuple:
    """(P(X > s), dof) for X = chi^2(unit_dof) + sum_k nu_k chi^2_1.

    A nu within 1e-6 of 0 drops out and one within 1e-6 of 1 joins the
    unit terms.  When no other weight remains X is chi^2(dof) and the
    p-value is its survival function; otherwise dof is None and the
    p-value comes from `_imhof_sf`.
    """
    nu = np.asarray(nu, dtype=float)
    ones = np.abs(nu - 1.0) < _NU_TOL
    rest = nu[~ones & (np.abs(nu) >= _NU_TOL)]
    dof = int(unit_dof) + int(np.sum(ones))
    if rest.size == 0:
        # chi2.sf without the distribution machinery; 1 below the support
        return float(scipy.special.chdtrc(dof, max(s, 0.0))), dof
    return _imhof_sf(s, dof, rest), None


def require_surplus(basis: TestBasis, model: Model) -> TestBasis:
    """`basis`, if it has more active slots than the parameters a composite
    test fits to `model` (its free ones, else its scale)."""
    p = len(model.fitted_names)
    if basis.m_active <= p:
        raise DomainError(f"basis has {basis.m_active} active slots; need more than {p}")
    return basis


def composite_test(series, taper: Taper, model: Model, basis,
                   alpha: float = 0.05, kappa4: float = 0.0,
                   oversample: int = 4) -> GofResult:
    """Goodness-of-fit with the null density fitted by tapered Whittle.

    `basis` is either a TestBasis or a callable mapping the fitted model
    to one (score-orthogonal constructions depend on theta_hat).  The
    reference law is the chi-square mixture with one unit term per
    surplus active slot and one nu-weighted term per fitted shape
    parameter (see `reference_pvalue`); `law["dof"]` is its chi-square
    dof, or None for a genuine mixture.
    """
    fit = whittle_estimate(series, taper, model, kappa4=kappa4, oversample=oversample)
    if not fit.converged:
        raise DomainError("estimator did not converge; test aborted")
    fitted = fit.model
    test_basis = require_surplus(basis(fitted) if callable(basis) else basis, fitted)
    # the fit's periodogram serves unless the fitted point's memory moves the grid
    same_grid = fit.periodogram.grid.shifted == fitted.long_memory
    phi = phi_vector(fit.periodogram if same_grid else series, taper, fitted,
                     test_basis, oversample=oversample)
    s = float(np.dot(phi, phi))
    names = fitted.fitted_names
    p = len(names)
    m_active = test_basis.m_active
    if callable(basis) and test_basis.score_orthogonal:  # built for `fitted`: b = 0
        nu = np.ones(p)
    else:
        b_eff = math.sqrt(tapering_factor(taper)) * b_matrix(fitted, test_basis, taper)
        nu = mixture_weights(gamma_matrix(fitted, names=names), b_eff)
    p_value, dof = reference_pvalue(s, m_active - p, nu)
    law = {"kind": "mixture" if dof is None else "chisq", "dof": dof,
           "unit_dof": m_active - p, "nu": tuple(float(v) for v in nu)}
    return GofResult(statistic=s, p_value=p_value,
                     reject=bool(p_value < alpha), alpha=float(alpha),
                     law=law, phi=phi, fit=fit)
