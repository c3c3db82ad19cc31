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
inversion of the characteristic function.  A basis carrying the fitted
model's AR polynomial (`TestBasis.ar`) has b = 0 however it was passed, so
the composite test takes nu = 1 and computes neither Gamma nor b.

Every slot is harmonic: slot j is Re(e^{i j lam} u(lam)) / sqrt(pi), with
u = 1 for `cosine_basis` and the AR ratio for `ar_example_basis`.  Each
active slot is therefore even, and so is the null, a `Model` density.  On
the unshifted grid each Phi_j is the sum over its N/2 + 1 nodes in [0, pi]
of the slot times the residual r = I/f0 - 1 under the fold weights
(1, 2, ..., 2, 1) (`FrequencyGrid.fold_weights`).  A fractional null
(`Model.fractional`) takes the shifted grid, which keeps all N points at
unit weight and its bits (see `spectrum`); a composite test projects the
periodogram its Whittle fit searched (a fresh one after a closed form), on
the grid of the null's family.  Each
Phi_j is one complex dot product of the grid's e^{i j lam} table with
u (I/f0 - 1) (`TestBasis.project`); the slot values themselves
(`TestBasis.values`) are built only for the population quadratures.

Under a pure-AR null f0 = s2 / (2 pi |a(z)|^2), z = e^{-i lam}
(`models.ar_polynomial`), both tests project a cosine basis and f0's own
`ar_example_basis` with no periodogram.  With y = h x (0 outside 1..T),
the residuals eps = a(B) y and eta = a(F) y have tapered DFTs d a(z) and
d conj(a(z)), so I/f0 = |d a(z)|^2 / (s2 sum h^2) is the residuals'
periodogram over s2, and on the N-th roots of unity
sum_k |D(lam_k)|^2 e^{i j lam_k} = N sum_t eps_t eps_{t+j}.  A cosine slot
is therefore a residual autocovariance,

    Phi_j = sqrt(T / e(h)) sum_t eps_t eps_{t+j} / (s2 sum h^2)

(the -1 sums to zero), and an own slot j > p, where u turns |a|^2 into
a(z)^2, reads sum_t eta_t eps_{t+j} in its place, less the slot's exact
grid sum / N: sum_{l >= 1} kappa_{l N - j}, kappa_i = e1' a(C) C^i e1 the
coefficients of u, C the companion matrix of a (theta^{N-j} (1 - theta^2)
/ (1 - theta^N) for an AR(1)).  This holds while no lag wraps around the
grid, m + T + p - o <= N, o = p for the own basis and 0 for a cosine one;
beyond, and for every other null or basis, the tests project the
periodogram.
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
from .models import ARMA, Model, _constants, _poly_on_circle, ar_polynomial
from .spectrum import Periodogram, _values_of, canonical_grid, tapered_periodogram
from .taper import Taper, tapering_factor
from .whittle import WhittleFit, info_matrices, whittle_estimate

logger = logging.getLogger(__name__)

_NU_TOL = 1e-6  # a mixture weight this close to 0 or 1 is taken as exactly that


@dataclass(frozen=True)
class TestBasis:
    """m harmonic orthonormal test functions on [-pi, pi].

    `ar` is empty, or the coefficients (1, -phi_1, ..., -phi_p) of an AR
    polynomial a (`models.ar_polynomial`).  The first `zero` = p slots are
    identically zero: they carry no statistic mass and no degree of
    freedom.  Slot j > p (counted from 1) is

        phi_j(lam) = Re(e^{i j lam} u(lam)) / sqrt(pi)

    with u = a(e^{-i lam}) / a(e^{i lam}), or u = 1 when `ar` is empty.
    Every slot is even by construction: the periodogram is even in lambda,
    so an odd slot would project to exactly zero for every sample while
    still claiming a degree of freedom.

    `project(c, r)` gives the m sums sum_k phi_j(lam_k) r_k that
    `phi_vector` takes, without building the slots (see the module
    docstring); `values` builds them, for the population quadratures.
    """

    __test__ = False  # data container; keeps pytest from collecting it

    m: int
    ar: tuple = ()

    def __post_init__(self):  # any sequence of coefficients, compared by value
        object.__setattr__(self, "ar", tuple(map(float, self.ar)))

    @property
    def zero(self) -> int:
        return max(len(self.ar) - 1, 0)

    @property
    def active(self) -> tuple:
        return tuple(range(self.zero, self.m))

    @property
    def m_active(self) -> int:
        return self.m - self.zero

    def _ratio(self, c):
        """u = conj(q) / q, q = a(e^{i lam}) for real a, on the constants c."""
        if not self.ar:
            return None
        q = _poly_on_circle(np.array(self.ar), c.exp_ij(1))
        return np.conj(q) / q

    def values(self, lam) -> np.ndarray:
        """All slots at an array of frequencies or a FrequencyConstants value."""
        c = _constants(lam)
        u = self._ratio(c)
        rows = [np.zeros_like(c.lam)] * self.zero
        rows += [np.real(c.exp_ij(j) if u is None else c.exp_ij(j) * u) / math.sqrt(math.pi)
                 for j in range(self.zero + 1, self.m + 1)]
        return np.vstack(rows)

    def project(self, c, r) -> np.ndarray:
        """Re(sum_k e^{i j lam_k} u_k r_k) / sqrt(pi) per slot, from c's table."""
        u = self._ratio(c)
        v = np.asarray(r if u is None else u * r, dtype=complex)
        sums = np.array([np.real(c.exp_ij(j) @ v) for j in range(self.zero + 1, self.m + 1)])
        return np.concatenate((np.zeros(self.zero), sums / math.sqrt(math.pi)))


def cosine_basis(m: int) -> TestBasis:
    """phi_j(lam) = cos(j lam) / sqrt(pi), j = 1..m.

    Orthonormal by construction (the tests certify it).
    """
    m = int(m)
    if m < 1:
        raise DomainError("cosine basis needs m >= 1")
    return TestBasis(m)


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
    degree of freedom per active slot.  It is orthonormal and
    score-orthogonal by construction (the tests certify both).
    """
    a = ar_polynomial(model)
    if a is None:
        kind = "a pure AR" if type(model) is ARMA else "an AR family"
        raise DomainError(f"score-orthogonal basis requires {kind} model")
    p = len(a) - 1
    m = int(m)
    if m <= p:
        raise DomainError(f"need m > p = {p} basis slots")
    return TestBasis(m, a)


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


def _null_residual(pgram: Periodogram, f0: Model) -> np.ndarray:
    """I/f0 - 1 on the grid's nodes (f0 is even), times their fold weights."""
    grid = pgram.grid
    vals = np.asarray(f0.density(grid.constants), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise DomainError("null density is not positive and finite on the grid")
    resid = pgram.node_values / vals - 1.0
    return resid if grid.fold_weights is None else resid * grid.fold_weights


def phi_vector(pgram: Periodogram, taper: Taper, f0: Model, basis: TestBasis) -> np.ndarray:
    """Normalized projections of I/f0 - 1 onto the basis."""
    grid = pgram.grid
    resid = _null_residual(pgram, f0)
    scale = math.sqrt(pgram.T) / math.sqrt(4.0 * math.pi * tapering_factor(taper))
    return scale * basis.project(grid.constants, resid) * grid.weight


def _alias_sums(a: tuple, n: int, j: np.ndarray) -> np.ndarray:
    """(1 / n) sum_k Re(e^{i j lam_k} u_k) over the n grid points, for the
    slots j > p of AR polynomial a's own basis: sum_{l >= 1} kappa_{l n - j},
    kappa_i being the Fourier coefficient of u at frequency i (see the module
    docstring)."""
    if len(a) == 2:  # kappa_i = theta^i (1 - theta^2)
        theta = -a[1]
        return theta ** (n - j) * (1.0 - theta * theta) / (1.0 - theta**n)
    p = len(a) - 1
    C = np.eye(p, k=-1)  # companion matrix of a: 1 / a(z) = sum_i (C^i)_11 z^i
    C[0] = np.negative(a[1:])

    def power(k):
        return np.linalg.matrix_power(C, int(k))

    row = sum(ak * power(k)[0] for k, ak in enumerate(a))  # kappa_i = e1' a(C) C^i e1
    x = np.linalg.solve(np.eye(p) - power(n), np.eye(p)[0])  # (I - C^n)^{-1} e1
    return np.array([row @ power(n - k) @ x for k in j])


def _lag_phi(x: np.ndarray, taper: Taper, f0: Model, basis: TestBasis) -> np.ndarray | None:
    """`phi_vector` of a cosine basis or of f0's own AR basis under a pure-AR
    null f0, from the lagged products of the tapered series' AR residuals
    (see the module docstring); None for any other null or basis, and where
    a lag would wrap around the grid."""
    a = ar_polynomial(f0)
    if a is None or basis.ar not in ((), a):
        return None
    T, m, o, p = x.shape[0], basis.m, basis.zero, len(a) - 1
    n = canonical_grid(T, False).N
    if m + T + p - o > n:
        return None
    z = np.concatenate((np.zeros(p), taper.values(T) * x, np.zeros(m + p - 1)))
    # eps_{i+1} = (a(B) y)_{i+1} and eta_{i+1-p} = (a(F) y)_{i+1-p} at i, y = h x
    eps = np.convolve(z, a, "valid")
    left = np.convolve(z, a[::-1], "valid") if o else eps
    j = np.arange(o + 1, m + 1)
    cross = np.array([left[:eps.size - (k - o)] @ eps[k - o:] for k in j])
    phi = cross / (f0.sigma2 * taper.sum_of_powers(2, T))
    if o:
        phi = phi - _alias_sums(a, n, j)
    return np.concatenate((np.zeros(o), math.sqrt(T / tapering_factor(taper)) * phi))


def simple_test(series, taper: Taper, f0: Model, basis: TestBasis,
                alpha: float = 0.05) -> GofResult:
    """S = |Phi|^2 against chi^2 with one dof per active slot.  A series
    holding nan or inf is refused."""
    x = _values_of(series)
    if not np.all(np.isfinite(x)):
        raise DomainError("series contains nan or inf")
    phi = _lag_phi(x, taper, f0, basis)
    if phi is None:
        phi = phi_vector(tapered_periodogram(x, taper, shifted=f0.fractional), taper, f0, basis)
    s = float(np.dot(phi, phi))
    p_value, dof = reference_pvalue(s, basis.m_active)
    return GofResult(statistic=s, p_value=p_value, reject=bool(p_value < alpha),
                     alpha=float(alpha),
                     law={"kind": "chisq", "dof": dof}, phi=phi)


def gamma_matrix(model: Model) -> np.ndarray:
    """Score Gram matrix (1/4pi) int grad ln f grad ln f' dlam over
    `model.fitted_names`."""
    return info_matrices(model).W


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
                             degree=basis.m)  # the slots' top frequency, u being smooth
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
                   alpha: float = 0.05, kappa4: float = 0.0) -> GofResult:
    """Goodness-of-fit with the null density fitted by tapered Whittle.

    `basis` is either a TestBasis or a callable mapping the fitted model
    to one (score-orthogonal constructions depend on theta_hat).  The
    reference law is the chi-square mixture with one unit term per
    surplus active slot and one nu-weighted term per fitted shape
    parameter (see `reference_pvalue`); `law["dof"]` is its chi-square
    dof, or None for a genuine mixture.  Every nu is 1 exactly when the
    basis carries the fitted model's AR polynomial, however it was passed.
    """
    fit = whittle_estimate(series, taper, model, kappa4=kappa4)
    if not fit.converged:
        raise DomainError("estimator did not converge; test aborted")
    fitted = fit.model
    test_basis = require_surplus(basis(fitted) if callable(basis) else basis, fitted)
    own_basis = test_basis.ar == ar_polynomial(fitted)  # b = 0 (see `ar_example_basis`)
    phi = _lag_phi(_values_of(series), taper, fitted, test_basis)
    if phi is None:
        # the fitted model has the null's family, so the fit's grid is the test's
        pgram = fit.periodogram
        if pgram is None:
            pgram = tapered_periodogram(series, taper, shifted=fitted.fractional)
        phi = phi_vector(pgram, taper, fitted, test_basis)
    s = float(np.dot(phi, phi))
    p = len(fitted.fitted_names)
    m_active = test_basis.m_active
    if own_basis:
        nu = np.ones(p)
    else:
        b_eff = math.sqrt(tapering_factor(taper)) * b_matrix(fitted, test_basis, taper)
        nu = mixture_weights(gamma_matrix(fitted), b_eff)
    p_value, dof = reference_pvalue(s, m_active - p, nu)
    law = {"kind": "mixture" if dof is None else "chisq", "dof": dof,
           "unit_dof": m_active - p, "nu": tuple(float(v) for v in nu)}
    return GofResult(statistic=s, p_value=p_value,
                     reject=bool(p_value < alpha), alpha=float(alpha),
                     law=law, phi=phi, fit=fit)
