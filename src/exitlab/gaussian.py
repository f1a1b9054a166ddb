"""Gaussian limit law of the rescaled state and the survival prefactor.

After rescaling by eps and pushing through the linearizing map, the state at
the threshold time converges to a Gaussian with an explicit covariance built
from sigma(0) and the spectrum.  The eps-free constant multiplying the decay
``eps ** tail_exponent`` is a partially-integrated Gaussian density; this
module computes it in closed form by block marginalization and also by a
Monte Carlo quadrature of the defining integral, kept deliberately
independent of the closed-form algebra so each can validate the other.

scipy loads on first use, inside the functions that call it, so importing
this module, and every run that never reaches them, needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BoxDomain
from .errors import RankDeficient
from .exponents import Spectrum, _boundary_cmp, critical_index

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Key word reserved for the prefactor quadrature stream; never collides with
# path ids, which stay far below 2**62.
_ORACLE_STREAM = np.uint64(1) << np.uint64(62)


@dataclass(frozen=True)
class LimitCovariance:
    """Long-horizon covariance of the rescaled linearized state."""

    matrix: np.ndarray
    cholesky_factor: np.ndarray

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def limit_covariance(sigma0, spectrum: Spectrum) -> LimitCovariance:
    """C0[j,k] = (sigma sigma^T)[j,k] / (lambda_j + lambda_k).

    Requires sigma(0) of shape (d, n) with full rank d; the Cholesky factor
    is computed once and reused for densities and conditionals.
    """
    sigma0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    d = spectrum.d
    if sigma0.shape[0] != d:
        raise ValueError(f"sigma(0) must have {d} rows, got {sigma0.shape[0]}")
    if sigma0.shape[1] < d or np.linalg.matrix_rank(sigma0) < d:
        raise RankDeficient("sigma(0) must have full rank d")
    lam = spectrum.as_array()
    gram = sigma0 @ sigma0.T
    denom = lam[:, None] + lam[None, :]
    matrix = gram / denom
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("limit covariance is not positive definite") from exc
    return LimitCovariance(matrix=matrix, cholesky_factor=chol)


def finite_time_covariance(sigma0, spectrum: Spectrum, T: float) -> np.ndarray:
    """Covariance after a finite horizon T >= 0.

    Equals the limit covariance entrywise damped by
    ``1 - exp(-(lambda_j + lambda_k) T)``; exactly zero at T = 0 and
    converging to the limit at rate exp(-2 lambda_d T).
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError("T must be finite and >= 0")
    c0 = limit_covariance(sigma0, spectrum)
    lam = spectrum.as_array()
    denom = lam[:, None] + lam[None, :]
    return c0.matrix * -np.expm1(-denom * T)


def gaussian_density(C, z) -> float:
    """Centered multivariate normal density at z, via a Cholesky solve.

    No explicit inverse is formed.  An empty block (len(z) == 0) has density
    1 by the marginalization convention.  Raises RankDeficient when C is not
    positive definite.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    k = z.size
    if k == 0:
        return 1.0
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape != (k, k):
        raise ValueError(f"covariance shape {C.shape} does not match z of length {k}")
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("covariance is not positive definite") from exc
    from scipy.linalg import solve_triangular

    w = solve_triangular(L, z, lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    log_val = -0.5 * float(w @ w) - 0.5 * k * _LOG_2PI - 0.5 * log_det
    return math.exp(log_val)


def _std_normal_interval(a: float, b: float) -> float:
    """P(a < Z < b) for standard normal Z, stable in both tails."""
    if not b > a:
        return 0.0
    from scipy import special

    if a >= 0.0:
        p = 0.5 * (special.erfc(a / _SQRT2) - special.erfc(b / _SQRT2))
    elif b <= 0.0:
        p = 0.5 * (special.erfc(-b / _SQRT2) - special.erfc(-a / _SQRT2))
    else:
        p = 1.0 - 0.5 * (special.erfc(-a / _SQRT2) + special.erfc(b / _SQRT2))
    return float(p)  # a plain float, so rows print and parse back as numbers


@dataclass(frozen=True)
class PrefactorPrediction:
    """Survival prefactor split into its three factors.

    value == prefactor * marginal_density * boundary_probability, with the
    branch recording which case of the critical index applied.
    """

    value: float
    prefactor: float
    marginal_density: float
    boundary_probability: float
    branch: str
    critical_idx: int


def _check_inputs(spectrum: Spectrum, C0: LimitCovariance, box: BoxDomain, x):
    d = spectrum.d
    if C0.d != d:
        raise ValueError("covariance dimension does not match the spectrum")
    if box.d != d:
        raise ValueError("box dimension does not match the spectrum")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def _boundary_interval(spectrum: Spectrum, box: BoxDomain, r0: float,
                       i: int, x: np.ndarray) -> tuple[float, float]:
    """Interval the critical coordinate must land in, shifted by the start."""
    lam_i = spectrum.lambdas[i - 1]
    s = math.exp(-lam_i * r0)
    return s * box.lower[i - 1] - x[i - 1], s * box.upper[i - 1] - x[i - 1]


def survival_prefactor(spectrum: Spectrum, C0: LimitCovariance, box: BoxDomain,
                       r0: float, alpha: float, x) -> PrefactorPrediction:
    """Closed-form eps-free constant in front of eps ** tail_exponent.

    The fast coordinates (those with lambda_j * alpha > 1) each contribute a
    box width shrunk by exp(-lambda_j r0); the remaining block contributes
    the Gaussian marginal density at the start point, and exactly on a kink
    of the exponent the critical coordinate contributes the conditional
    probability of landing in its shrunk side interval.
    """
    x = _check_inputs(spectrum, C0, box, x)
    d = spectrum.d
    lam = spectrum.as_array()
    i = critical_index(spectrum, alpha)
    k = d if i == d + 1 else i - 1
    scale = np.exp(-lam[:k] * r0)
    prefactor = float(np.prod(box.widths[:k] * scale)) if k else 1.0
    if i == d + 1:
        md = gaussian_density(C0.matrix, x)
        return PrefactorPrediction(
            value=prefactor * md, prefactor=prefactor, marginal_density=md,
            boundary_probability=1.0, branch="full", critical_idx=i)
    md = gaussian_density(C0.matrix[:k, :k], x[:k])
    if _boundary_cmp(alpha, lam[i - 1]) == 0:
        lead = C0.matrix[:k, :k]
        cross = C0.matrix[i - 1, :k]
        if k:
            w = np.linalg.solve(lead, -x[:k])
            mean = float(cross @ w)
            var = float(C0.matrix[i - 1, i - 1] - cross @ np.linalg.solve(lead, cross))
        else:
            mean = 0.0
            var = float(C0.matrix[0, 0])
        if var <= 0.0:
            raise RankDeficient("conditional variance of the critical coordinate is not positive")
        std = math.sqrt(var)
        lo, hi = _boundary_interval(spectrum, box, r0, i, x)
        bp = _std_normal_interval((lo - mean) / std, (hi - mean) / std)
        return PrefactorPrediction(
            value=prefactor * md * bp, prefactor=prefactor, marginal_density=md,
            boundary_probability=bp, branch="boundary", critical_idx=i)
    return PrefactorPrediction(
        value=prefactor * md, prefactor=prefactor, marginal_density=md,
        boundary_probability=1.0, branch="interior", critical_idx=i)


def survival_prefactor_mc(spectrum: Spectrum, C0: LimitCovariance,
                          box: BoxDomain, r0: float, alpha: float, x,
                          n_samples: int = 1_000_000, seed: int = 0
                          ) -> tuple[float, float]:
    """Monte Carlo quadrature of the defining prefactor integral.

    Integrates the full-dimensional Gaussian density over the free block by
    importance sampling from an isotropic normal whose variance dominates the
    covariance spectrum (bounded weights), with the leading block pinned at
    the negated start point.  Returns (estimate, stderr).  Shares no
    marginalization algebra with :func:`survival_prefactor`.
    """
    x = _check_inputs(spectrum, C0, box, x)
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 10000 for a usable oracle")
    from scipy.linalg import solve_triangular

    d = spectrum.d
    lam = spectrum.as_array()
    i = critical_index(spectrum, alpha)
    k = d if i == d + 1 else i - 1
    scale = np.exp(-lam[:k] * r0)
    prefactor = float(np.prod(box.widths[:k] * scale)) if k else 1.0
    L = C0.cholesky_factor
    if i == d + 1:
        # no free block: the integral is the density itself, evaluated exactly
        w = solve_triangular(L, x, lower=True)
        log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        val = math.exp(-0.5 * float(w @ w) - 0.5 * d * _LOG_2PI - 0.5 * log_det)
        return prefactor * val, 0.0
    free = d - k
    v = 2.0 * float(np.max(np.linalg.eigvalsh(C0.matrix)))
    gen = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(seed), _ORACLE_STREAM],
                                      dtype=np.uint64)))
    U = gen.standard_normal((int(n_samples), free)) * math.sqrt(v)
    Z = np.empty((int(n_samples), d))
    if k:
        Z[:, :k] = -x[:k]
    Z[:, k:] = U
    W = solve_triangular(L, Z.T, lower=True)
    quad = np.sum(W * W, axis=0)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    log_w = (-0.5 * quad - 0.5 * d * _LOG_2PI - 0.5 * log_det
             + 0.5 * np.sum(U * U, axis=1) / v + 0.5 * free * math.log(2.0 * math.pi * v))
    wts = np.exp(log_w)
    if _boundary_cmp(alpha, lam[i - 1]) == 0:
        lo, hi = _boundary_interval(spectrum, box, r0, i, x)
        wts = wts * ((U[:, 0] > lo) & (U[:, 0] < hi))
    est = float(np.mean(wts))
    se = float(np.std(wts, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
    return prefactor * est, prefactor * se


def prefactor_bounds(spectrum: Spectrum, C0: LimitCovariance, box: BoxDomain,
                     r0: float, alpha: float, x, t_minus: float, t_plus: float
                     ) -> tuple[PrefactorPrediction, PrefactorPrediction]:
    """Bracket for exits from an enclosing domain reached by deterministic travel.

    A path leaving the box needs between t_minus and t_plus extra time to
    cross the enclosing domain, so its survival prefactor is bracketed by the
    box prefactor with the offset reduced by t_minus (lower) and t_plus
    (upper).  Requires 0 <= t_minus <= t_plus.
    """
    if not (0.0 <= t_minus <= t_plus) or not math.isfinite(t_plus):
        raise ValueError("travel times must satisfy 0 <= t_minus <= t_plus < inf")
    lower = survival_prefactor(spectrum, C0, box, r0 - t_minus, alpha, x)
    upper = survival_prefactor(spectrum, C0, box, r0 - t_plus, alpha, x)
    return lower, upper
