"""Spectral exponent arithmetic for exit-time tail predictions.

Everything in this module is a pure function of the drift eigenvalues, the
time-scale parameter ``alpha`` and a few scalar knobs.  The survival
probability of a path started at distance ~eps from a repelling equilibrium,
measured at the threshold time ``alpha * log(1/eps) + r``, decays like
``eps ** tail_exponent(spectrum, alpha)``; the functions here compute that
exponent, the critical coordinate index where mass concentrates, and the
admissibility limits for eps-dependent initial scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectrumInvalid

# Relative tolerance for deciding alpha * lambda_j == 1.  The product is
# compared to 1.0 exactly first, so representable boundary cases (alpha = 0.5,
# lambda = 2.0, ...) classify exactly.
BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing positive eigenvalues of the linearized drift.

    Parameters
    ----------
    lambdas:
        Sequence ``lambda_1 > lambda_2 > ... > lambda_d > 0``.
    """

    lambdas: tuple[float, ...]

    def __init__(self, lambdas):
        values = tuple(float(v) for v in np.atleast_1d(np.asarray(lambdas, dtype=float)))
        if len(values) == 0:
            raise SpectrumInvalid("spectrum must contain at least one eigenvalue")
        if not all(math.isfinite(v) for v in values):
            raise SpectrumInvalid("spectrum entries must be finite")
        if values[-1] <= 0.0:
            raise SpectrumInvalid("spectrum entries must be positive")
        for a, b in zip(values, values[1:]):
            if not a > b:
                raise SpectrumInvalid("spectrum must be strictly decreasing")
        object.__setattr__(self, "lambdas", values)

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def leading(self) -> float:
        return self.lambdas[0]

    @property
    def smallest(self) -> float:
        return self.lambdas[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)


@dataclass(frozen=True)
class ThresholdSpec:
    """Observation time ``alpha * log(1/eps) + r0 + r_coeff * eps**r_exponent``.

    ``r0`` is the eps-independent offset; the optional power term models a
    vanishing correction and must have a positive exponent so the offset
    converges as eps -> 0.
    """

    alpha: float
    r0: float = 0.0
    r_coeff: float = 0.0
    r_exponent: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not math.isfinite(self.r0):
            raise ValueError("r0 must be finite")
        if not (math.isfinite(self.r_coeff) and math.isfinite(self.r_exponent)):
            raise ValueError("r_coeff and r_exponent must be finite")
        if self.r_coeff != 0.0 and self.r_exponent <= 0.0:
            raise ValueError("r_exponent must be positive when r_coeff is nonzero")

    def time(self, epsilon: float) -> float:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        return (self.alpha * math.log(1.0 / epsilon) + self.r0
                + self.r_coeff * epsilon**self.r_exponent)


@dataclass(frozen=True)
class InitialScaleSpec:
    """Initial distance written as ``kappa * eps ** (1 - rho)`` relative to eps.

    Stored as the pair (kappa, rho) with the convention that the start point
    is eps * kappa * eps**(-rho) * direction, i.e. rho = 0 is the plain
    eps-scale start and rho > 0 lets the start grow relative to eps.
    """

    kappa: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be positive")
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError("rho must be >= 0")

    def value(self, epsilon: float) -> float:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        return self.kappa * epsilon ** (-self.rho)


def _boundary_cmp(alpha: float, lam: float) -> int:
    """Sign of (alpha * lam - 1) with a relative tolerance band around 0."""
    p = alpha * lam
    if p == 1.0 or abs(p - 1.0) <= BOUNDARY_RTOL * max(1.0, abs(p)):
        return 0
    return -1 if p < 1.0 else 1


def critical_index(spectrum: Spectrum, alpha: float) -> int:
    """Index ``i`` with ``1/lambda_{i-1} < alpha <= 1/lambda_i``.

    Uses the conventions ``1/lambda_0 = infinity`` implicitly (small alpha,
    including alpha = 0, gives i = 1) and returns ``d + 1`` when
    ``alpha > 1/lambda_d``.  The total exit exponent changes slope exactly
    at the alpha values where this index jumps.
    """
    if not (math.isfinite(float(alpha)) and alpha >= 0.0):
        raise ValueError("alpha must be finite and >= 0")
    for j, lam in enumerate(spectrum.lambdas, start=1):
        if _boundary_cmp(alpha, lam) <= 0:
            return j
    return spectrum.d + 1


def is_boundary_case(spectrum: Spectrum, alpha: float) -> bool:
    """True when alpha sits on a kink, i.e. alpha == 1/lambda_i for some i."""
    return any(_boundary_cmp(alpha, lam) == 0 for lam in spectrum.lambdas)


def tail_exponent(spectrum: Spectrum, alpha: float) -> float:
    """Decay exponent ``sum_j max(lambda_j * alpha - 1, 0)``.

    Piecewise linear and convex in alpha; identically 0 for
    ``alpha <= 1/lambda_1`` and of slope ``lambda_1 + ... + lambda_d`` past
    ``1/lambda_d``.  Terms within the boundary tolerance contribute exactly 0.
    """
    if not (math.isfinite(float(alpha)) and alpha >= 0.0):
        raise ValueError("alpha must be finite and >= 0")
    total = 0.0
    for lam in spectrum.lambdas:
        if _boundary_cmp(alpha, lam) > 0:
            total += lam * alpha - 1.0
    return total


def classify_admissible(
    scale: InitialScaleSpec, spectrum: Spectrum, alpha: float
) -> bool:
    """Whether an eps**(-rho)-growing initial scale keeps the prediction valid.

    The growth exponent rho must stay strictly below a margin that depends on
    where alpha sits relative to the spectrum:

    - interior (``alpha < 1/lambda_i`` strictly): ``rho < 1 - lambda_i * alpha``
    - boundary (``alpha == 1/lambda_i``): ``rho < 1 - lambda_{i+1} * alpha``
      with ``lambda_{d+1} = 0``
    - past the spectrum (``alpha > 1/lambda_d``): ``rho < 1``
    """
    i = critical_index(spectrum, alpha)
    d = spectrum.d
    if i == d + 1:
        return scale.rho < 1.0
    lam_i = spectrum.lambdas[i - 1]
    if _boundary_cmp(alpha, lam_i) == 0:
        lam_next = spectrum.lambdas[i] if i < d else 0.0
        return scale.rho < 1.0 - lam_next * alpha
    return scale.rho < 1.0 - lam_i * alpha
