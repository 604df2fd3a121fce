"""Muntz polynomials sum_k alpha_k x**(lambda_k) and their norm estimates.

Evaluation goes through exp(lambda * log x), so powers with huge exponents
underflow gracefully instead of losing the base to rounding.  Sup norms are
grid estimates (Chebyshev-spaced points plus dyadic refinement toward 1,
where Muntz polynomials concentrate) and are flagged as estimates: they feed
inequality checkers, never certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .sequences import LambdaSequence

SUP_GRID_SIZE = 2 ** 14 + 1
_NEAR_ONE_LEVELS = 48


class SupNormEstimate(NamedTuple):
    value: float
    argmax: float
    is_estimate: bool = True


# Chebyshev-spaced points on [0,1] plus dyadic points accumulating at 1
SUP_GRID = np.unique(np.concatenate([
    0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, SUP_GRID_SIZE))),
    1.0 - 2.0 ** -np.arange(1, _NEAR_ONE_LEVELS, dtype=float), [0.0, 1.0]]))
SUP_GRID.setflags(write=False)


@dataclass(frozen=True)
class MuntzPolynomial:
    """Coefficients alpha_k on the exponents of a LambdaSequence."""

    sequence: LambdaSequence
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (len(self.sequence),):
            raise InvalidParameterError(
                "coefficient count must match the sequence length")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def lambdas(self) -> np.ndarray:
        return self.sequence.values

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coefficients == 0.0))

    def __call__(self, x):
        """Evaluate at x in [0, 1] (scalar or array)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        with np.errstate(divide="ignore"):
            log_x = np.where(xv > 0.0, np.log(xv), -np.inf)
        out = self.eval_at_log(log_x)
        return float(out[0]) if scalar else out

    def eval_at_log(self, log_x) -> np.ndarray:
        """Evaluate from log x values (log x <= 0)."""
        log_x = np.atleast_1d(np.asarray(log_x, dtype=float))
        powers = np.exp(np.outer(self.lambdas, log_x))   # underflow -> 0
        return self.coefficients @ powers

    def derivative(self, x):
        """f'(x) = sum alpha_k lambda_k x**(lambda_k - 1) for x in (0, 1]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        with np.errstate(divide="ignore"):
            log_x = np.where(xv > 0.0, np.log(xv), -np.inf)
        lam = self.lambdas
        # exponent lambda_k - 1: at x = 0 the term vanishes for lambda_k > 1,
        # is the constant alpha_k*lambda_k for lambda_k == 1, diverges otherwise
        with np.errstate(invalid="ignore"):
            log_terms = np.outer(lam - 1.0, log_x)
        log_terms[np.isnan(log_terms)] = 0.0             # 0 * -inf at exact hits
        out = (self.coefficients * lam) @ np.exp(log_terms)
        return float(out[0]) if scalar else out

    def sup_norm(self) -> SupNormEstimate:
        vals = np.abs(self(SUP_GRID))
        k = int(np.argmax(vals))
        return SupNormEstimate(value=float(vals[k]), argmax=float(SUP_GRID[k]))

    def derivative_sup_norm(self) -> SupNormEstimate:
        grid = SUP_GRID[SUP_GRID > 0.0] if self.lambdas[0] < 1.0 else SUP_GRID
        vals = np.abs(self.derivative(grid))
        k = int(np.argmax(vals))
        return SupNormEstimate(value=float(vals[k]), argmax=float(grid[k]))

    def l2_norm_lebesgue(self) -> float:
        """Exact L^2([0,1]) norm via the raw monomial Gramian."""
        lam = self.lambdas
        gram = 1.0 / (lam[:, None] + lam[None, :] + 1.0)
        q = float(self.coefficients @ gram @ self.coefficients)
        return math.sqrt(max(q, 0.0))


def random_unit(seq: LambdaSequence, rng: np.random.Generator, *,
                bias_last: bool = False) -> MuntzPolynomial:
    """Random coefficients uniform on the unit sphere.

    With ``bias_last`` the draw is tilted toward the largest exponent to
    probe near-1 behavior.
    """
    n = len(seq)
    coeffs = rng.standard_normal(n)
    if bias_last:
        coeffs *= np.geomspace(0.05, 1.0, n)
        coeffs[-1] += math.copysign(1.0, coeffs[-1])
    norm = float(np.linalg.norm(coeffs))
    if norm == 0.0:
        coeffs = np.zeros(n)
        coeffs[0] = 1.0
        norm = 1.0
    return MuntzPolynomial(seq, coeffs / norm)
