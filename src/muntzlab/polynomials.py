"""Muntz polynomials sum_k alpha_k x**(lambda_k) and their norm estimates.

Evaluation goes through exp(lambda * log x) (:func:`powers`), so powers with
huge exponents underflow gracefully instead of losing the base to rounding,
and sums the terms in order (:func:`_combine`), so a point reads the same
value alone or inside an array.
Sup norms are grid estimates (Chebyshev-spaced points plus dyadic refinement
toward 1, where Muntz polynomials concentrate) and are flagged as estimates:
they feed inequality checkers, never certificates.  The sequence keeps its
power tables over the grid, so a sup norm is one product.  The roots in
(0, 1) are isolated by the Rolle chain (:func:`_roots`), and a polynomial
keeps them (:attr:`MuntzPolynomial.roots`), as its L^p norms against
every measure read them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .sequences import LambdaSequence

SUP_GRID_SIZE = 2 ** 14 + 1
_NEAR_ONE_LEVELS = 48
# rounding allowance per unit of a sum's term magnitudes: pairwise summation
# of ~1e4 positive terms costs about 14 eps, the values and powers a few eps
# each.  The root isolation takes it per unit of a polynomial's terms.
ROUNDING_RTOL = 64.0 * sys.float_info.epsilon


class SupNormEstimate(NamedTuple):
    value: float
    argmax: float
    is_estimate: bool = True


def sorted_distinct(values) -> np.ndarray:
    """The distinct values, ascending, as ``np.unique`` gives them, without
    the import of numpy.ma that ``np.unique`` makes on its first call."""
    ordered = np.sort(np.ravel(values))
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


# Chebyshev-spaced points on [0,1] plus dyadic points accumulating at 1
SUP_GRID = sorted_distinct(np.concatenate([
    0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, SUP_GRID_SIZE))),
    1.0 - 2.0 ** -np.arange(1, _NEAR_ONE_LEVELS, dtype=float), [0.0, 1.0]]))
SUP_GRID.setflags(write=False)


def log_points(x) -> np.ndarray:
    """log x over x in [0, 1], flattened to 1-D, -inf at x = 0; NaN and x
    outside [0, 1] are refused."""
    xv = np.ravel(np.asarray(x, dtype=float))
    # a NaN fails both comparisons
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise InvalidParameterError("x must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return np.where(xv > 0.0, np.log(xv), -np.inf)


def powers(exponents, log_x) -> np.ndarray:
    """``x**e`` for every exponent (rows) and point (columns), as
    ``exp(e * log x)`` built in place: underflow gives 0, and at x = 0 the
    power is 0 for e > 0, 1 for e == 0 and +inf for e < 0."""
    exponents = np.asarray(exponents, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.multiply.outer(exponents, np.asarray(log_x, dtype=float))
    out[exponents == 0.0] = 0.0                      # 0 * -inf at x = 0
    return np.exp(out, out=out)


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``coeffs @ basis`` for a 1-D ``coeffs`` or each row of a 2-D one,
    accumulated term by term, so that a value depends neither on the rows
    nor on the points evaluated with it (a BLAS product picks its kernel by
    shape, and one column can round differently from many)."""
    out = coeffs[..., :1] * basis[0]
    for k in range(1, basis.shape[0]):
        out += coeffs[..., k:k + 1] * basis[k]
    return out


def _roots(coeffs, lambdas) -> list[float]:
    """Every root in (0, 1) of ``f = sum c_k x**lambda_k``, lambda ascending,
    as ``t = 1 - x`` ascending: the Rolle chain of a Descartes system
    (Borwein and Erdelyi, *Polynomials and Polynomial Inequalities*, Ch. 3).

    f has at most as many positive roots as its coefficients have sign
    changes.  Beyond one, the roots of ``(x**-lambda_1 f)'``, one term fewer,
    cut (0, 1) into pieces where ``h = x**-lambda_1 f`` is monotone, so each
    holds a root exactly when h changes sign across it.  A critical point
    where ``|h|`` is within rounding is itself a root: a near-double root is
    split at, never integrated across.
    """
    terms = [(ck, ek) for ck, ek in zip(coeffs, lambdas) if ck != 0.0]
    changes = sum((a < 0.0) != (b < 0.0) for (a, _), (b, _) in zip(terms, terms[1:]))
    if changes == 0:
        return []
    c0, e0 = terms[0]
    rest = [(ck, ek - e0) for ck, ek in terms[1:]]

    def h(t):
        log_x = math.log1p(-t) if t < 1.0 else -math.inf
        return c0 + sum(ck * math.exp(ek * log_x) for ck, ek in rest)

    def sign(t):
        """Sign of h(t) below t = 1, 0 within the rounding of its terms."""
        log_x = math.log1p(-t)
        size = abs(c0) + sum(abs(ck) * math.exp(ek * log_x) * (1.0 - ek * log_x)
                             for ck, ek in rest)
        value = h(t)
        return 0.0 if abs(value) <= ROUNDING_RTOL * size else math.copysign(1.0, value)

    critical = [] if changes == 1 else _roots([ck * ek for ck, ek in rest],
                                              [ek for _, ek in rest])
    ends = [0.0, *critical, 1.0]
    signs = [sign(t) for t in ends[:-1]] + [math.copysign(1.0, c0)]   # h(x=0) = c0
    roots = []
    for k in range(len(ends) - 1):
        if k and signs[k] == 0.0:
            roots.append(ends[k])
        if signs[k] * signs[k + 1] < 0.0:
            roots.append(quadrature.bisect_root(h, ends[k], ends[k + 1]))
    return roots


def derivative_grid(lambda1: float) -> np.ndarray:
    """The points of SUP_GRID where f' is finite: x = 0 is left out when
    lambda_1 < 1, where the first term's derivative diverges."""
    return SUP_GRID[1:] if lambda1 < 1.0 else SUP_GRID


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

    @cached_property
    def roots(self) -> np.ndarray:
        """Every root in (0, 1) as ``t = 1 - x`` ascending (:func:`_roots`),
        isolated when first read and kept, read-only."""
        roots = np.array(_roots(self.coefficients.tolist(),
                                self.lambdas.tolist()))
        roots.setflags(write=False)
        return roots

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coefficients == 0.0))

    def __call__(self, x):
        """Evaluate at x in [0, 1] (scalar or array)."""
        out = self.eval_at_log(log_points(x))
        return float(out[0]) if np.ndim(x) == 0 else out

    def eval_at_log(self, log_x) -> np.ndarray:
        """Evaluate from log x values (log x <= 0)."""
        return _combine(self.coefficients, powers(self.lambdas, np.ravel(log_x)))

    def derivative(self, x):
        """f'(x) = sum alpha_k lambda_k x**(lambda_k - 1) for x in [0, 1].

        At x = 0 a term with lambda_k < 1 diverges, unless alpha_k = 0: the
        powers of zero terms are zeroed, so they add 0 rather than 0 * inf.
        """
        weights = self.coefficients * self.lambdas
        table = powers(self.lambdas - 1.0, log_points(x))
        table[weights == 0.0] = 0.0
        out = _combine(weights, table)
        return float(out[0]) if np.ndim(x) == 0 else out

    def sup_norm(self) -> SupNormEstimate:
        vals = np.abs(_combine(self.coefficients, self.sequence.sup_powers))
        k = int(np.argmax(vals))
        return SupNormEstimate(value=float(vals[k]), argmax=float(SUP_GRID[k]))

    def derivative_sup_norm(self) -> SupNormEstimate:
        grid = derivative_grid(self.lambdas[0])
        vals = np.abs(_combine(self.coefficients * self.lambdas,
                               self.sequence.sup_derivative_powers))
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
