"""Lebesgue-space geometry of the monomial system.

Gram matrices of the monomials, the distances d_n from each monomial to the
span of the others, the majorant function psi built from them, and the two
classical Muntz polynomial inequality checkers.

The distances use the closed Cauchy-system product formula

    d_n = (2*lambda_n + 1)**-0.5 * prod_{m != n} |lambda_n - lambda_m| / (lambda_n + lambda_m + 1)

evaluated in the log domain: Gram determinants are catastrophically
ill-conditioned in fixed precision, while the product is stable and O(N) per
distance.  All N distances come from one N x N array of log factors, each
row summed exactly.  A determinant-ratio oracle in extended precision lives
in :mod:`muntzlab.highprec` for cross-validation.

psi and its derivatives are signed sums of terms given by their logs.
:class:`PsiEvaluator` tabulates the log weights and signs of every order
once, and its scalar and array evaluations share one kernel: each lane of
terms is scaled by its largest term and exponentiated in place, skipping the
terms that underflow.  Several orders at the same points (Psi needs psi and
psi') come from one call.

Truncation caveat: the d_n computed from N exponents are >= the distances of
the infinite system, so the truncated psi is a LOWER estimate of the full
majorant; consumers of psi carry this flag.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, SingularSystemError, UndefinedRatioError
from .logdomain import NEG_INF
from .polynomials import MuntzPolynomial
from .sequences import LambdaSequence

PSI_TAIL_RTOL = 1e-12
PSI_K_MAX = 4
EXP_FLOOR = -746.0     # exp(x) is exactly 0 in double below this


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD matrix of pairwise inner products."""

    entries: np.ndarray
    basis: str          # "raw" monomials or "normalized" g_n = lambda_n^(1/2) x^lambda_n
    measure: str        # "lebesgue" or "mu"

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameterError("Gram matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def lebesgue_gram(seq: LambdaSequence, normalized: bool = True) -> GramMatrix:
    """Closed-form Lebesgue Gramian.

    Raw entry 1/(lambda_n + lambda_m + 1); normalized entry
    sqrt(lambda_n lambda_m)/(lambda_n + lambda_m + 1).
    """
    lam = seq.values
    if np.unique(lam).size != lam.size:
        raise SingularSystemError("duplicate exponents give a singular system")
    denom = lam[:, None] + lam[None, :] + 1.0
    if normalized:
        entries = np.sqrt(np.outer(lam, lam)) / denom
    else:
        entries = 1.0 / denom
    return GramMatrix(entries, basis="normalized" if normalized else "raw",
                      measure="lebesgue")


@dataclass(frozen=True)
class DistanceTable:
    """Truncated distances d_n and their decay exponents gamma_n."""

    lambdas: np.ndarray
    log_d: np.ndarray
    n_seq: int

    @property
    def d(self) -> np.ndarray:
        return np.exp(self.log_d)

    @property
    def gamma(self) -> np.ndarray:
        return -self.log_d / self.lambdas

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "lambda_n", "d_n", "gamma_n"])
            for n, (lam, d, g) in enumerate(zip(self.lambdas, self.d,
                                                self.gamma), start=1):
                writer.writerow([n, repr(float(lam)), repr(float(d)),
                                 repr(float(g))])


def distances(seq: LambdaSequence) -> DistanceTable:
    """Distances from each monomial to the span of the others (log domain).

    Row n of one N x N array holds the log factors of d_n, with
    -log(2 lambda_n + 1)/2 on the diagonal; each row is summed exactly.
    """
    lam = seq.values
    if np.unique(lam).size != lam.size:
        raise SingularSystemError("duplicate exponents give a singular system")
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, 1.0)
    terms = np.log(gaps) - np.log(lam[:, None] + lam[None, :] + 1.0)
    np.fill_diagonal(terms, -0.5 * np.log(2.0 * lam + 1.0))
    log_d = np.array([math.fsum(row) for row in terms.tolist()])
    log_d.setflags(write=False)
    return DistanceTable(lambdas=lam, log_d=log_d, n_seq=len(seq))


def scaled_distance(table: DistanceTable | LambdaSequence, a: float, n: int) -> float:
    """d_n(a) = a**(lambda_n + 1/2) * d_n on M^2 over [0, a]; n is 1-based."""
    if isinstance(table, LambdaSequence):
        table = distances(table)
    if not 0.0 < a < 1.0:
        raise InvalidParameterError("a must lie in (0, 1)")
    if not 1 <= n <= table.n_seq:
        raise InvalidParameterError(f"index {n} outside 1..{table.n_seq}")
    lam = table.lambdas[n - 1]
    return math.exp((lam + 0.5) * math.log(a) + table.log_d[n - 1])


class PsiValue(NamedTuple):
    value: float
    tail_sound: bool     # last included term below PSI_TAIL_RTOL of the sum


@dataclass(frozen=True)
class PsiEvaluator:
    """psi(x) = sum_n d_n**-1 x**lambda_n and derivatives up to k_max.

    Built from truncated distances, hence a lower estimate of the infinite
    psi; the tail flag marks evaluations whose last term is not yet
    negligible (truncation possibly unsound, typically x -> 1).

    The term of order k is w_n (lambda_n)_k x**(lambda_n - k), with the
    falling factorial (lambda_n)_k; its log weight and sign are tabulated per
    order when the evaluator is built.  :meth:`eval_many` and
    :meth:`log_eval` share one array kernel that scales every lane of terms
    by its largest one.
    """

    lambdas: np.ndarray
    log_inv_d: np.ndarray
    k_max: int = PSI_K_MAX
    # per order k: exponents lambda - k, log weights and signs of the terms
    _exponents: np.ndarray = field(init=False, repr=False, compare=False)
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.lambdas
        orders = np.arange(self.k_max + 1)
        # factors[k, n, j] = lambda_n - j for j < k, and 1 beyond
        factors = np.where(orders[None, None, :] < orders[:, None, None],
                           lam[None, :, None] - orders[None, None, :], 1.0)
        # a zero factor (lambda an integer < k) kills its term: sign 0
        with np.errstate(divide="ignore"):
            log_ff = np.sum(np.log(np.abs(factors)), axis=2)
        object.__setattr__(self, "_exponents", lam[None, :] - orders[:, None])
        object.__setattr__(self, "_log_weights", self.log_inv_d + log_ff)
        object.__setattr__(self, "_signs", np.prod(np.sign(factors), axis=2))

    @classmethod
    def from_sequence(cls, seq: LambdaSequence, k_max: int = PSI_K_MAX) -> "PsiEvaluator":
        table = distances(seq)
        return cls(lambdas=table.lambdas, log_inv_d=-table.log_d, k_max=k_max)

    @property
    def n_seq(self) -> int:
        return int(self.lambdas.size)

    def _check_order(self, k: int) -> None:
        if k < 0 or k > self.k_max:
            raise InvalidParameterError(f"derivative order {k} outside 0..{self.k_max}")

    def _scaled_sums(self, k: int, term_logs: np.ndarray):
        """Kernel: ``(sums, m, last)`` from the order-k term logs without
        their weights, shape ``(terms, lanes)`` (overwritten).

        psi^(k) = sums * exp(m) per lane, with m the largest term log (0 where
        that is not finite), and ``last`` the log of the last term.  Every
        step works in place.  exp is taken only above EXP_FLOOR, where it is
        not exactly 0 (an underflowing exp costs several normal ones); the
        logs left below it are then set to 0 by clipping at 0, which no exp
        value is below.
        """
        term_logs += self._log_weights[k][:, None]
        m = term_logs.max(axis=0)
        m = np.where(np.isfinite(m), m, 0.0)
        last = term_logs[-1].copy()
        term_logs -= m
        np.exp(term_logs, out=term_logs, where=term_logs > EXP_FLOOR)
        np.maximum(term_logs, 0.0, out=term_logs)
        return np.einsum("i,ij->j", self._signs[k], term_logs), m, last

    def log_eval(self, log_x: float, k: int = 0) -> tuple[float, float, bool]:
        """(log |psi^(k)|, sign, tail_sound) at x = exp(log_x), log_x < 0."""
        self._check_order(k)
        if log_x >= 0.0:
            if log_x == 0.0:
                raise InvalidParameterError("psi is evaluated on [0, 1) only")
            raise InvalidParameterError("log_x must be < 0")
        exponents = self._exponents[k]
        if log_x == NEG_INF:
            if np.any(exponents < 0.0):
                return math.inf, 1.0, True
            at_zero = np.flatnonzero(exponents == 0.0)
            if not at_zero.size:
                return NEG_INF, 0.0, True
            # the exponents are distinct: one constant term
            n = at_zero[0]
            return float(self._log_weights[k][n]), float(self._signs[k][n]), True
        sums, m, last = self._scaled_sums(k, exponents[:, None] * log_x)
        total = float(sums[0])
        if total == 0.0:
            log_abs, sign = NEG_INF, 0.0
        else:
            log_abs, sign = float(m[0]) + math.log(abs(total)), math.copysign(1.0, total)
        tail_sound = bool(last[0] <= log_abs + math.log(PSI_TAIL_RTOL))
        return log_abs, sign, tail_sound

    def eval(self, x: float, k: int = 0) -> PsiValue:
        if not 0.0 <= x < 1.0:
            raise InvalidParameterError("psi is defined on [0, 1)")
        log_x = math.log(x) if x > 0.0 else NEG_INF
        log_abs, sign, sound = self.log_eval(log_x, k)
        return PsiValue(value=sign * math.exp(log_abs), tail_sound=sound)

    def eval_many(self, log_x, k: int | tuple[int, ...] = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (values, tail_sound) over an array of finite log x < 0.

        ``k`` is one derivative order, or a sequence of orders: then both
        arrays get a leading axis over the orders, and each row equals the
        single-order call.
        """
        single = np.ndim(k) == 0
        orders = (k,) if single else tuple(k)
        for order in orders:
            self._check_order(order)
        log_x = np.asarray(log_x, dtype=float).ravel()
        values, sound = [], []
        for order in orders:
            term_logs = np.multiply.outer(self._exponents[order], log_x)
            sums, m, last = self._scaled_sums(order, term_logs)
            sound.append(last <= m + np.log(np.abs(sums) + 1e-300)
                         + math.log(PSI_TAIL_RTOL))
            values.append(sums * np.exp(m))
        if single:
            return values[0], sound[0]
        return np.array(values), np.array(sound)


def psi_a_eval(psi: PsiEvaluator, a: float, x: float) -> PsiValue:
    """psi_a(x) = a**-1/2 psi(x/a), the majorant for M^2 over [0, a]."""
    if not 0.0 < a <= 1.0:
        raise InvalidParameterError("a must lie in (0, 1]")
    if not 0.0 <= x < a:
        raise InvalidParameterError("x must lie in [0, a)")
    inner = psi.eval(x / a, 0)
    return PsiValue(value=inner.value / math.sqrt(a), tail_sound=inner.tail_sound)


def big_psi(psi: PsiEvaluator, x: float) -> PsiValue:
    """Psi(x) = psi'(x**(1/4)) * psi(x**(1/4)), the Hilbert-Schmidt majorant."""
    if not 0.0 < x < 1.0:
        raise InvalidParameterError("x must lie in (0, 1)")
    root = x ** 0.25
    deriv = psi.eval(root, 1)
    plain = psi.eval(root, 0)
    return PsiValue(value=deriv.value * plain.value,
                    tail_sound=deriv.tail_sound and plain.tail_sound)


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    slack: float


def pointwise_bound_check(f: MuntzPolynomial, x: float, beta,
                          *, tol: float = 1e-9) -> BoundCheck:
    """|f(x)| <= 2 (sum_k x**(lambda_k beta_k)) ||f||_inf for convex weights beta.

    The sup norm on the right is a grid estimate.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(f.sequence),):
        raise InvalidParameterError("beta must have one weight per exponent")
    if np.any(beta < 0.0) or abs(beta.sum() - 1.0) > 1e-12:
        raise InvalidParameterError("beta must be nonnegative and sum to 1")
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError("x must lie in [0, 1]")
    lhs = abs(f(x))
    if x > 0.0:
        weight_sum = float(np.sum(np.exp(f.lambdas * beta * math.log(x))))
    else:
        weight_sum = float(np.sum(f.lambdas * beta == 0.0))
    rhs = 2.0 * weight_sum * f.sup_norm().value
    slack = rhs - lhs
    return BoundCheck(lhs=lhs, rhs=rhs,
                      holds=bool(lhs <= rhs + tol * max(1.0, rhs)), slack=slack)


def bernstein_ratio(f: MuntzPolynomial) -> float:
    """||f'||_inf / ((sum_k lambda_k) ||f||_inf), sup norms grid-estimated.

    Used to bound the Bernstein-type constant of a fixed sequence empirically
    over random samples.
    """
    if f.is_zero:
        raise UndefinedRatioError("ratio undefined for the zero polynomial")
    sup = f.sup_norm().value
    dsup = f.derivative_sup_norm().value
    return dsup / (float(np.sum(f.lambdas)) * sup)
