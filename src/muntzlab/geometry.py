"""Lebesgue-space geometry of the monomial system.

The Lebesgue Gramian B, the inverse W = L^-1 of its Cholesky factor in
closed form, the distances d_n from each monomial to the span of the others,
the majorant function psi built from them, and two classical Muntz
polynomial inequality checkers.  A :class:`LambdaSequence` keeps B, W, psi.

The distances use the closed Cauchy-system product formula

    d_n = (2*lambda_n + 1)**-0.5 * prod_{m != n} |lambda_n - lambda_m| / (lambda_n + lambda_m + 1)

evaluated in the log domain: Gram determinants are catastrophically
ill-conditioned in fixed precision, while the product is stable and O(N) per
distance.  All N distances, and W, come from two N x N arrays of log
factors.  A determinant-ratio oracle in extended precision lives in
:mod:`muntzlab.highprec` for cross-validation.

psi and its derivatives are signed sums of terms given by their logs.
:class:`PsiEvaluator` tabulates the log weights and signs of every order
once, and one kernel builds the terms of one order over an array of log x,
each lane scaled by its largest term, clipped at e^-700 and exponentiated
in place by numpy's vector exp.  :meth:`PsiEvaluator.eval_many` sums it into
log |psi^(k)|, the sign and the tail flag; a single point is a one-lane
call.  :meth:`PsiEvaluator.log_majorant` gives log psi, or log Psi of the
Hilbert-Schmidt majorant Psi(x) = psi'(y) psi(y), y = x^(1/4): an order-1
term is the order-0 term times lambda_n / y, so psi(y) and psi'(y) are two
sums over one array of order-0 terms.  The certificate integrals, the
tail-unsound widths and :func:`big_psi` all read Psi from there, each
tail-unsound width in two calls of at most 35 probes, and each dyadic
integral's first two rounds from one evaluation per width and majorant.

Truncation caveat: the d_n computed from N exponents are >= the distances of
the infinite system, so the truncated psi is a LOWER estimate of the full
majorant; consumers of psi carry this flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import InvalidParameterError, UndefinedRatioError
from .polynomials import MuntzPolynomial
from .sequences import LambdaSequence

PSI_TAIL_RTOL = 1e-12
PSI_K_MAX = 4
_TERM_LOG_FLOOR = -700.0   # scaled term logs are clipped here: e^-700 ~ 2^-1010
_BOUND_TOL = 1e-9      # relative slack of pointwise_bound_check
# log x at the t* probes x = 1 - 2^-j, j = 0..1074 (2^0 taken as 1 - 1e-16)
_PROBE_LOG_X = np.array([math.log1p(-min(2.0 ** -j, 1.0 - 1e-16))
                         for j in range(1075)])
_PROBE_STRIDE = 32     # the first pass of a t* search reads every 32nd probe
_COARSE_PROBES = np.append(np.arange(0, _PROBE_LOG_X.size, _PROBE_STRIDE),
                           _PROBE_LOG_X.size - 1)


def lebesgue_gram(seq: LambdaSequence) -> np.ndarray:
    """Closed-form Lebesgue Gramian of the normalized monomials, read-only:
    entry sqrt(lambda_n lambda_m)/(lambda_n + lambda_m + 1)."""
    lam = seq.values
    root = np.sqrt(lam)
    entries = np.outer(root, root) / (lam[:, None] + lam[None, :] + 1.0)
    entries.setflags(write=False)
    return entries


def _log_factors(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log |lambda_i - lambda_j| (0 on the diagonal) and
    log(lambda_i + lambda_j + 1), N x N: the factors of d_n and of W."""
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, 1.0)
    return np.log(gaps), np.log(lam[:, None] + lam[None, :] + 1.0)


def whitener(seq: LambdaSequence) -> np.ndarray:
    """W = L^-1 for B = L L^T, read-only: row r holds the coefficients of the
    r-th orthonormal Muntz-Legendre polynomial (Borwein, Erdelyi, Zhang 1994)
        W_rk = (-1)**(r-k) sqrt(1 + 2 lambda_r) / sqrt(lambda_k)
               * prod_{j<r} (lambda_k + lambda_j + 1) / prod_{j<=r, j!=k} |lambda_k - lambda_j|
    for k <= r, whose logs are prefix sums of the log factors, so a
    truncation's W is the leading block bit for bit.  Overflow reads inf."""
    lam = seq.values
    log_gaps, log_sums = _log_factors(lam)
    log_gaps[:, 1:] -= log_sums[:, :-1]
    log_w = (0.5 * np.log(2.0 * lam + 1.0)[:, None] - 0.5 * np.log(lam)
             - np.cumsum(log_gaps, axis=1).T)
    sign = np.where(np.arange(lam.size) % 2, -1.0, 1.0)
    with np.errstate(over="ignore"):
        w = np.tril(np.exp(log_w) * np.outer(sign, sign))
    w.setflags(write=False)
    return w


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
        from .reporting import write_csv
        write_csv(path, ["n", "lambda_n", "d_n", "gamma_n"],
                  zip(range(1, len(self.lambdas) + 1), self.lambdas, self.d,
                      self.gamma))


def distances(seq: LambdaSequence) -> DistanceTable:
    """Distances from each monomial to the span of the others (log domain).

    Row n of one N x N array holds the log factors of d_n, with
    -log(2 lambda_n + 1)/2 on the diagonal; each row is summed exactly.
    """
    lam = seq.values
    log_gaps, log_sums = _log_factors(lam)
    terms = log_gaps - log_sums
    np.fill_diagonal(terms, -0.5 * np.log(2.0 * lam + 1.0))
    log_d = np.array([math.fsum(row) for row in terms.tolist()])
    log_d.setflags(write=False)
    return DistanceTable(lambdas=lam, log_d=log_d, n_seq=len(seq))


def scaled_distance(table: DistanceTable, a: float, n: int) -> float:
    """d_n(a) = a**(lambda_n + 1/2) * d_n on M^2 over [0, a]; n is 1-based."""
    if not 0.0 < a < 1.0:
        raise InvalidParameterError("a must lie in (0, 1)")
    if not 1 <= n <= table.n_seq:
        raise InvalidParameterError(f"index {n} outside 1..{table.n_seq}")
    lam = table.lambdas[n - 1]
    return math.exp((lam + 0.5) * math.log(a) + table.log_d[n - 1])


def _tail_sound(last: np.ndarray, log_abs: np.ndarray,
                log_x: np.ndarray) -> np.ndarray:
    """Tail-sound lanes: the last term below PSI_TAIL_RTOL of the sum, and
    x < 1."""
    return (last <= log_abs + math.log(PSI_TAIL_RTOL)) & (log_x < 0.0)


class PsiValue(NamedTuple):
    value: float
    tail_sound: bool     # last included term below PSI_TAIL_RTOL of the sum


@dataclass(frozen=True)
class PsiEvaluator:
    """psi(x) = sum_n d_n**-1 x**lambda_n and derivatives up to PSI_K_MAX.

    Built from truncated distances, hence a lower estimate of the infinite
    psi; the tail flag marks evaluations whose last term is not yet
    negligible (truncation possibly unsound, typically x -> 1).

    The term of order k is w_n (lambda_n)_k x**(lambda_n - k), with the
    falling factorial (lambda_n)_k; its log weight and sign are tabulated per
    order when the evaluator is built.  Every evaluation goes through one
    kernel, :meth:`_scaled_terms`, in the log domain.  Each tail-unsound
    width t* is found in at most two evaluations, cached.  The squared
    majorants on the first two rounds of a dyadic integral over (0, w] are
    kept per (w, majorant) (:meth:`refined_head`).
    """

    lambdas: np.ndarray
    log_inv_d: np.ndarray
    # per order k: exponents lambda - k, log weights and signs of the terms
    _exponents: np.ndarray = field(init=False, repr=False, compare=False)
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _signs: np.ndarray = field(init=False, repr=False, compare=False)
    # (width, big) -> (nodes t, squared majorant at x = 1 - t)
    _heads: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def __post_init__(self):
        lam = self.lambdas
        orders = np.arange(PSI_K_MAX + 1)
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
    def from_sequence(cls, seq: LambdaSequence) -> "PsiEvaluator":
        table = distances(seq)
        return cls(lambdas=table.lambdas, log_inv_d=-table.log_d)

    @property
    def n_seq(self) -> int:
        return int(self.lambdas.size)

    @cached_property
    def unsound_width(self) -> float:
        """Width t* such that psi is tail-unsound for 1 - x < t*."""
        return self._unsound_width(big=False)

    @cached_property
    def big_unsound_width(self) -> float:
        """t* of the Hilbert-Schmidt majorant Psi = psi'(x^(1/4)) psi(x^(1/4))."""
        return self._unsound_width(big=True)

    def _unsound_width(self, big: bool) -> float:
        """t* of psi, or of Psi when ``big``, over the probes t = 2^-j,
        j = 0..1074 (``_PROBE_LOG_X``): the last-term ratio is monotone in x,
        so the unsound probes are a final run of j, whose first j gives
        t* = min(2^(1-j), 1); 0 means sound at every probe.  A probe whose x
        rounds to 1 (for Psi from t = 2^-1073 on) is unsound.

        Two :meth:`log_majorant` calls bracket that first j: one over every
        32nd probe and the last, then one over the probes between the last
        sound one of those and the first unsound one.
        """
        unsound = ~self.log_majorant(_PROBE_LOG_X[_COARSE_PROBES], big)[1]
        if not unsound.any():
            return 0.0
        first = int(np.argmax(unsound))
        j = int(_COARSE_PROBES[first])
        if first:
            below = np.arange(_COARSE_PROBES[first - 1] + 1, j)
            run = ~self.log_majorant(_PROBE_LOG_X[below], big)[1]
            if run.any():
                j = int(below[np.argmax(run)])
        return min(2.0 ** (1 - j), 1.0)

    def _check_order(self, k: int) -> None:
        if k < 0 or k > PSI_K_MAX:
            raise InvalidParameterError(f"derivative order {k} outside 0..{PSI_K_MAX}")

    def _scaled_terms(self, log_x: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(terms, m, last): the terms of order k over the lanes log_x, each
        lane scaled by its largest term log m (0 where that is not finite)
        and exponentiated in place, so that the lane's sum times exp(m) is
        psi^(k), and the log of its last term.

        The scaled logs are clipped at -700 before exp: e^-700 ~ 2^-1010 is
        a normal double, and numpy's vector exp is several times slower on
        the subnormal and zero results below about -708.  A clipped term is
        at most 2^-1010 of the largest, which is 1, so it is lost to rounding
        in every sum it enters.
        """
        term_logs = np.multiply.outer(self._exponents[k], log_x)
        term_logs += self._log_weights[k][:, None]
        m = term_logs.max(axis=0)
        m = np.where(np.isfinite(m), m, 0.0)
        last = term_logs[-1].copy()
        term_logs -= m
        np.maximum(term_logs, _TERM_LOG_FLOOR, out=term_logs)
        np.exp(term_logs, out=term_logs)
        return term_logs, m, last

    def eval_many(self, log_x, k: int = 0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log |psi^(k)|, sign, tail_sound) over an array of finite log x <= 0,
        from one :meth:`_scaled_terms` array."""
        self._check_order(k)
        log_x = np.asarray(log_x, dtype=float).ravel()
        terms, m, last = self._scaled_terms(log_x, k)
        sums = np.einsum("i,ij->j", self._signs[k], terms)
        with np.errstate(divide="ignore"):
            log_abs = m + np.log(np.abs(sums))
        return log_abs, np.sign(sums), _tail_sound(last, log_abs, log_x)

    @cached_property
    def _one_scale_for_psi_and_derivative(self) -> bool:
        """Whether the order-0 terms, scaled by their largest, also give
        psi' to rounding: the order-1 sum sum lambda_n E_n is at least
        lambda_1 (E = 1 at the largest term), while what the clip at
        2^-1010 adds is below N lambda_N 2^-1010, under 2^-110 of it
        here.  A lambda_1 of 0 (a hand-built evaluator; a LambdaSequence
        is positive) fails this: its constant term can hold the scale where
        psi' underflows."""
        lam = self.lambdas
        return bool(lam[0] > 0.0 and math.log2(lam[-1]) - math.log2(lam[0])
                    + math.log2(lam.size) < 900.0)

    def log_majorant(self, log_x, big: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(log psi(x), tail_sound) over an array of finite log x <= 0, or
        (log Psi(x), tail_sound) of the Hilbert-Schmidt majorant
        Psi(x) = psi'(y) psi(y), y = x^(1/4), when ``big``; psi and psi' have
        positive terms only, so no sign is returned.

        The order-0 terms are positive and the largest scales to 1, so
        log psi = m + log sum E_n needs no sign.  For Psi, the order-1 term n
        is the order-0 term times lambda_n / y, so one array of scaled
        order-0 terms E_n at log y gives both: log psi(y) = m + log sum E_n
        and log psi'(y) = m - log y + log sum lambda_n E_n, with the last
        order-1 term read the same way.
        """
        if not big:
            log_x = np.asarray(log_x, dtype=float).ravel()
            terms, m, last = self._scaled_terms(log_x, 0)
            log_abs = m + np.log(terms.sum(axis=0))
            return log_abs, _tail_sound(last, log_abs, log_x)
        quarter = 0.25 * np.asarray(log_x, dtype=float).ravel()
        if not self._one_scale_for_psi_and_derivative:
            log_d1, _, sound_d1 = self.eval_many(quarter, 1)
            log_d0, _, sound_d0 = self.eval_many(quarter, 0)
            return log_d1 + log_d0, sound_d1 & sound_d0
        terms, m, last = self._scaled_terms(quarter, 0)
        with np.errstate(divide="ignore"):
            log_d0 = m + np.log(np.einsum("i,ij->j", self._signs[0], terms))
            log_d1 = m - quarter + np.log(np.einsum("i,ij->j", self.lambdas,
                                                    terms))
        last_d1 = last + math.log(self.lambdas[-1]) - quarter
        return log_d1 + log_d0, (_tail_sound(last_d1, log_d1, quarter)
                                 & _tail_sound(last, log_d0, quarter))

    def squared_majorant(self, t, big: bool = False) -> np.ndarray:
        """psi(x)^2, or Psi(x)^2 when ``big``, at x = 1 - t over an array of
        t in (0, 1); a value past the double range reads inf."""
        log_values = self.log_majorant(np.log1p(-np.asarray(t, dtype=float)),
                                       big)[0]
        with np.errstate(over="ignore"):
            return np.exp(2.0 * log_values)

    def refined_head(self, width: float, big: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(t, squared majorant at t) on the nodes of the first two rounds of
        :func:`~muntzlab.quadrature.integrate_refined_at_zero` over
        (0, width], which depend on the width alone: kept per (width, big),
        so every density piece of that width reads one evaluation."""
        key = (width, big)
        if key not in self._heads:
            t = quadrature.refined_at_zero_nodes(width)
            self._heads[key] = (t, self.squared_majorant(t, big))
        return self._heads[key]

    def eval(self, x: float, k: int = 0) -> PsiValue:
        if not 0.0 <= x < 1.0:
            raise InvalidParameterError("psi is defined on [0, 1)")
        if x > 0.0:
            log_abs, sign, sound = self.eval_many(math.log(x), k)
            return PsiValue(value=float(sign[0]) * math.exp(log_abs[0]),
                            tail_sound=bool(sound[0]))
        # x = 0: a live term (nonzero sign) with a negative exponent sends
        # the value to +-inf, by the sign of the term of least exponent; else
        # the constant term, if any
        self._check_order(k)
        exponents, signs = self._exponents[k], self._signs[k]
        live = signs != 0.0
        if np.any(exponents[live] < 0.0):
            lead = np.argmin(np.where(live, exponents, math.inf))
            return PsiValue(value=float(signs[lead]) * math.inf, tail_sound=True)
        const = exponents == 0.0
        return PsiValue(value=float(np.sum(signs[const]
                                           * np.exp(self._log_weights[k][const]))),
                        tail_sound=True)


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
    log_value, sound = psi.log_majorant(math.log(x), big=True)
    return PsiValue(value=math.exp(log_value[0]), tail_sound=bool(sound[0]))


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    slack: float


def pointwise_bound_check(f: MuntzPolynomial, x: float, beta) -> BoundCheck:
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
                      holds=bool(lhs <= rhs + _BOUND_TOL * max(1.0, rhs)),
                      slack=slack)


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
