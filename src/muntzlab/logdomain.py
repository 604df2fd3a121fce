"""Log-domain arithmetic helpers.

Quantities such as ``x**lambda`` with ``lambda ~ 1e12`` or atom positions of
the form ``1 - 1e-35`` are representable only through their logarithms.  All
summations use either exact compensated summation (``math.fsum``) or
index-ascending log-sum-exp, so results are reproducible across runs and
thread counts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

NEG_INF = float("-inf")


def log_sum(log_terms) -> float:
    """log(sum(exp(log_terms))) with the empty sum mapping to -inf."""
    arr = np.asarray(log_terms, dtype=float)
    if arr.size == 0:
        return NEG_INF
    return float(logsumexp(arr))


def signed_log_sum(log_abs, signs) -> tuple[float, float]:
    """log|sum| and sign of a signed exponential sum.

    Returns ``(-inf, 0.0)`` for an empty or exactly cancelling sum.
    """
    la = np.asarray(log_abs, dtype=float)
    sg = np.asarray(signs, dtype=float)
    if la.size == 0:
        return NEG_INF, 0.0
    val, sign = logsumexp(la, b=sg, return_sign=True)
    return float(val), float(sign)


def log1mexp(x):
    """log(1 - exp(x)) elementwise for x <= 0, accurate over the whole range."""
    x = np.asarray(x, dtype=float)
    if np.any(x > 0.0):
        raise ValueError("log1mexp requires x <= 0")
    with np.errstate(divide="ignore"):
        return np.where(x > -math.log(2.0), np.log(-np.expm1(x)),
                        np.log1p(-np.exp(x)))


def log_power_interval(s, log_lo: float, log_hi: float) -> np.ndarray:
    """log of ``integral_lo^hi x**s dx`` elementwise over the orders ``s``,
    with endpoints given as logs.

    Safe for huge ``s`` (the bracket ``hi**(s+1) - lo**(s+1)`` is expanded in
    the log domain).  ``log_lo = -inf`` encodes a zero lower endpoint.
    """
    s = np.asarray(s, dtype=float)
    if log_hi <= log_lo:
        return np.full(s.shape, NEG_INF)
    head = -np.log1p(s) + (s + 1.0) * log_hi
    if log_lo == NEG_INF:
        return head
    return head + log1mexp((s + 1.0) * (log_lo - log_hi))


def fsum(terms) -> float:
    """Exact (correctly rounded) sum in fixed ascending-index order."""
    return math.fsum(terms)
