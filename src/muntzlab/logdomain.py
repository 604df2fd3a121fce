"""Log-domain arithmetic helpers.

Quantities such as ``x**lambda`` with ``lambda ~ 1e12`` or atom positions of
the form ``1 - 1e-35`` are representable only through their logarithms.  All
summations use either exact compensated summation (``math.fsum``) or the
one log-sum-exp :func:`log_sum`, so results are reproducible across runs and
thread counts.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def log_sum(log_terms, axis=None):
    """log(sum(exp(log_terms))) over ``axis`` (a float over every term by
    default); an empty or all -inf sum maps to -inf.  The terms equal to the
    maximum are counted apart from the rest, whose share goes through log1p."""
    a = np.asarray(log_terms, dtype=float)
    top = np.max(a, axis=axis, keepdims=True, initial=NEG_INF)
    at_top = a == top
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_top, NEG_INF, a - top)).sum(axis=axis,
                                                               keepdims=True)
        count = at_top.sum(axis=axis, keepdims=True)
        out = np.log1p(np.where(rest == 0.0, 0.0, rest / count)) \
            + np.log(count) + top
    return out.item() if axis is None else np.squeeze(out, axis=axis)


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
