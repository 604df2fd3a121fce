"""Extended-precision oracles (mpmath).

These exist to cross-validate the fast double-precision paths.  Default
working precision is 200 bits.
"""

from __future__ import annotations

import mpmath as mp

from .errors import InvalidParameterError

DEFAULT_PREC_BITS = 200


def _gram(lams):
    n = len(lams)
    vals = [mp.mpf(float(x)) for x in lams]
    g = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = 1 / (vals[i] + vals[j] + 1)
    return g


def distance_oracle(lams, n: int, prec_bits: int = DEFAULT_PREC_BITS) -> float:
    """Distance of x**lambda_n to the span of the others, via the Gram
    determinant ratio det G / det G_minor = 1/(G^-1)_nn; n is 1-based."""
    lams = list(lams)
    if not 1 <= n <= len(lams):
        raise InvalidParameterError(f"index {n} outside 1..{len(lams)}")
    with mp.workprec(prec_bits):
        g = _gram(lams)
        e = mp.matrix([mp.mpf(1) if i == n - 1 else mp.mpf(0)
                       for i in range(len(lams))])
        y = mp.cholesky_solve(g, e)
        return float(mp.sqrt(1 / y[n - 1]))
