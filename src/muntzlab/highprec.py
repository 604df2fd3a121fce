"""Extended-precision oracles (mpmath).

These exist to cross-validate the fast double-precision paths and as the
escape hatch when the Lebesgue Gramian is too ill-conditioned for a double
Cholesky.  Default working precision is 200 bits.
"""

from __future__ import annotations

import numpy as np
import mpmath as mp

from .errors import IllConditionedBasisError, InvalidParameterError

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


def generalized_singular_values(a, b, prec_bits: int = DEFAULT_PREC_BITS) -> np.ndarray:
    """Singular values of the embedding pencil (A, B) in extended precision.

    Solves A v = s^2 B v by Cholesky whitening of B in mpmath; use when the
    double-precision path raises IllConditionedBasisError, which this raises
    in turn when B is not positive definite at the working precision.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    with mp.workprec(prec_bits):
        am = mp.matrix(n, n)
        bm = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                am[i, j] = mp.mpf(a[i, j])
                bm[i, j] = mp.mpf(b[i, j])
        try:
            low = mp.cholesky(bm)
        except ValueError as exc:
            raise IllConditionedBasisError(
                f"extended-precision ({prec_bits}-bit) Cholesky of the Lebesgue "
                f"Gramian failed: {exc}; reduce N") from exc
        linv = low ** -1
        m2 = linv * am * linv.T
        m2 = (m2 + m2.T) / 2
        eigs = mp.eigsy(m2, eigvals_only=True)
        vals = sorted((max(float(e), 0.0) for e in eigs), reverse=True)
    return np.sqrt(np.asarray(vals))
