"""Extended-precision oracles (mpmath).

These exist to cross-validate the fast double-precision paths.  Default
working precision is 200 bits.

:func:`distance_oracle` factors the Gram matrix of the monomials,
G_ij = 1/(lambda_i + lambda_j + 1), once by Cholesky with lambda_n ordered
last.  The last pivot L_nn is the distance d_n: its square is
det G / det G_minor = 1/(G^-1)_nn.  The factorization is generic, so it
checks the closed Cauchy product of :func:`muntzlab.geometry.distances`
rather than repeating it.
"""

from __future__ import annotations

import mpmath as mp

from .errors import InvalidParameterError

DEFAULT_PREC_BITS = 200


def distance_oracle(lams, n: int, prec_bits: int = DEFAULT_PREC_BITS) -> float:
    """Distance of x**lambda_n to the span of the others in L^2[0, 1]: the
    last Cholesky pivot of the Gram matrix with lambda_n ordered last, at
    ``prec_bits`` bits; n is 1-based."""
    lams = [float(x) for x in lams]
    if not 1 <= n <= len(lams):
        raise InvalidParameterError(f"index {n} outside 1..{len(lams)}")
    with mp.workprec(prec_bits):
        vals = [mp.mpf(x) for x in lams[:n - 1] + lams[n:] + [lams[n - 1]]]
        rows = []        # rows[i] = L[i, :i + 1]
        for i, a in enumerate(vals):
            row = []
            for j, lower in enumerate(rows):
                gram = 1 / (a + vals[j] + 1)
                row.append((gram - mp.fdot(row, lower[:j])) / lower[j])
            pivot = 1 / (a + a + 1) - mp.fsum(row, squared=True)
            if not pivot > 0:
                raise InvalidParameterError(
                    f"Gram matrix not positive definite at {prec_bits} bits "
                    f"(pivot {i + 1} of {len(vals)})")
            row.append(mp.sqrt(pivot))
            rows.append(row)
        return float(rows[-1][-1])
