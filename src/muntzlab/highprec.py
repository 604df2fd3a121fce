"""Extended-precision distance oracle on the standard library's ``decimal``.

It exists to cross-validate the fast double-precision distances.  Default
working precision is 200 bits, carried as ceil(200 log10 2) + 1 = 62
decimal digits in a local :class:`decimal.Context` (libmpdec, in C); the
global decimal context is never touched, and no mpmath is loaded.

:func:`distance_oracle` factors the Gram matrix of the monomials,
G_ij = 1/(lambda_i + lambda_j + 1), once by Cholesky with lambda_n ordered
last.  The last pivot L_nn is the distance d_n: its square is
det G / det G_minor = 1/(G^-1)_nn.  The factorization is generic, so it
checks the closed Cauchy product of :func:`muntzlab.geometry.distances`
rather than repeating it.
"""

from __future__ import annotations

import decimal
import math

from .errors import InvalidParameterError
from .sequences import whole_number

DEFAULT_PREC_BITS = 200


def distance_oracle(lams, n: int, prec_bits: int = DEFAULT_PREC_BITS) -> float:
    """Distance of x**lambda_n to the span of the others in L^2[0, 1]: the
    last Cholesky pivot of the Gram matrix with lambda_n ordered last, at
    ``prec_bits`` bits; n is 1-based.  Every exponent must be finite and
    above -1/2, so that x**lambda is in L^2[0, 1]."""
    lams = [float(x) for x in lams]
    for x in lams:
        if not (math.isfinite(x) and x > -0.5):
            raise InvalidParameterError(
                f"exponent {x!r} is not finite and above -1/2: "
                f"x^lambda is not in L^2[0, 1]")
    try:
        n = whole_number(n)
    except ValueError as exc:
        raise InvalidParameterError(f"index: {exc}") from None
    if not 1 <= n <= len(lams):
        raise InvalidParameterError(f"index {n} outside 1..{len(lams)}")
    ctx = decimal.Context(prec=math.ceil(prec_bits * math.log10(2)) + 1)
    zero, one = decimal.Decimal(0), decimal.Decimal(1)
    vals = [ctx.create_decimal_from_float(x)
            for x in lams[:n - 1] + lams[n:] + [lams[n - 1]]]
    rows = []        # rows[i] = L[i, :i + 1]
    for i, a in enumerate(vals):
        shifted = ctx.add(a, one)
        row = []
        for b, lower in zip(vals, rows):
            gram = ctx.divide(one, ctx.add(shifted, b))
            dot = zero
            for x, y in zip(row, lower):
                dot = ctx.fma(x, y, dot)
            row.append(ctx.divide(ctx.subtract(gram, dot), lower[-1]))
        square = zero
        for x in row:
            square = ctx.fma(x, x, square)
        pivot = ctx.subtract(ctx.divide(one, ctx.add(shifted, a)), square)
        if not pivot > 0:
            raise InvalidParameterError(
                f"Gram matrix not positive definite at {prec_bits} bits "
                f"(pivot {i + 1} of {len(vals)})")
        row.append(ctx.sqrt(pivot))
        rows.append(row)
    return float(rows[-1][-1])
