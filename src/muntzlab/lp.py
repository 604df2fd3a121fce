"""L^p norms of Muntz polynomials, empirical embedding constants, and the
interpolation inequality as a per-function check.

For non-even p the integrand |f|^p has kinks at the zeros of f; zeros are
bracketed on a sign grid and refined by bisection so each quadrature cell is
smooth.  Empirical embedding constants maximize a ratio over random
coefficient spheres and are LOWER bounds of the truncated operator norm; the
interpolation check therefore only ever multiplies *certified* upper bounds
for the endpoint constants (bounded-density measures and their scalings),
and reports inconclusive when no certified constant exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .logdomain import log_sum
from .measures import Measure, lebesgue
from .polynomials import MuntzPolynomial, random_unit
from .sequences import LambdaSequence

_SIGN_GRID = 512


@dataclass(frozen=True)
class LpNormEstimate:
    p: float
    value: float
    quadrature_error: float


def _abs_power_integral(f: MuntzPolynomial, p: float, t_lo: float, t_hi: float,
                        h) -> tuple[float, float]:
    """integral over x in [1-t_hi, 1-t_lo] of |f|^p * h(t) dt, split at the
    sign changes of f so every cell is smooth."""
    # locate sign changes of f on the piece (t domain, dyadic + uniform grid)
    grid = np.unique(np.concatenate([
        np.linspace(t_lo, t_hi, _SIGN_GRID),
        t_lo + (t_hi - t_lo) * 2.0 ** -np.arange(1, 40, dtype=float)]))
    with np.errstate(divide="ignore"):
        vals = f.eval_at_log(np.log1p(-grid))
    cuts = [t_lo]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 or (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            root = quadrature.bisect_root(
                lambda t: float(f.eval_at_log(np.log1p(-np.atleast_1d(t)))[0]),
                float(grid[i]), float(grid[i + 1]))
            if root > cuts[-1]:
                cuts.append(root)
    cuts.append(t_hi)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.abs(f.eval_at_log(np.log1p(-t))) ** p * h(t)

    total = 0.0
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        if lo == 0.0:
            v, e = quadrature.integrate_refined_at_zero(integrand, hi)
        else:
            v, e = quadrature.integrate(integrand, lo, hi)
        total += v
        err += e
    return total, err


def lp_norm(f: MuntzPolynomial, p: float, mu: Measure) -> LpNormEstimate:
    """||f||_{L^p(mu)}: exact for atomic mu, quadrature for densities."""
    if p < 1.0:
        raise InvalidParameterError("p must be >= 1")
    flat = mu.flattened()
    total = 0.0
    err = 0.0
    if flat.has_atoms:
        vals = np.abs(f.eval_at_log(flat.log_positions))
        with np.errstate(divide="ignore"):
            log_terms = flat.log_weights + p * np.log(vals + 1e-300)
        total += math.exp(log_sum(log_terms))
    for t_lo, t_hi, h, _sing in flat.pieces:
        v, e = _abs_power_integral(f, p, t_lo, t_hi, h)
        total += v
        err += e
    value = total ** (1.0 / p)
    return LpNormEstimate(p=p, value=value,
                          quadrature_error=err ** (1.0 / p) if err > 0 else 0.0)


def lebesgue_lp_norm(f: MuntzPolynomial, p: float) -> LpNormEstimate:
    """||f||_p; the p = 2 case goes through the exact Gramian."""
    if p == 2.0:
        return LpNormEstimate(p=2.0, value=f.l2_norm_lebesgue(),
                              quadrature_error=0.0)
    return lp_norm(f, p, lebesgue())


def empirical_embedding_constant(seq: LambdaSequence, mu: Measure, p: float,
                                 n: int, samples: int, *, refine: bool = True,
                                 seed: int = 0) -> float:
    """Best ratio ||f||_{L^p(mu)} / ||f||_p over random unit-sphere
    coefficients; a LOWER bound for the truncated operator norm.

    Half the draws are biased toward the top exponent (near-1 probes).  With
    ``refine``, projected coordinate ascent (50 iterations, step halving)
    polishes the best sample.
    """
    if samples < 1:
        raise InvalidParameterError("need at least one sample")
    sub = seq.truncate(n)
    rng = np.random.default_rng(seed)

    def ratio(f: MuntzPolynomial) -> float:
        denom = lebesgue_lp_norm(f, p).value
        if denom == 0.0:
            return 0.0
        return lp_norm(f, p, mu).value / denom

    best = -math.inf
    best_coeffs = None
    for i in range(samples):
        f = random_unit(sub, rng, bias_last=(i % 2 == 1))
        r = ratio(f)
        if r > best:
            best, best_coeffs = r, f.coefficients

    if refine and best_coeffs is not None and n > 0:
        coeffs = np.array(best_coeffs)
        step = 0.25
        for _ in range(50):
            improved = False
            for j in range(n):
                for sign in (+1.0, -1.0):
                    trial = np.array(coeffs)
                    trial[j] += sign * step
                    norm = np.linalg.norm(trial)
                    if norm == 0.0:
                        continue
                    trial /= norm
                    r = ratio(MuntzPolynomial(sub, trial))
                    if r > best:
                        best, coeffs, improved = r, trial, True
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    break
    return float(best)


def certified_embedding_constant(mu: Measure, p: float) -> float | None:
    """A certified upper bound for ||i^p_mu|| when mu = h dm with bounded h:
    the constant (ess sup h)**(1/p).  None when no certificate is available
    (e.g. atomic measures)."""
    if p < 1.0:
        raise InvalidParameterError("p must be >= 1")
    sup = mu.bounded_density_sup()
    if sup is None:
        return None
    return sup ** (1.0 / p)


@dataclass(frozen=True)
class InterpolationViolation:
    sample: int
    lhs: float
    rhs: float
    excess: float


@dataclass(frozen=True)
class InterpolationReport:
    p0: float
    p1: float
    t: float
    p_t: float
    c0: float | None
    c1: float | None
    inconclusive: bool
    violations: tuple
    max_slack: float          # max over samples of lhs - rhs (<= 0 when clean)
    samples: int
    seed: int
    records: tuple = ()       # per-sample (index, lhs, rhs) when requested


def interpolation_check(seq: LambdaSequence, mu: Measure, p0: float, p1: float,
                        t: float, *, n: int | None = None, samples: int = 100,
                        seed: int = 0, tol: float = 1e-9,
                        keep_records: bool = False) -> InterpolationReport:
    """Per-function interpolation inequality on sampled polynomials:

        ||f||_{L^{p_t}(mu)} <= C0^(1-t) C1^t ||f||_{p_t},

    with C0, C1 certified upper bounds of the endpoint embedding norms.
    Returns an inconclusive report when no certified constants exist; this is
    not a failure.
    """
    if not (1.0 <= p0 < p1):
        raise InvalidParameterError("need 1 <= p0 < p1")
    if not 0.0 < t < 1.0:
        raise InvalidParameterError("t must lie in (0, 1)")
    p_t = 1.0 / ((1.0 - t) / p0 + t / p1)
    c0 = certified_embedding_constant(mu, p0)
    c1 = certified_embedding_constant(mu, p1)
    if c0 is None or c1 is None:
        return InterpolationReport(p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1,
                                   inconclusive=True, violations=(),
                                   max_slack=math.nan, samples=0, seed=seed)
    factor = c0 ** (1.0 - t) * c1 ** t
    n = len(seq) if n is None else n
    sub = seq.truncate(n)
    rng = np.random.default_rng(seed)
    violations = []
    records = []
    max_slack = -math.inf
    for i in range(samples):
        f = random_unit(sub, rng, bias_last=(i % 2 == 1))
        lhs = lp_norm(f, p_t, mu).value
        rhs = factor * lebesgue_lp_norm(f, p_t).value
        slack = lhs - rhs
        max_slack = max(max_slack, slack)
        if keep_records:
            records.append((i, lhs, rhs))
        if slack > tol * max(1.0, rhs):
            violations.append(InterpolationViolation(
                sample=i, lhs=lhs, rhs=rhs, excess=slack))
    return InterpolationReport(p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1,
                               inconclusive=False, violations=tuple(violations),
                               max_slack=max_slack, samples=samples, seed=seed,
                               records=tuple(records))


def l1_unboundedness_witness(seq: LambdaSequence, mu: Measure) -> list[tuple[int, float]]:
    """L^1(mu) norms of the test functions lambda_n x**lambda_n.

    Their L^1(m) norms are lambda_n/(lambda_n+1) <= 1, so an unbounded trend
    of these values witnesses failure of the L^1 embedding.
    """
    lam = seq.values
    return list(enumerate((lam * np.exp(mu.log_moments(lam))).tolist(), start=1))
