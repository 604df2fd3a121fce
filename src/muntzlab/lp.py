"""L^p norms of Muntz polynomials, empirical embedding constants, and the
interpolation inequality as a per-function check.

Density integrals run on one fixed :class:`~muntzlab.quadrature.QuadraturePlan`
per measure.  For the polynomials of one exponent set the basis
``x**lambda_k`` at the plan's nodes is computed once, so the integrals of
``|f|^p`` for many coefficient rows are weighted sums over one array.  For
non-even p, ``|f|^p`` has kinks at the zeros of f: a cell whose values at
its nodes, edges and sign-scan points take both signs is refined for that
row alone, its roots bracketed between the sorted sample points, found by
:func:`~muntzlab.quadrature.bisect_root` and each side integrated on cells
graded toward the root.  A cell whose coarse and fine rules still differ by
more than 1e-12 of the row's total is re-integrated adaptively and counted.
Rows are evaluated independently, so a batched row is bit-identical to its
single call.  Atoms are exact log-domain sums.

Empirical embedding constants maximize a ratio over random coefficient
spheres and are LOWER bounds of the truncated operator norm; the
interpolation check therefore only ever multiplies *certified* upper bounds
for the endpoint constants (bounded-density measures and their scalings),
and reports inconclusive when no certified constant exists.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .logdomain import log_sum
from .measures import Measure, lebesgue
from .polynomials import MuntzPolynomial, random_unit
from .sequences import LambdaSequence

# rounding allowance per unit of the integral, added to the quadrature error
# before propagation: pairwise summation of ~1e4 positive terms costs about
# 14 eps, the node values and powers a few eps each
_ROUNDING_RTOL = 64.0 * sys.float_info.epsilon
_ROW_CHUNK = 64


@dataclass(frozen=True)
class LpNormEstimate:
    p: float
    value: float
    quadrature_error: float   # first-order bound on the error of ``value``
    fallback_cells: int = 0   # plan cells re-integrated adaptively


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows ``coeffs @ basis``, accumulated term by term so that each row's
    values do not depend on the rows evaluated with it."""
    out = coeffs[:, :1] * basis[0]
    for k in range(1, basis.shape[0]):
        out += coeffs[:, k:k + 1] * basis[k]
    return out


def _log_x(t) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log1p(-np.asarray(t, dtype=float))


class _PowerIntegrals:
    """Integrals of ``|f|^p`` against one measure for polynomials on one
    exponent set: the plan and the basis at its nodes are built once."""

    def __init__(self, mu: Measure, lambdas):
        flat = mu.flattened()
        self.lam = np.asarray(lambdas, dtype=float)
        self.log_weights = flat.log_weights
        self.atom_basis = np.exp(np.outer(self.lam, flat.log_positions))
        self.plan = quadrature.QuadraturePlan.from_pieces(flat.pieces)
        self.basis = np.exp(np.outer(self.lam, _log_x(self.plan.points)))
        # unit rule that kinked cells are mapped onto, graded toward a root
        self.root_nodes, self.root_weights = quadrature.graded_rule(
            quadrature.INNER_LEVELS)

    def norms(self, coeffs, p: float) -> list[LpNormEstimate]:
        """``||f||_{L^p(mu)}`` for every row of the 2-D ``coeffs``."""
        out = []
        for start in range(0, coeffs.shape[0], _ROW_CHUNK):
            out += self._norms(coeffs[start:start + _ROW_CHUNK], p)
        return out

    def _norms(self, coeffs, p):
        rows = coeffs.shape[0]
        total = np.zeros(rows)
        err_rows = np.zeros(rows)
        fallbacks = np.zeros(rows, dtype=int)
        if self.log_weights.size:
            vals = np.abs(_combine(coeffs, self.atom_basis))
            with np.errstate(divide="ignore"):
                log_terms = self.log_weights + p * np.log(vals + 1e-300)
            total += np.exp(log_sum(log_terms, axis=-1))
        plan = self.plan
        if plan.cells:
            atoms = total.copy()
            vals = _combine(coeffs, self.basis)
            fine, err = plan.cell_sums(np.abs(plan.node_values(vals)) ** p)
            cuts = {}
            for r, c in zip(*np.nonzero(plan.sign_change_cells(vals))):
                cuts[r, c] = self._roots(coeffs[r], c, vals[r])
                fine[r, c], err[r, c] = self._split_cell(coeffs[r], p, c, cuts[r, c])
            total = atoms + fine.sum(axis=-1)
            for r, c in zip(*np.nonzero(plan.loose_cells(err, total))):
                fine[r, c], err[r, c] = self._adaptive_cell(
                    coeffs[r], p, c, cuts.get((r, c)))
                fallbacks[r] += 1
                total[r] = atoms[r] + fine[r].sum()
            err_rows = err.sum(axis=-1)
        out = []
        for r in range(rows):
            integral = float(total[r])
            integral_err = float(err_rows[r]) + _ROUNDING_RTOL * integral
            # first-order propagation through T -> T^(1/p)
            prop = (integral_err / (p * integral ** (1.0 - 1.0 / p))
                    if integral > 0.0 else integral_err ** (1.0 / p))
            out.append(LpNormEstimate(p=p, value=integral ** (1.0 / p),
                                      quadrature_error=prop,
                                      fallback_cells=int(fallbacks[r])))
        return out

    # -- per-row refinement ---------------------------------------------------

    def _eval(self, c_row, t) -> np.ndarray:
        basis = np.exp(np.outer(self.lam, _log_x(np.atleast_1d(t))))
        return _combine(c_row[None, :], basis)[0]

    def _roots(self, c_row, cell, values) -> list[float]:
        """Cell edges and the roots bracketed between sign changes of the
        sorted sample values, in increasing t."""
        lo, hi = float(self.plan.lo[cell]), float(self.plan.hi[cell])
        t, v = self.plan.cell_samples(cell, values)
        keep = v != 0.0
        t, v = t[keep], v[keep]
        flips = np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]
        terms = list(zip(c_row.tolist(), self.lam.tolist()))

        def f(x):
            log_x = math.log1p(-x) if x < 1.0 else -math.inf
            return sum(c * math.exp(lam * log_x) for c, lam in terms)

        roots = [quadrature.bisect_root(f, float(t[i]), float(t[i + 1]))
                 for i in flips]
        return [lo] + [x for x in roots if lo < x < hi] + [hi]

    def _split_cell(self, c_row, p, cell, cuts) -> tuple[float, float]:
        """A kinked cell integrated on sub-cells graded toward each root;
        a segment between two roots is split at its midpoint."""
        anchors, spans = [], []
        last = len(cuts) - 2
        for i, (u, v) in enumerate(zip(cuts[:-1], cuts[1:])):
            if i > 0 and i < last:
                m = 0.5 * (u + v)
                anchors += [u, v]
                spans += [m - u, m - v]
            elif i < last:
                anchors.append(v)
                spans.append(u - v)
            else:
                anchors.append(u)
                spans.append(v - u)
        spans = np.array(spans)[:, None, None]
        width = self.root_nodes.shape[-1]
        nodes = (np.array(anchors)[:, None, None]
                 + spans * self.root_nodes).reshape(-1, width)
        weights = (np.abs(spans) * self.root_weights).reshape(-1, width)
        h = self.plan.densities[self.plan.piece[cell]]
        terms = np.abs(self._eval(c_row, nodes.ravel()).reshape(nodes.shape)) ** p \
            * (weights * np.asarray(h(nodes), dtype=float))
        fine, err = quadrature.coarse_fine(terms)
        return float(fine.sum()), float(err.sum())

    def _adaptive_cell(self, c_row, p, cell, cuts) -> tuple[float, float]:
        """A cell re-integrated by adaptive bisection, split at its roots."""
        plan = self.plan
        h = plan.densities[plan.piece[cell]]
        if cuts is None:
            cuts = [float(plan.lo[cell]), float(plan.hi[cell])]

        def integrand(t):
            return np.abs(self._eval(c_row, t)) ** p * h(np.asarray(t, dtype=float))

        value = err = 0.0
        for u, v in zip(cuts[:-1], cuts[1:]):
            cv, ce = quadrature.integrate(integrand, u, v)
            value += cv
            err += ce
        return value, err


def _lebesgue_norms(coeffs, lambdas, p: float,
                    on_lebesgue: _PowerIntegrals | None = None) -> list[float]:
    """``||f||_p`` on [0, 1] per coefficient row; p = 2 through the exact
    Gramian, as in :func:`lebesgue_lp_norm`."""
    if p == 2.0:
        seq = LambdaSequence(lambdas)
        return [MuntzPolynomial(seq, c).l2_norm_lebesgue() for c in coeffs]
    on_lebesgue = on_lebesgue or _PowerIntegrals(lebesgue(), lambdas)
    return [e.value for e in on_lebesgue.norms(coeffs, p)]


def lp_norms(seq: LambdaSequence, coefficients, p: float,
             mu: Measure) -> list[LpNormEstimate]:
    """||f||_{L^p(mu)} for every row of ``coefficients`` on the exponents of
    ``seq``, on one quadrature plan and basis; row i equals
    ``lp_norm(MuntzPolynomial(seq, coefficients[i]), p, mu)`` bit for bit."""
    if p < 1.0:
        raise InvalidParameterError("p must be >= 1")
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coeffs.ndim != 2 or coeffs.shape[1] != len(seq):
        raise InvalidParameterError(
            "coefficient rows must match the sequence length")
    return _PowerIntegrals(mu, seq.values).norms(coeffs, p)


def lp_norm(f: MuntzPolynomial, p: float, mu: Measure) -> LpNormEstimate:
    """||f||_{L^p(mu)}: exact for atomic mu, quadrature for densities."""
    return lp_norms(f.sequence, f.coefficients, p, mu)[0]


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
    if p < 1.0:
        raise InvalidParameterError("p must be >= 1")
    sub = seq.truncate(n)
    rng = np.random.default_rng(seed)
    on_mu = _PowerIntegrals(mu, sub.values)
    on_lebesgue = None if p == 2.0 else _PowerIntegrals(lebesgue(), sub.values)

    def ratios(coeffs) -> list[float]:
        num = [e.value for e in on_mu.norms(coeffs, p)]
        denom = _lebesgue_norms(coeffs, sub.values, p, on_lebesgue)
        return [0.0 if d == 0.0 else v / d for v, d in zip(num, denom)]

    # the draws are independent of the ratios, so they are evaluated as one
    # batch; the first maximum wins, as in a sequential scan
    draws = np.array([random_unit(sub, rng, bias_last=(i % 2 == 1)).coefficients
                      for i in range(samples)])
    best = -math.inf
    best_coeffs = None
    for coeffs, r in zip(draws, ratios(draws)):
        if r > best:
            best, best_coeffs = r, coeffs

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
                    r = ratios(trial[None, :])[0]
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
    coeffs = np.array([random_unit(sub, rng, bias_last=(i % 2 == 1)).coefficients
                       for i in range(samples)])
    lhs_all = [e.value for e in _PowerIntegrals(mu, sub.values).norms(coeffs, p_t)]
    rhs_all = [factor * v for v in _lebesgue_norms(coeffs, sub.values, p_t)]
    violations = []
    records = []
    max_slack = -math.inf
    for i, (lhs, rhs) in enumerate(zip(lhs_all, rhs_all)):
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
