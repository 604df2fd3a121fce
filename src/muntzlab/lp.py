"""L^p norms of Muntz polynomials, empirical embedding constants, and the
interpolation inequality as a per-function check.

Density integrals run on one fixed :class:`~muntzlab.quadrature.QuadraturePlan`
per measure, the one it keeps (:attr:`~muntzlab.measures.Measure.plan`; the
Lebesgue one is shared).  For the polynomials of one exponent set the basis
``x**lambda_k`` at the plan's nodes is computed once, so the integrals of
``|f|^p`` for many coefficient rows are weighted sums over one array.  For
non-even p, ``|f|^p`` has kinks at the zeros of f.  Every root of a row in
``(0, 1)`` is isolated up front by the Rolle chain (:func:`_roots`), once
for the integrals against every measure, and exactly the cells that hold a
root are refined for that row alone, each side of a root integrated on cells
graded toward it.  A cell whose coarse and fine rules still differ by more
than 1e-12 of the row's total is re-integrated adaptively, split at its
roots, by :meth:`~muntzlab.quadrature.QuadraturePlan.refine_cell`, and
counted.  Rows are evaluated independently, so a batched row is
bit-identical to its single call.  Atoms are exact log-domain sums.

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
from .polynomials import MuntzPolynomial, _combine, powers, random_unit
from .sequences import LambdaSequence

# rounding allowance per unit of the integral, added to the quadrature error
# before propagation: pairwise summation of ~1e4 positive terms costs about
# 14 eps, the node values and powers a few eps each.  The root isolation
# takes the same allowance per unit of a polynomial's term magnitudes.
_ROUNDING_RTOL = 64.0 * sys.float_info.epsilon
_ROW_CHUNK = 64
_INTERPOLATION_TOL = 1e-9   # slack of a sample before it counts as a violation
# unit rule that kinked cells are mapped onto, graded toward a root
_ROOT_NODES, _ROOT_WEIGHTS = quadrature.graded_rule(quadrature.INNER_LEVELS)


@dataclass(frozen=True)
class LpNormEstimate:
    p: float
    value: float
    quadrature_error: float   # first-order bound on the error of ``value``
    fallback_cells: int = 0   # plan cells re-integrated adaptively


def _log_x(t) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log1p(-np.asarray(t, dtype=float))


def _roots(coeffs, lambdas) -> list[float]:
    """Every root in (0, 1) of ``f = sum c_k x**lambda_k``, lambda ascending,
    as ``t = 1 - x`` ascending: the Rolle chain of a Descartes system
    (Borwein and Erdelyi, *Polynomials and Polynomial Inequalities*, Ch. 3).

    f has at most as many positive roots as its coefficients have sign
    changes.  Beyond one, the roots of ``(x**-lambda_1 f)'``, one term fewer,
    cut (0, 1) into pieces where ``h = x**-lambda_1 f`` is monotone, so each
    holds a root exactly when h changes sign across it.  A critical point
    where ``|h|`` is within rounding is itself a root: a near-double root is
    split at, never integrated across.
    """
    terms = [(ck, ek) for ck, ek in zip(coeffs, lambdas) if ck != 0.0]
    changes = sum((a < 0.0) != (b < 0.0) for (a, _), (b, _) in zip(terms, terms[1:]))
    if changes == 0:
        return []
    c0, e0 = terms[0]
    rest = [(ck, ek - e0) for ck, ek in terms[1:]]

    def h(t):
        log_x = math.log1p(-t) if t < 1.0 else -math.inf
        return c0 + sum(ck * math.exp(ek * log_x) for ck, ek in rest)

    def sign(t):
        """Sign of h(t) below t = 1, 0 within the rounding of its terms."""
        log_x = math.log1p(-t)
        size = abs(c0) + sum(abs(ck) * math.exp(ek * log_x) * (1.0 - ek * log_x)
                             for ck, ek in rest)
        value = h(t)
        return 0.0 if abs(value) <= _ROUNDING_RTOL * size else math.copysign(1.0, value)

    critical = [] if changes == 1 else _roots([ck * ek for ck, ek in rest],
                                              [ek for _, ek in rest])
    ends = [0.0, *critical, 1.0]
    signs = [sign(t) for t in ends[:-1]] + [math.copysign(1.0, c0)]   # h(x=0) = c0
    roots = []
    for k in range(len(ends) - 1):
        if k and signs[k] == 0.0:
            roots.append(ends[k])
        if signs[k] * signs[k + 1] < 0.0:
            roots.append(quadrature.bisect_root(h, ends[k], ends[k + 1]))
    return roots


def _row_roots(coeffs, lambdas) -> list[np.ndarray]:
    """:func:`_roots` of every row of the 2-D ``coeffs``; they depend on the
    row alone, so one list serves the integrals against every measure.  An
    integral without density cells reads none, so it may be given ``[]``."""
    lam = np.asarray(lambdas, dtype=float).tolist()
    return [np.array(_roots(row, lam)) for row in coeffs.tolist()]


class _PowerIntegrals:
    """Integrals of ``|f|^p`` against one measure for polynomials on one
    exponent set: the measure's plan, and the basis at its nodes built
    once."""

    def __init__(self, mu: Measure, lambdas):
        flat = mu.flattened()
        self.lam = np.asarray(lambdas, dtype=float)
        self.log_weights = flat.log_weights
        self.atom_basis = powers(self.lam, flat.log_positions)
        self.plan = mu.plan
        self.basis = powers(self.lam, _log_x(self.plan.nodes.ravel()))

    def norms(self, coeffs, p: float, roots) -> list[LpNormEstimate]:
        """``||f||_{L^p(mu)}`` for every row of the 2-D ``coeffs``, whose
        roots are ``roots`` (from :func:`_row_roots`)."""
        out = []
        for start in range(0, coeffs.shape[0], _ROW_CHUNK):
            stop = start + _ROW_CHUNK
            out += self._norms(coeffs[start:stop], p, roots[start:stop])
        return out

    def _norms(self, coeffs, p, roots):
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
            vals = _combine(coeffs, self.basis).reshape((rows,) + plan.nodes.shape)
            fine, err = plan.cell_sums(np.abs(vals) ** p)
            cuts = {}
            for r, row_roots in enumerate(roots):
                first = np.searchsorted(row_roots, plan.lo, side="right")
                stop = np.searchsorted(row_roots, plan.hi, side="left")
                for c in np.flatnonzero(stop > first):   # cells holding a root
                    cuts[r, c] = [plan.lo[c], *row_roots[first[c]:stop[c]], plan.hi[c]]
                    fine[r, c], err[r, c] = self._split_cell(coeffs[r], p, c, cuts[r, c])
            total = atoms + fine.sum(axis=-1)
            for r, c in zip(*np.nonzero(plan.loose_cells(err, total))):
                fine[r, c], err[r, c] = plan.refine_cell(
                    lambda t, row=coeffs[r]: np.abs(self._eval(row, t)) ** p,
                    c, cuts.get((r, c)))
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
        basis = powers(self.lam, _log_x(np.ravel(t)))
        return _combine(c_row[None, :], basis)[0]

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
        width = _ROOT_NODES.shape[-1]
        nodes = (np.array(anchors)[:, None, None]
                 + spans * _ROOT_NODES).reshape(-1, width)
        weights = (np.abs(spans) * _ROOT_WEIGHTS).reshape(-1, width)
        h = self.plan.densities[self.plan.piece[cell]]
        terms = np.abs(self._eval(c_row, nodes.ravel()).reshape(nodes.shape)) ** p \
            * (weights * np.asarray(h(nodes), dtype=float))
        fine, err = quadrature.coarse_fine(terms)
        return float(fine.sum()), float(err.sum())


def _lebesgue_norms(coeffs, lambdas, p: float, roots,
                    on_lebesgue: _PowerIntegrals | None = None) -> list[float]:
    """``||f||_p`` on [0, 1] per coefficient row; p = 2 through the exact
    Gramian, as in :func:`lebesgue_lp_norm`."""
    if p == 2.0:
        seq = LambdaSequence(lambdas)
        return [MuntzPolynomial(seq, c).l2_norm_lebesgue() for c in coeffs]
    on_lebesgue = on_lebesgue or _PowerIntegrals(lebesgue(), lambdas)
    return [e.value for e in on_lebesgue.norms(coeffs, p, roots)]


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
    on_mu = _PowerIntegrals(mu, seq.values)
    roots = _row_roots(coeffs, seq.values) if on_mu.plan.cells else []
    return on_mu.norms(coeffs, p, roots)


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
        roots = _row_roots(coeffs, sub.values) if on_mu.plan.cells or on_lebesgue else []
        num = [e.value for e in on_mu.norms(coeffs, p, roots)]
        denom = _lebesgue_norms(coeffs, sub.values, p, roots, on_lebesgue)
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
    records: tuple = ()       # per-sample (index, lhs, rhs)


class InterpolationDraws:
    """The sampled polynomials of interpolation checks: ``samples``
    unit-sphere draws on ``seq.truncate(n)`` from ``seed``, every other one
    tilted toward the top exponent.  It isolates their roots once, and
    computes their ``||f||_{L^p(mu)}`` once per measure and p, when first
    read, so checks of several measures and t on one draw share that work;
    it keeps nothing beyond the checks it serves."""

    def __init__(self, seq: LambdaSequence, n: int | None, samples: int,
                 seed: int):
        self.seq, self.n, self.samples, self.seed = seq, n, samples, seed
        self.sub = seq.truncate(len(seq) if n is None else n)
        rng = np.random.default_rng(seed)
        self.coeffs = np.array([
            random_unit(self.sub, rng, bias_last=(i % 2 == 1)).coefficients
            for i in range(samples)])
        self.roots = _row_roots(self.coeffs, self.sub.values)
        # id(mu) -> (mu, its integrals); keeping mu keeps its id its own
        self._integrals = {}
        self._norms = {}          # (id(mu), p) -> norms

    def norms(self, mu: Measure, p: float) -> list[float]:
        """``||f||_{L^p(mu)}`` per draw; a measure is matched by identity."""
        if id(mu) not in self._integrals:
            self._integrals[id(mu)] = mu, _PowerIntegrals(mu, self.sub.values)
        key = id(mu), p
        if key not in self._norms:
            on_mu = self._integrals[id(mu)][1]
            self._norms[key] = [e.value for e in on_mu.norms(self.coeffs, p,
                                                             self.roots)]
        return self._norms[key]

    def lebesgue_norms(self, p: float) -> list[float]:
        """``||f||_p`` on [0, 1] per draw; p = 2 through the exact Gramian,
        as in :func:`lebesgue_lp_norm`."""
        if p == 2.0:
            return _lebesgue_norms(self.coeffs, self.sub.values, p, self.roots)
        return self.norms(lebesgue(), p)


def interpolation_check(seq: LambdaSequence, mu: Measure, p0: float, p1: float,
                        t: float, *, n: int | None = None, samples: int = 100,
                        seed: int = 0,
                        draws: InterpolationDraws | None = None) -> InterpolationReport:
    """Per-function interpolation inequality on sampled polynomials:

        ||f||_{L^{p_t}(mu)} <= C0^(1-t) C1^t ||f||_{p_t},

    with C0, C1 certified upper bounds of the endpoint embedding norms.
    Returns an inconclusive report when no certified constants exist; this is
    not a failure.  ``draws``, made from the same ``seq``, ``n``, ``samples``
    and ``seed``, lets several checks share one draw's work.
    """
    if not (1.0 <= p0 < p1):
        raise InvalidParameterError("need 1 <= p0 < p1")
    if not 0.0 < t < 1.0:
        raise InvalidParameterError("t must lie in (0, 1)")
    if draws is not None and (draws.seq is not seq or (
            draws.n, draws.samples, draws.seed) != (n, samples, seed)):
        raise InvalidParameterError(
            "draws were made for another sequence, n, samples or seed")
    p_t = 1.0 / ((1.0 - t) / p0 + t / p1)
    c0 = certified_embedding_constant(mu, p0)
    c1 = certified_embedding_constant(mu, p1)
    if c0 is None or c1 is None:
        return InterpolationReport(p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1,
                                   inconclusive=True, violations=(),
                                   max_slack=math.nan, samples=0, seed=seed)
    factor = c0 ** (1.0 - t) * c1 ** t
    if draws is None:
        draws = InterpolationDraws(seq, n, samples, seed)
    lhs_all = draws.norms(mu, p_t)
    rhs_all = [factor * v for v in draws.lebesgue_norms(p_t)]
    records = tuple(zip(range(len(lhs_all)), lhs_all, rhs_all))
    violations = []
    max_slack = -math.inf
    for i, lhs, rhs in records:
        slack = lhs - rhs
        max_slack = max(max_slack, slack)
        if slack > _INTERPOLATION_TOL * max(1.0, rhs):
            violations.append(InterpolationViolation(
                sample=i, lhs=lhs, rhs=rhs, excess=slack))
    return InterpolationReport(p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1,
                               inconclusive=False, violations=tuple(violations),
                               max_slack=max_slack, samples=samples, seed=seed,
                               records=records)


def l1_unboundedness_witness(seq: LambdaSequence, mu: Measure) -> list[tuple[int, float]]:
    """L^1(mu) norms of the test functions lambda_n x**lambda_n.

    Their L^1(m) norms are lambda_n/(lambda_n+1) <= 1, so an unbounded trend
    of these values witnesses failure of the L^1 embedding.
    """
    lam = seq.values
    return list(enumerate((lam * np.exp(mu.log_moments(lam))).tolist(), start=1))
