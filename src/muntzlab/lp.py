"""L^p norms of Muntz polynomials, empirical embedding constants, and the
interpolation inequality as a per-function check.

Density integrals run on one fixed :class:`~muntzlab.quadrature.QuadraturePlan`
per measure, the one it keeps (:attr:`~muntzlab.measures.Measure.plan`; the
Lebesgue one is shared).  Integrals against several measures share their
cells: the plans are merged into their distinct cells, the basis
``x**lambda_k`` at those nodes is computed once per exponent set, and
``|f|^p`` once per distinct cell and coefficient row; each measure weights
its own cells of it, so the integrals of ``|f|^p`` for many rows and
measures are weighted sums over one array, bit-identical to integrating
each measure alone.  For non-even p, ``|f|^p`` has kinks at the zeros of f.
Every root of a row in ``(0, 1)`` is isolated up front by the Rolle chain
(:func:`~muntzlab.polynomials._roots`; a polynomial keeps its
:attr:`~muntzlab.polynomials.MuntzPolynomial.roots`), once for the
integrals against every measure, and exactly the cells that hold a root are
refined for that row alone, each side of a root integrated on cells graded
toward it, with ``|f|^p`` there computed once for every measure holding
the cell.  A cell whose coarse and fine rules still differ by more than
1e-12 of the row's total is re-integrated adaptively, split at its roots,
by :meth:`~muntzlab.quadrature.QuadraturePlan.refine_cell`, and counted.
Rows are evaluated independently, so a batched row is bit-identical to its
single call.  Atoms are exact log-domain sums.  ``p`` must be finite and at
least 1, and an integral below the smallest normal double, of an ``f``
that is nonzero on the support, is refused rather than read as 0.

Empirical embedding constants maximize a ratio over random coefficient
spheres and are LOWER bounds of the truncated operator norm; the
interpolation check therefore only ever multiplies *certified* upper bounds
for the endpoint constants (bounded-density measures and their scalings),
and reports inconclusive when no certified constant exists.
:func:`interpolation_checks` runs the checks of several measures and t on
one draw, with all their norms at one p_t from one evaluation;
:func:`interpolation_check` is its one-measure, one-t case.
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
from .polynomials import (ROUNDING_RTOL, MuntzPolynomial, _combine, _roots,
                          powers, random_unit)
from .sequences import LambdaSequence

_ROW_CHUNK = 64
_INTERPOLATION_TOL = 1e-9   # slack of a sample before it counts as a violation
# unit rule that kinked cells are mapped onto, graded toward a root
_ROOT_NODES, _ROOT_WEIGHTS = quadrature.graded_rule(quadrature.INNER_LEVELS)
_TINY = sys.float_info.min   # smallest normal double


@dataclass(frozen=True)
class LpNormEstimate:
    p: float
    value: float
    quadrature_error: float   # first-order bound on the error of ``value``
    fallback_cells: int = 0   # plan cells re-integrated adaptively


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidParameterError(f"p must be finite and >= 1, got {p!r}")


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise InvalidParameterError(f"need at least one sample, got {samples!r}")


def _log_x(t) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log1p(-np.asarray(t, dtype=float))


def _row_roots(coeffs, lambdas) -> list[np.ndarray]:
    """:func:`_roots` of every row of the 2-D ``coeffs``; they depend on the
    row alone, so one list serves the integrals against every measure.  An
    integral without density cells reads none, so it may be given ``[]``."""
    lam = np.asarray(lambdas, dtype=float).tolist()
    return [np.array(_roots(row, lam)) for row in coeffs.tolist()]


def _distinct_cells(plans) -> tuple[np.ndarray, list]:
    """The distinct cells of ``plans`` as node rows, and per plan the index
    of each of its cells among them, or None where the plan's cells are
    all of them in order.  Cells are matched by the bytes of their node
    rows; plans that share one ``nodes`` array match at once."""
    arrays = []                        # distinct node arrays, by identity
    for plan in plans:
        if all(plan.nodes is not a for a in arrays):
            arrays.append(plan.nodes)
    if len(arrays) == 1:
        return arrays[0], [None] * len(plans)
    index = {}                         # node-row bytes -> distinct cell
    takes = [np.array([index.setdefault(row.tobytes(), len(index))
                       for row in nodes], dtype=np.intp) for nodes in arrays]
    cells = np.empty((len(index), arrays[0].shape[1]))
    for nodes, take in zip(arrays, takes):
        cells[take] = nodes
    in_order = np.arange(len(index))
    by_array = {id(nodes): None if np.array_equal(take, in_order) else take
                for nodes, take in zip(arrays, takes)}
    return cells, [by_array[id(plan.nodes)] for plan in plans]


class _PowerIntegrals:
    """Integrals of ``|f|^p`` against several measures for polynomials on
    one exponent set.  The measures' plans are merged into their distinct
    cells, and the basis at those nodes is built once; ``|f|^p`` is computed
    once per distinct cell and row, and each measure weights its own cells
    of it.  The ``|f|^p`` of a row on the graded sub-cells of a kinked cell
    is likewise computed once for every measure that holds the cell."""

    def __init__(self, measures, lambdas):
        self.lam = np.asarray(lambdas, dtype=float)
        flats = [mu.flattened() for mu in measures]
        self.atoms = [(flat.log_weights, powers(self.lam, flat.log_positions))
                      for flat in flats]
        self.plans = [mu.plan for mu in measures]
        self.nodes, self.takes = _distinct_cells(self.plans)
        self.basis = powers(self.lam, _log_x(self.nodes.ravel()))

    @property
    def has_density(self) -> bool:
        return self.nodes.size > 0

    def norms(self, coeffs, p: float, roots) -> list[list[LpNormEstimate]]:
        """``||f||_{L^p(mu)}`` for every measure (outer) and row of the 2-D
        ``coeffs`` (inner), whose roots are ``roots`` (from
        :func:`_row_roots`)."""
        out = [[] for _ in self.plans]
        for start in range(0, coeffs.shape[0], _ROW_CHUNK):
            stop = start + _ROW_CHUNK
            for per_mu, chunk in zip(out, self._norms(coeffs[start:stop], p,
                                                      roots[start:stop])):
                per_mu += chunk
        return out

    def _norms(self, coeffs, p, roots):
        rows = coeffs.shape[0]
        size = powered = None
        if self.has_density:
            size = np.abs(_combine(coeffs, self.basis)).reshape(
                (rows,) + self.nodes.shape)
            powered = size ** p
        graded = {}     # (row, cuts) -> |f|^p on a kinked cell's sub-cells
        out = []
        for plan, take, (log_weights, atom_basis) in zip(self.plans, self.takes,
                                                         self.atoms):
            total = np.zeros(rows)
            err_rows = np.zeros(rows)
            fallbacks = np.zeros(rows, dtype=int)
            atom_vals = None
            if log_weights.size:
                atom_vals = np.abs(_combine(coeffs, atom_basis))
                with np.errstate(divide="ignore"):
                    log_terms = log_weights + p * np.log(atom_vals + 1e-300)
                total += np.exp(log_sum(log_terms, axis=-1))
            if plan.cells:
                atoms = total.copy()
                # a C-contiguous copy: the cell sums of a strided view of
                # several rows can differ in the last bit
                own = powered if take is None else np.take(powered, take, axis=1)
                fine, err = plan.cell_sums(own)
                cuts = {}
                for r, row_roots in enumerate(roots):
                    first = np.searchsorted(row_roots, plan.lo, side="right")
                    stop = np.searchsorted(row_roots, plan.hi, side="left")
                    for c in np.flatnonzero(stop > first):   # cells holding a root
                        cuts[r, c] = [plan.lo[c], *row_roots[first[c]:stop[c]],
                                      plan.hi[c]]
                        key = r, tuple(cuts[r, c])
                        if key not in graded:
                            graded[key] = self._graded(coeffs[r], p, cuts[r, c])
                        fine[r, c], err[r, c] = _split_cell(plan, c, *graded[key])
                total = atoms + fine.sum(axis=-1)
                for r, c in zip(*np.nonzero(plan.loose_cells(err, total))):
                    fine[r, c], err[r, c] = plan.refine_cell(
                        lambda t, row=coeffs[r]: np.abs(self._eval(row, t)) ** p,
                        c, cuts.get((r, c)))
                    fallbacks[r] += 1
                    total[r] = atoms[r] + fine[r].sum()
                err_rows = err.sum(axis=-1)
            for r in np.flatnonzero(total < _TINY):
                reached = atom_vals is not None and np.any(atom_vals[r] > 0.0)
                if plan.cells and not reached:
                    at_nodes = size[r] if take is None else size[r][take]
                    reached = np.any((at_nodes > 0.0) & (plan.weights > 0.0))
                if reached:
                    raise InvalidParameterError(
                        f"the integral of |f|^{p!r} is below the smallest "
                        f"normal double, {_TINY!r}, though f is nonzero on "
                        "the support; take a smaller p")
            out.append([_estimate(p, float(total[r]), float(err_rows[r]),
                                  int(fallbacks[r])) for r in range(rows)])
        return out

    # -- per-row refinement ---------------------------------------------------

    def _eval(self, c_row, t) -> np.ndarray:
        basis = powers(self.lam, _log_x(np.ravel(t)))
        return _combine(c_row[None, :], basis)[0]

    def _graded(self, c_row, p, cuts):
        """``(nodes, weights, |f|^p)`` on sub-cells of a kinked cell graded
        toward each root; a segment between two roots is split at its
        midpoint.  They depend on the row and ``cuts`` alone, so every
        measure holding the cell reads them."""
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
        values = np.abs(self._eval(c_row, nodes.ravel()).reshape(nodes.shape)) ** p
        return nodes, weights, values


def _split_cell(plan, cell, nodes, weights, values) -> tuple[float, float]:
    """``(value, error)`` of a kinked cell from ``|f|^p`` on its graded
    sub-cells (:meth:`_PowerIntegrals._graded`), weighted by the density of
    the cell's piece."""
    h = plan.densities[plan.piece[cell]]
    terms = values * (weights * np.asarray(h(nodes), dtype=float))
    fine, err = quadrature.coarse_fine(terms)
    return float(fine.sum()), float(err.sum())


def _estimate(p, integral, integral_err, fallbacks) -> LpNormEstimate:
    """``integral ** (1/p)`` with the error of the integral propagated to
    first order through ``T -> T^(1/p)``."""
    # ROUNDING_RTOL per unit of the integral is added before propagation
    integral_err += ROUNDING_RTOL * integral
    prop = (integral_err / (p * integral ** (1.0 - 1.0 / p))
            if integral > 0.0 else integral_err ** (1.0 / p))
    return LpNormEstimate(p=p, value=integral ** (1.0 / p),
                          quadrature_error=prop, fallback_cells=fallbacks)


def _lebesgue_l2_norms(coeffs, lambdas) -> list[float]:
    """``||f||_2`` on [0, 1] per coefficient row, through the exact
    Gramian, as in :func:`lebesgue_lp_norm`."""
    seq = LambdaSequence(lambdas)
    return [MuntzPolynomial(seq, c).l2_norm_lebesgue() for c in coeffs]


def _unit_draws(sub: LambdaSequence, samples: int, seed: int) -> np.ndarray:
    """``samples`` unit-sphere coefficient rows on ``sub`` from ``seed``,
    every other one tilted toward the top exponent."""
    rng = np.random.default_rng(seed)
    return np.array([random_unit(sub, rng, bias_last=(i % 2 == 1)).coefficients
                     for i in range(samples)])


def lp_norms(seq: LambdaSequence, coefficients, p: float,
             mu: Measure) -> list[LpNormEstimate]:
    """||f||_{L^p(mu)} for every row of ``coefficients`` on the exponents of
    ``seq``, on one quadrature plan and basis; row i equals
    ``lp_norm(MuntzPolynomial(seq, coefficients[i]), p, mu)`` bit for bit."""
    _check_p(p)
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coeffs.ndim != 2 or coeffs.shape[1] != len(seq):
        raise InvalidParameterError(
            "coefficient rows must match the sequence length")
    on_mu = _PowerIntegrals([mu], seq.values)
    roots = _row_roots(coeffs, seq.values) if on_mu.has_density else []
    return on_mu.norms(coeffs, p, roots)[0]


def lp_norm(f: MuntzPolynomial, p: float, mu: Measure) -> LpNormEstimate:
    """||f||_{L^p(mu)}: exact for atomic mu, quadrature for densities; the
    roots are the ones ``f`` keeps."""
    _check_p(p)
    on_mu = _PowerIntegrals([mu], f.lambdas)
    roots = [f.roots] if on_mu.has_density else []
    return on_mu.norms(f.coefficients[None, :], p, roots)[0][0]


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
    polishes the best sample.  For p != 2 the numerator and the Lebesgue
    denominator are integrated together, on their shared cells.
    """
    _check_samples(samples)
    _check_p(p)
    sub = seq.truncate(n)
    exact_denominator = p == 2.0
    integrals = _PowerIntegrals([mu] if exact_denominator else [mu, lebesgue()],
                                sub.values)

    def ratios(coeffs) -> list[float]:
        roots = _row_roots(coeffs, sub.values) if integrals.has_density else []
        norms = integrals.norms(coeffs, p, roots)
        num = [e.value for e in norms[0]]
        denom = (_lebesgue_l2_norms(coeffs, sub.values) if exact_denominator
                 else [e.value for e in norms[1]])
        return [0.0 if d == 0.0 else v / d for v, d in zip(num, denom)]

    # the draws are independent of the ratios, so they are evaluated as one
    # batch; the first maximum wins, as in a sequential scan
    draws = _unit_draws(sub, samples, seed)
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
    _check_p(p)
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


def interpolation_checks(seq: LambdaSequence, measures, p0: float, p1: float,
                         ts, *, n: int | None = None, samples: int = 100,
                         seed: int = 0) -> list[list[InterpolationReport]]:
    """Per-function interpolation inequality on sampled polynomials:

        ||f||_{L^{p_t}(mu)} <= C0^(1-t) C1^t ||f||_{p_t},

    for every measure of ``measures`` (outer list) and every t of ``ts``
    (inner list), with C0, C1 certified upper bounds of the endpoint
    embedding norms.  A measure without certified constants gets an
    inconclusive report; this is not a failure.  Every check reads one draw
    of ``samples`` unit-sphere polynomials on ``seq.truncate(n)`` from
    ``seed``, every other one tilted toward the top exponent, whose roots
    are isolated once.  At each p_t the norms against every certified
    measure and Lebesgue's denominators come from one evaluation on their
    shared cells; measures are matched by identity.  Nothing is drawn when
    no measure has certified constants.
    """
    _check_samples(samples)
    if not (1.0 <= p0 < p1):
        raise InvalidParameterError("need 1 <= p0 < p1")
    measures, ts = list(measures), list(ts)
    if not all(0.0 < t < 1.0 for t in ts):
        raise InvalidParameterError("t must lie in (0, 1)")
    p_ts = [1.0 / ((1.0 - t) / p0 + t / p1) for t in ts]
    constants = [(certified_embedding_constant(mu, p0),
                  certified_embedding_constant(mu, p1)) for mu in measures]
    certified = [mu for mu, (c0, c1) in zip(measures, constants)
                 if c0 is not None and c1 is not None]
    lhs = {}                 # (id(mu), p_t) -> ||f||_{L^p_t(mu)} per draw
    rhs = {}                 # p_t -> ||f||_{p_t} per draw
    if certified:
        joined = []          # each certified measure once, then Lebesgue
        for mu in [*certified, lebesgue()]:
            if all(mu is not m for m in joined):
                joined.append(mu)
        sub = seq.truncate(len(seq) if n is None else n)
        coeffs = _unit_draws(sub, samples, seed)
        roots = _row_roots(coeffs, sub.values)
        integrals = _PowerIntegrals(joined, sub.values)
        for p_t in dict.fromkeys(p_ts):
            every = integrals.norms(coeffs, p_t, roots)
            for mu, estimates in zip(joined, every):
                lhs[id(mu), p_t] = [e.value for e in estimates]
            # p_t = 2 through the exact Gramian, as in lebesgue_lp_norm
            rhs[p_t] = (_lebesgue_l2_norms(coeffs, sub.values) if p_t == 2.0
                        else lhs[id(lebesgue()), p_t])

    def report(mu, c0, c1, t, p_t) -> InterpolationReport:
        if c0 is None or c1 is None:
            return InterpolationReport(
                p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1, inconclusive=True,
                violations=(), max_slack=math.nan, samples=0, seed=seed)
        factor = c0 ** (1.0 - t) * c1 ** t
        records = tuple(zip(range(samples), lhs[id(mu), p_t],
                            [factor * v for v in rhs[p_t]]))
        violations = []
        max_slack = -math.inf
        for i, left, right in records:
            slack = left - right
            max_slack = max(max_slack, slack)
            if slack > _INTERPOLATION_TOL * max(1.0, right):
                violations.append(InterpolationViolation(
                    sample=i, lhs=left, rhs=right, excess=slack))
        return InterpolationReport(
            p0=p0, p1=p1, t=t, p_t=p_t, c0=c0, c1=c1, inconclusive=False,
            violations=tuple(violations), max_slack=max_slack,
            samples=samples, seed=seed, records=records)

    return [[report(mu, c0, c1, t, p_t) for t, p_t in zip(ts, p_ts)]
            for mu, (c0, c1) in zip(measures, constants)]


def interpolation_check(seq: LambdaSequence, mu: Measure, p0: float, p1: float,
                        t: float, *, n: int | None = None, samples: int = 100,
                        seed: int = 0) -> InterpolationReport:
    """:func:`interpolation_checks` of one measure at one t."""
    return interpolation_checks(seq, [mu], p0, p1, [t], n=n, samples=samples,
                                seed=seed)[0][0]


def l1_unboundedness_witness(seq: LambdaSequence, mu: Measure) -> list[tuple[int, float]]:
    """L^1(mu) norms of the test functions lambda_n x**lambda_n.

    Their L^1(m) norms are lambda_n/(lambda_n+1) <= 1, so an unbounded trend
    of these values witnesses failure of the L^1 embedding.
    """
    lam = seq.values
    return list(enumerate((lam * np.exp(mu.log_moments(lam))).tolist(), start=1))
