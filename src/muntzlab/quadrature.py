"""Gauss-Legendre quadrature in the tail variable ``t = 1 - x``.

The integrals arising here (L^p norms of Muntz polynomials and integrals of
user functions against density measures, psi-function certificates) are
smooth away from the point 1, where the interesting structure lives at
scales as small as ``1/lambda_max``.  They are computed in ``t`` on cells
graded dyadically toward ``t = 0``, with a fixed Gauss-Legendre rule per
cell.

:class:`QuadraturePlan` fixes those cells once per set of density pieces, and
a measure keeps the plan of its own pieces:
each cell carries a coarse rule and the two-half rule, ``|fine - coarse|``
is its error estimate, and the densities are folded into the weights when
the plan is built, so integrands of many functions are weighted sums over
one shared node array.  Pieces reaching ``x = 0`` (``t = 1``) are graded
toward that end as well, so integrands like ``x**0.5`` converge there; every
node lies strictly inside its piece.  Cells whose estimate stays above
tolerance are re-integrated adaptively by :meth:`QuadraturePlan.refine_cell`.
A plan knows nothing of kinks: :mod:`~muntzlab.lp` isolates the roots of each
polynomial (the kinks of ``|f|^p``) with :func:`bisect_root`, splits the
cells that hold one itself and passes the roots to ``refine_cell``.

The adaptive routines bisect a cell until its rule agrees with the sum over
its two halves.  They run breadth first over many intervals at once: each
round evaluates the halves of every open cell in one integrand call (split
at MAX_POINTS points), and a cell's accept test depends on that cell alone,
so the leaves, the number of abscissae and the values are those of a
depth-first recursion.  :func:`integrate` is the one-interval case;
:func:`integrate_refined_at_zero`, the dyadic scheme the psi, rho and
Hilbert-Schmidt certificates use, refines its cells toward ``t = 0`` all
together, to depth 4 each.  It also returns the part of the integral over
``(0, cut]`` from the same cells, integrating again, to the same depth, only
the one cell that straddles ``cut``.  Its first two rounds, the single rules
and then both halves of every cell (:func:`refined_at_zero_nodes`), depend
on the width alone, so a caller may pass the integrand's values there as
``head``; the integrand is then called from the second adaptive round on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_ORDER = 24       # Gauss-Legendre points per rule
DEFAULT_LEVELS = 54      # dyadic levels toward t = 0 (x = 1)
REFINE_DEPTH = 4         # adaptive depth cap of each of those cells
FAR_END_LEVELS = 40      # dyadic levels toward t = 1 (x = 0)
INNER_LEVELS = 20        # dyadic levels toward an interior edge or a root
PLAN_REL_TOL = 1e-12
MAX_POINTS = 2048        # most abscissae one call of an adaptive integrand sees
_CELL_REL_TOL = 1e-12    # adaptive accept test of a cell against its own value
_ROOT_TOL = 1e-15        # root bracket width per unit of max(1, |root|)
_ROOT_MAX_ITER = 200

_NODES, _WEIGHTS = leggauss(DEFAULT_ORDER)


def _rule_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on the cells ``[lo_i, hi_i]``, cell after cell,
    and the cells' half widths."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _NODES).ravel(), half


def _halves(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the two halves of every cell ``[lo_i, hi_i]``, in order."""
    mid = 0.5 * (lo + hi)
    return np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()


def _cells(f, lo, hi, values=None) -> np.ndarray:
    """Gauss-Legendre values on the cells ``[lo_i, hi_i]``.

    ``f`` sees the nodes of consecutive cells in calls of at most MAX_POINTS
    points, unless ``values`` already holds its values there.  Each cell's
    weighted sum is its own dot product, so a cell's value does not depend on
    the cells evaluated with it.
    """
    t, half = _rule_nodes(lo, hi)
    if values is None:
        values = np.concatenate([np.asarray(f(t[i:i + MAX_POINTS]), dtype=float)
                                 for i in range(0, t.size, MAX_POINTS)])
    sums = np.fromiter(map(_WEIGHTS.dot, values.reshape(-1, DEFAULT_ORDER)),
                       dtype=float, count=lo.size)
    return half * sums


def _adaptive(f, lo, hi, coarse, max_depth: int,
              first=None) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive bisection of every interval ``[lo_i, hi_i]`` with its one-rule
    value ``coarse_i``, breadth first: each round evaluates both halves of
    every open cell in one pass of :func:`_cells`; ``first``, when given,
    holds the values of ``f`` on the halves of the first round.

    A cell is accepted when its two halves sum to within _CELL_REL_TOL of
    its own value, or at ``max_depth``; this depends on the cell alone, so the
    leaves are those of a depth-first recursion.  An integrand that overflows
    reads inf there, and the cell's error NaN, so it splits to the cap.
    Leaf values are summed back up the tree pairwise (left + right), as that
    recursion returns them.  Returns ``(value, error estimate)`` per interval.
    """
    rounds = []
    depth = 0
    while lo.size:
        edges_lo, edges_hi = _halves(lo, hi)
        halves = _cells(f, edges_lo, edges_hi, first if depth == 0 else None)
        fine = halves[0::2] + halves[1::2]
        with np.errstate(invalid="ignore"):
            err = np.abs(fine - coarse)
        split = ~(err <= _CELL_REL_TOL * (np.abs(fine) + 1e-300)) & (depth < max_depth)
        rounds.append((fine, err, split))
        pairs = np.repeat(split, 2)
        lo, hi, coarse = edges_lo[pairs], edges_hi[pairs], halves[pairs]
        depth += 1
    value = err = np.zeros(0)
    for fine, cell_err, split in reversed(rounds):
        fine[split] = value[0::2] + value[1::2]
        cell_err[split] = err[0::2] + err[1::2]
        value, err = fine, cell_err
    return value, err


def integrate(f, a: float, b: float, *, max_depth: int = 14) -> tuple[float, float]:
    """Integrate the vectorized callable ``f`` over ``[a, b]``.

    Adaptive bisection: a cell is accepted when the Gauss-Legendre value
    agrees with the sum over its two halves.  Returns ``(value, error
    estimate)``.
    """
    if not b > a:
        return 0.0, 0.0
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value, err = _adaptive(f, lo, hi, _cells(f, lo, hi), max_depth)
    return float(value[0]), float(err[0])


def _dyadic_cells(width: float) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of the cells ``[width*2^-(j+1), width*2^-j]``,
    ``j < DEFAULT_LEVELS``, then the sliver ``(0, width*2^-DEFAULT_LEVELS]``."""
    hi = width * 2.0 ** -np.arange(DEFAULT_LEVELS + 1.0)
    return np.append(hi[1:], 0.0), hi


def refined_at_zero_nodes(width: float) -> np.ndarray:
    """The abscissae of the first two rounds of
    :func:`integrate_refined_at_zero` over ``(0, width]``: the single rules on
    its cells and the sliver, then both halves of every cell.  They depend on
    ``width`` alone; the values of an integrand there are its ``head``."""
    lo, hi = _dyadic_cells(width)
    return np.concatenate([_rule_nodes(lo, hi)[0],
                           _rule_nodes(*_halves(lo[:-1], hi[:-1]))[0]])


def integrate_refined_at_zero(f, width: float, *, cut: float = math.inf,
                              head=None):
    """Integrate ``f`` over ``(0, width]`` with dyadic refinement toward 0.

    Cells are ``[width*2^-(j+1), width*2^-j]`` for ``j < DEFAULT_LEVELS``,
    each refined adaptively to depth 4, plus the residual sliver
    ``(0, width*2^-DEFAULT_LEVELS]``, which is integrated by a single rule (its
    contribution bounds the reported error for integrands that are merely
    integrable at 0).  Returns ``(value, error estimate, part)``.

    ``head``, when given, holds the values of ``f`` at
    :func:`refined_at_zero_nodes` of ``width``, and ``f`` is called only from
    the second adaptive round on; the result is the same.

    ``part`` is the share of the value over ``(0, cut]`` (the value itself
    for the default ``cut``), read from the same cell values: only the one
    cell that straddles ``cut`` is integrated again, by :func:`integrate`
    over its part below ``cut`` with the same depth cap.
    """
    if width <= 0.0:
        return 0.0, 0.0, 0.0
    lo, hi = _dyadic_cells(width)
    split = lo.size * DEFAULT_ORDER
    rules_at, halves_at = (None, None) if head is None else np.split(head, [split])
    # the dyadic cells and the sliver share the first pass of single rules
    rules = _cells(f, lo, hi, rules_at)
    values, errs = _adaptive(f, lo[:-1], hi[:-1], rules[:-1], REFINE_DEPTH,
                             halves_at)
    total = 0.0
    err = 0.0
    for v, e in zip(values.tolist(), errs.tolist()):    # in order, level by level
        total += v
        err += e
    sliver = float(rules[-1])
    part = total + sliver if cut >= width else 0.0
    if 0.0 < cut < width:
        straddling = np.flatnonzero((lo < cut) & (cut < hi))    # at most one
        if straddling.size:
            part = integrate(f, float(lo[straddling[0]]), cut,
                             max_depth=REFINE_DEPTH)[0]
        # then the cells wholly below cut, level by level, the sliver last
        for v in np.append(values, sliver)[hi <= cut].tolist():
            part += v
    return total + sliver, err + abs(sliver), part


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of a scalar sign change bracketed by ``[lo, hi]``.

    Illinois false-position steps (the endpoint kept twice in a row has its
    value halved), with a plain bisection step whenever the last two steps
    together failed to halve the bracket, so the bracket shrinks at least as
    fast as under bisection at a third of the speed.  Stops when the bracket
    is below ``_ROOT_TOL * max(1, |mid|)``, or after _ROOT_MAX_ITER steps.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    kept = 0            # -1: lo kept last step, +1: hi kept last step
    bisect_next = False
    before = hi - lo    # bracket width two steps back
    for _ in range(_ROOT_MAX_ITER):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if width <= _ROOT_TOL * max(1.0, abs(mid)):
            return mid
        x = mid if bisect_next else (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            if kept == +1:
                fhi *= 0.5
            kept = +1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        bisect_next = hi - lo > 0.5 * before
        before = width
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# fixed plans
# ---------------------------------------------------------------------------

def graded_edges(a: float, b: float, levels_a: int = 0,
                 levels_b: int = 0) -> np.ndarray:
    """Cell edges of ``[a, b]`` graded dyadically toward ``a`` and/or ``b``.

    Grading toward ``a`` gives the cells ``[a + d 2^-(j+1), a + d 2^-j]``,
    ``j < levels_a``, plus the innermost cell ``[a, a + d 2^-levels_a]``, with
    ``d`` the distance to the midpoint when both ends are graded and to the
    other end otherwise; likewise toward ``b``.
    """
    if levels_a and levels_b:
        m = 0.5 * (a + b)
    else:
        m = b if levels_a else a
    parts = [[a]]
    if levels_a:
        parts.append(a + (m - a) * 2.0 ** -np.arange(levels_a, -1, -1, dtype=float))
    if levels_b or not levels_a:
        parts += [b - (b - m) * 2.0 ** -np.arange(1, levels_b + 1, dtype=float), [b]]
    return np.concatenate(parts)


def graded_rule(levels: int):
    """:func:`cell_rule` nodes and weights on ``[0, 1]`` graded toward 0 over
    ``levels`` levels; ``u + s * nodes`` with weights ``|s| * weights``
    grades ``[u, u + s]`` toward ``u`` for either sign of ``s``."""
    edges = graded_edges(0.0, 1.0, levels)
    return cell_rule(edges[:-1], edges[1:])


def cell_rule(lo, hi):
    """Nodes and weights of the coarse and two-half rules on each cell.

    Returns ``(nodes, weights)`` of shape ``(cells, 3*DEFAULT_ORDER)``: the
    first DEFAULT_ORDER columns are the coarse rule on ``[lo, hi]``, the rest
    the rules on its two halves.
    """
    x, w = _NODES, _WEIGHTS
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    quarter = 0.5 * half
    nodes = np.concatenate([mid + half * x, 0.5 * (lo + mid) + quarter * x,
                            0.5 * (mid + hi) + quarter * x], axis=1)
    weights = np.concatenate([half * w, quarter * w, quarter * w], axis=1)
    return nodes, weights


def coarse_fine(terms):
    """``(fine, |fine - coarse|)`` per cell from weighted integrand values
    laid out as in :func:`cell_rule`, summed along the last axis."""
    coarse = terms[..., :DEFAULT_ORDER].sum(axis=-1)
    fine = terms[..., DEFAULT_ORDER:].sum(axis=-1)
    return fine, np.abs(fine - coarse)


@dataclass(frozen=True)
class QuadraturePlan:
    """Fixed composite Gauss-Legendre rule in ``t`` over density pieces.

    Built once from pieces ``(t_lo, t_hi, h)`` and independent of the
    integrand: ``nodes`` and ``weights`` are ``cell_rule`` arrays whose
    weights already include ``h``.  The arrays are read-only, as a measure
    shares its plan (:attr:`~muntzlab.measures.Measure.plan`) among its
    integrals.  ``edge_cell`` marks the innermost cells at ``t = 0`` and
    ``t = 1``, whose whole value is counted as their error (it bounds the
    error of integrands that are merely integrable there).
    """

    lo: np.ndarray
    hi: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    piece: np.ndarray        # index into ``densities`` per cell
    edge_cell: np.ndarray
    densities: tuple

    @classmethod
    def from_pieces(cls, pieces) -> "QuadraturePlan":
        """Cells per piece: graded toward ``t = 0`` over DEFAULT_LEVELS levels
        when the piece reaches it and over INNER_LEVELS toward an interior
        lower edge; also toward ``t = 1`` over FAR_END_LEVELS when it reaches
        ``x = 0``."""
        los, his, piece, edge, densities = ([] for _ in range(5))
        for k, (t_lo, t_hi, h) in enumerate(pieces):
            at_zero, at_one = t_lo == 0.0, t_hi >= 1.0
            edges = graded_edges(t_lo, t_hi,
                                 DEFAULT_LEVELS if at_zero else INNER_LEVELS,
                                 FAR_END_LEVELS if at_one else 0)
            mark = np.zeros(edges.size - 1, dtype=bool)
            mark[0] = at_zero
            mark[-1] |= at_one
            los.append(edges[:-1])
            his.append(edges[1:])
            piece.append(np.full(edges.size - 1, k))
            edge.append(mark)
            densities.append(h)
        lo, hi, piece, edge = (
            np.concatenate(a) if a else np.zeros(0, dtype=dt)
            for a, dt in ((los, float), (his, float), (piece, int), (edge, bool)))
        nodes, weights = cell_rule(lo, hi)
        # an outer node of the innermost cell at t = 1 of a narrow piece can
        # round onto t = 1 (x = 0); keep every node strictly inside its piece
        ends = np.array([p[:2] for p in pieces], dtype=float).reshape(-1, 2)[piece]
        nodes = np.clip(nodes, np.nextafter(ends[:, :1], np.inf),
                        np.nextafter(ends[:, 1:], -np.inf))
        for k, h in enumerate(densities):
            on = piece == k
            weights[on] *= np.asarray(h(nodes[on]), dtype=float)
        for arr in (lo, hi, nodes, weights, piece, edge):
            arr.setflags(write=False)
        return cls(lo=lo, hi=hi, nodes=nodes, weights=weights, piece=piece,
                   edge_cell=edge, densities=tuple(densities))

    @property
    def cells(self) -> int:
        return int(self.lo.size)

    def cell_sums(self, values):
        """Per-cell ``(fine, error)`` of integrand values at ``nodes``.

        ``values`` has shape ``(..., cells, 3*DEFAULT_ORDER)``; rows along the
        leading axes are summed independently, so a row's result does not
        depend on the rows batched with it.
        """
        fine, err = coarse_fine(values * self.weights)
        return fine, np.where(self.edge_cell, np.abs(fine), err)

    def loose_cells(self, err, total):
        """Cells whose error exceeds PLAN_REL_TOL of the (row) total; the
        innermost edge cells are never re-integrated."""
        return (err > PLAN_REL_TOL * np.abs(np.asarray(total))[..., None]) \
            & ~self.edge_cell

    def integrate(self, fn) -> tuple[float, float, int]:
        """Integral of ``fn(t) * h(t)`` over every piece, as ``(value, error
        estimate, cells re-integrated adaptively)``."""
        if self.cells == 0:
            return 0.0, 0.0, 0
        values = np.asarray(fn(self.nodes.ravel()), dtype=float)
        fine, err = self.cell_sums(values.reshape(self.nodes.shape))
        loose = np.nonzero(self.loose_cells(err, fine.sum()))[0]
        for c in loose:
            fine[c], err[c] = self.refine_cell(fn, c)
        return float(fine.sum()), float(err.sum()), int(loose.size)

    def refine_cell(self, fn, cell: int, cuts=None) -> tuple[float, float]:
        """``(value, error)`` of ``fn(t) * h(t)`` over one cell by :func:`integrate`
        on each segment between ``cuts`` (the cell's edges by default)."""
        h = self.densities[self.piece[cell]]
        cuts = [self.lo[cell], self.hi[cell]] if cuts is None else cuts
        parts = [integrate(lambda t: np.asarray(fn(t), dtype=float) * h(t), u, v)
                 for u, v in zip(cuts[:-1], cuts[1:])]
        return sum(v for v, _ in parts), sum(e for _, e in parts)
