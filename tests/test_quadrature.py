import math

import numpy as np
import pytest

from muntzlab.measures import PiecewiseDensityMeasure, PowerTailMeasure
from muntzlab.quadrature import (DEFAULT_LEVELS, DEFAULT_ORDER, FAR_END_LEVELS,
                                 MAX_POINTS, REFINE_DEPTH, QuadraturePlan,
                                 bisect_root, graded_edges, integrate,
                                 integrate_refined_at_zero,
                                 refined_at_zero_nodes)
from muntzlab.quadrature import _adaptive, _cells, _dyadic_cells


# The depth-first recursion the breadth-first integrator replaced, kept as its
# oracle: both must visit the same cells, hence evaluate as many points.

def _dfs_cell(f, a, b, order=DEFAULT_ORDER):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def _dfs_integrate(f, a, b, rel_tol=1e-12, max_depth=14):
    def recurse(lo, hi, coarse, depth):
        mid = 0.5 * (lo + hi)
        left = _dfs_cell(f, lo, mid)
        right = _dfs_cell(f, mid, hi)
        fine = left + right
        err = abs(fine - coarse)
        if err <= rel_tol * (abs(fine) + 1e-300) or depth >= max_depth:
            return fine, err
        lv, le = recurse(lo, mid, left, depth + 1)
        rv, re = recurse(mid, hi, right, depth + 1)
        return lv + rv, le + re

    return recurse(a, b, _dfs_cell(f, a, b), 0)


def _dfs_refined_at_zero(f, width, levels=DEFAULT_LEVELS, rel_tol=1e-12):
    total = err = 0.0
    hi = width
    for _ in range(levels):
        lo = 0.5 * hi
        v, e = _dfs_integrate(f, lo, hi, rel_tol=rel_tol, max_depth=4)
        total += v
        err += e
        hi = lo
    sliver = _dfs_cell(f, 0.0, hi)
    return total + sliver, err + abs(sliver)


def _counted(f):
    sizes = []

    def g(t):
        sizes.append(np.size(t))
        return f(np.asarray(t, dtype=float))
    return g, sizes


S_SHARP = 1e9
INTEGRANDS = {
    "x^7": lambda x: x ** 7,
    "sin 40x": lambda x: np.sin(40.0 * x),
    "t^-1/2": lambda t: t ** -0.5,
    "s e^-st": lambda t: S_SHARP * np.exp(-S_SHARP * t),
    "kink": lambda t: np.abs(t - 1.0 / 3.0) ** 1.5,
}


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: x ** 7, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert err < 1e-12

    def test_oscillatory(self):
        val, _ = integrate(lambda x: np.sin(40.0 * x), 0.0, math.pi)
        assert val == pytest.approx((1 - math.cos(40 * math.pi)) / 40.0,
                                    abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


class TestBreadthFirstMatchesRecursion:
    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("b", [1.0, math.pi])
    def test_integrate(self, name, b):
        new, new_sizes = _counted(INTEGRANDS[name])
        old, old_sizes = _counted(INTEGRANDS[name])
        value, err = integrate(new, 0.0, b)
        ref_value, ref_err = _dfs_integrate(old, 0.0, b)
        assert sum(new_sizes) == sum(old_sizes)
        assert value == pytest.approx(ref_value, rel=1e-14)
        assert err == pytest.approx(ref_err, rel=1e-14, abs=1e-300)
        assert len(new_sizes) < len(old_sizes)

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_refined_at_zero(self, name):
        new, new_sizes = _counted(INTEGRANDS[name])
        old, old_sizes = _counted(INTEGRANDS[name])
        value, err, part = integrate_refined_at_zero(new, 1.0)
        ref_value, ref_err = _dfs_refined_at_zero(old, 1.0)
        assert sum(new_sizes) == sum(old_sizes)
        assert part == value
        assert value == pytest.approx(ref_value, rel=1e-14)
        assert err == pytest.approx(ref_err, rel=1e-14, abs=1e-300)
        # one pass of single rules over the 54 cells and the sliver, then at
        # most two calls per refinement round (<= 54 cells x 48 points)
        assert len(new_sizes) <= 1 + 2 * 5

    def test_never_converging_is_chunked(self):
        f, sizes = _counted(lambda t: np.sin(1e9 * t))
        integrate(f, 0.0, 1.0, max_depth=14)
        assert max(sizes) <= MAX_POINTS
        # every cell down to depth 14 was opened: 2^15 - 1 cells of 48 points
        assert sum(sizes) == DEFAULT_ORDER + 2 * DEFAULT_ORDER * (2 ** 15 - 1)


class TestAcceptedLeaves:
    """Each accepted cell adds to the totals of its own interval, so an
    interval bisected together with others gets what it gets alone."""

    # a cell at 0, one ending on the kink of "kink", one holding it, wide ones
    LO = np.array([0.0, 2.0 ** -20, 0.1, 0.3, 0.4, 1.0])
    HI = np.array([2.0 ** -20, 0.1, 1.0 / 3.0, 0.4, 1.0, math.pi])

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("max_depth", [REFINE_DEPTH, 14])
    def test_each_interval_as_alone(self, name, max_depth):
        f, lo, hi = INTEGRANDS[name], self.LO, self.HI
        value, err = _adaptive(f, lo, hi, _cells(f, lo, hi), max_depth)
        for i in range(lo.size):
            alone = integrate(f, lo[i], hi[i], max_depth=max_depth)
            assert (float(value[i]), float(err[i])) == alone


class TestRefinedAtZero:
    def test_integrable_singularity(self):
        # integral_0^1 t^(-1/2) dt = 2
        val, err, _ = integrate_refined_at_zero(lambda t: t ** -0.5, 1.0)
        assert val == pytest.approx(2.0, rel=1e-7)

    def test_sharp_exponential_scale(self):
        # integral_0^1 s e^(-s t) dt ~ 1 for huge s: structure at scale 1/s
        s = 1e9
        val, _, _ = integrate_refined_at_zero(
            lambda t: s * np.exp(-s * np.asarray(t)), 1.0)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_zero_width(self):
        assert integrate_refined_at_zero(lambda t: t, 0.0) == (0.0, 0.0, 0.0)



class TestHead:
    """Values of the integrand on the first two rounds, given as ``head``,
    give the same result, and the integrand is not called there."""

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("width, cut", [(1.0, math.inf), (0.7, 2.0 ** -5),
                                            (1.0, 0.3)])
    def test_same_result_without_the_head_calls(self, name, width, cut):
        f = INTEGRANDS[name]
        nodes = refined_at_zero_nodes(width)
        # 55 single rules, then both halves of the 54 cells
        assert nodes.size == (55 + 2 * 54) * DEFAULT_ORDER == 3912
        plain, plain_sizes = _counted(f)
        headed, headed_sizes = _counted(f)
        want = integrate_refined_at_zero(plain, width, cut=cut)
        got = integrate_refined_at_zero(headed, width, cut=cut,
                                        head=np.asarray(f(nodes), dtype=float))
        assert got == want
        assert sum(headed_sizes) == sum(plain_sizes) - nodes.size

    def test_overflowing_integrand_reads_inf_without_warning(self):
        with np.errstate(over="ignore"):
            value, err, part = integrate_refined_at_zero(
                lambda t: np.exp(1e3 / np.asarray(t)), 1.0, cut=1e-3)
        assert value == part == math.inf and math.isnan(err)


# bounded integrands: the sliver (0, width 2^-54] takes no share at 1e-12
BOUNDED = {
    "x^7": INTEGRANDS["x^7"],
    "sin 40x": INTEGRANDS["sin 40x"],
    "s e^-st": INTEGRANDS["s e^-st"],
    "psi^2-like": lambda t: 1.0 / (1.0 + 50.0 * t) ** 3,
}


class TestPartBelowCut:
    """``cut`` reads the part over (0, cut] from the cells of the total; the
    reference is a second integration over (0, cut]."""

    @pytest.mark.parametrize("name", sorted(BOUNDED))
    @pytest.mark.parametrize("width, cut", [
        (1.0, 2.0 ** -5),      # on a cell edge
        (1.0, 0.5),
        (0.7, 2.0 ** -5),      # inside a cell
        (0.7, 0.6),
        (0.7, 1e-20),          # inside the sliver
    ])
    def test_part_matches_second_integration(self, name, width, cut):
        f, sizes = _counted(BOUNDED[name])
        value, err, part = integrate_refined_at_zero(f, width, cut=cut)
        split_points = sum(sizes)
        sizes.clear()
        # the total, its error and its points are those without cut
        assert (value, err) == integrate_refined_at_zero(f, width)[:2]
        total_points = sum(sizes)
        ref, _, _ = integrate_refined_at_zero(BOUNDED[name], cut)
        assert part == pytest.approx(ref, rel=1e-12, abs=1e-300)
        # only the cell straddling cut is integrated again
        hi = width * 2.0 ** -np.arange(DEFAULT_LEVELS + 1.0)
        lo = np.append(hi[1:], 0.0)
        straddling = (lo < cut) & (cut < hi)
        sizes.clear()
        for a in lo[straddling]:
            integrate(f, float(a), cut, max_depth=REFINE_DEPTH)
        assert split_points == total_points + sum(sizes)
        assert straddling.sum() == (0 if width == 1.0 else 1)

    @pytest.mark.parametrize("f, cells", [
        # never accepted: the straddling cell [0.35, 0.7] opens every half
        # down to the depth cap, 2 + 4 + ... + 2^(REFINE_DEPTH + 1) of them
        (lambda t: np.sin(1e9 * t), 1 + 2 * (2 ** (REFINE_DEPTH + 1) - 1)),
        # a kink at 0.5 converges slowly, only its cells reach the cap
        (lambda t: np.abs(t - 0.5), None),
    ])
    def test_straddling_cell_keeps_the_depth_cap(self, f, cells):
        f, sizes = _counted(f)
        value, err, part = integrate_refined_at_zero(f, 0.7, cut=0.6)
        split_points = sum(sizes)
        sizes.clear()
        integrate_refined_at_zero(f, 0.7)
        extra = split_points - sum(sizes)
        sizes.clear()
        integrate(f, 0.35, 0.6, max_depth=REFINE_DEPTH)
        assert extra == sum(sizes)
        if cells is not None:
            assert extra == DEFAULT_ORDER * cells
        else:
            # as accurate as the total: integral_0^0.6 |t - 0.5| dt = 0.13
            assert abs(part - 0.13) <= err

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_integrable_singularity_within_error(self, name):
        value, err, part = integrate_refined_at_zero(INTEGRANDS[name], 0.7,
                                                     cut=2.0 ** -5)
        ref, ref_err, _ = integrate_refined_at_zero(INTEGRANDS[name], 2.0 ** -5)
        assert abs(part - ref) <= 1e-12 * abs(ref) + err + ref_err

    def test_cut_beyond_width_is_the_total(self):
        for cut in (0.7, 0.9, math.inf):
            value, err, part = integrate_refined_at_zero(BOUNDED["sin 40x"], 0.7,
                                                         cut=cut)
            assert part == value

    def test_cut_zero_and_zero_width(self):
        f, sizes = _counted(BOUNDED["x^7"])
        value, err, part = integrate_refined_at_zero(f, 1.0, cut=0.0)
        assert part == 0.0 and value > 0.0
        points = sum(sizes)
        sizes.clear()
        integrate_refined_at_zero(f, 1.0)
        assert sum(sizes) == points
        assert integrate_refined_at_zero(f, 0.0, cut=0.5) == (0.0, 0.0, 0.0)


class TestBisect:
    def test_root_of_cubic(self):
        root = bisect_root(lambda x: x ** 3 - 0.2, 0.0, 1.0)
        assert root == pytest.approx(0.2 ** (1.0 / 3.0), rel=1e-12)

    def test_descending_bracket(self):
        root = bisect_root(lambda x: 0.5 - x, 0.0, 1.0)
        assert root == pytest.approx(0.5, rel=1e-12)

    def test_illinois_beats_bisection(self):
        # plain false position creeps from one side on a convex function
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(20.0 * x) - 2.0

        root = bisect_root(f, 0.0, 1.0)
        assert root == pytest.approx(math.log(2.0) / 20.0, rel=1e-14)
        assert len(calls) < 40        # bisection needs 52 to reach 1e-15


class TestGradedEdges:
    def test_both_ends(self):
        edges = graded_edges(0.0, 1.0, 3, 2)
        np.testing.assert_array_equal(
            edges, [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 1.0])

    def test_one_end_and_none(self):
        np.testing.assert_array_equal(graded_edges(1.0, 3.0, 2),
                                      [1.0, 1.5, 2.0, 3.0])
        np.testing.assert_array_equal(graded_edges(1.0, 3.0, 0, 1),
                                      [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(graded_edges(1.0, 3.0), [1.0, 3.0])

    @pytest.mark.parametrize("width", [1.0, 0.7, math.pi, 2.0 ** -5, 1e-300])
    def test_dyadic_cells_are_graded_edges(self, width):
        # width 2^-j, widest first, then the sliver (0, width 2^-54]
        hi = width * 2.0 ** -np.arange(DEFAULT_LEVELS + 1.0)
        lo, got_hi = _dyadic_cells(width)
        assert np.array_equal(got_hi, hi)
        assert np.array_equal(lo, np.append(hi[1:], 0.0))


class TestQuadraturePlan:
    @staticmethod
    def unit(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def test_cells_graded_toward_both_ends(self):
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, self.unit)])
        # dyadic cells plus one innermost cell at each end
        assert plan.cells == DEFAULT_LEVELS + FAR_END_LEVELS + 2
        assert plan.lo[1] == 0.5 * 2.0 ** -DEFAULT_LEVELS
        assert plan.hi[-2] == 1.0 - 0.5 * 2.0 ** -FAR_END_LEVELS
        assert plan.edge_cell.sum() == 2

    def test_density_in_weights(self):
        # integral_0^1 (1 - t)^4 * 3 t^2 dt = 3 B(3, 5) = 1/35
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, lambda t: 3.0 * t ** 2)])
        value, err, fallbacks = plan.integrate(lambda t: (1.0 - t) ** 4)
        assert value == pytest.approx(1.0 / 35.0, rel=1e-14)
        assert err < 1e-15 and fallbacks == 0

    def test_kink_falls_back_and_is_counted(self):
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, self.unit)])
        value, err, fallbacks = plan.integrate(lambda t: np.abs(t - 0.3))
        assert value == pytest.approx(0.29, rel=1e-10)
        assert fallbacks >= 1

    def test_empty(self):
        assert QuadraturePlan.from_pieces([]).integrate(np.sin) == (0.0, 0.0, 0)

    @staticmethod
    def seeded_measures(count):
        rng = np.random.default_rng(20111024)
        for _ in range(count):
            k = int(rng.integers(2, 5))
            inner = np.sort(rng.uniform(0.0, 1.0, k - 1))
            yield PiecewiseDensityMeasure(np.concatenate([[0.0], inner, [1.0]]),
                                          rng.uniform(0.1, 3.0, k))
            yield PowerTailMeasure(float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.5, 4.0)),
                                   x0=float(rng.uniform(0.0, 0.99)))

    def test_nodes_strictly_inside_pieces(self):
        # the innermost far-end cell of a narrow piece is ~1e-14 wide, where
        # an outer Gauss node used to round onto t = 1 (x = 0)
        for mu in self.seeded_measures(300):
            pieces = mu.flattened().pieces
            plan = QuadraturePlan.from_pieces(pieces)
            ends = np.array([p[:2] for p in pieces])[plan.piece]
            assert np.all(plan.nodes > ends[:, :1])
            assert np.all(plan.nodes < ends[:, 1:])
            assert np.all(np.isfinite(np.log1p(-plan.nodes)))


class TestRefineCell:
    """The one adaptive re-integration of a plan cell: the plan's loose cells
    and the L^p integrals' kinked cells both go through it."""

    @staticmethod
    def density(t):
        return 2.0 + np.asarray(t, dtype=float)

    @staticmethod
    def kinked(t):
        return np.abs(np.asarray(t, dtype=float) - 0.3)

    def product(self, t):
        return np.asarray(self.kinked(t), dtype=float) * self.density(t)

    def plan(self):
        # a small plan: one interior piece, graded toward its lower edge
        return QuadraturePlan.from_pieces([(0.25, 0.5, self.density)])

    def test_cell_equals_integrate_of_the_product(self):
        plan = self.plan()
        for c in range(plan.cells):
            expected = integrate(self.product, float(plan.lo[c]),
                                 float(plan.hi[c]))
            assert plan.refine_cell(self.kinked, c) == expected

    def test_cuts_split_the_cell(self):
        plan = self.plan()
        c = int(np.flatnonzero((plan.lo < 0.3) & (0.3 < plan.hi))[0])
        lo, hi = float(plan.lo[c]), float(plan.hi[c])
        left = integrate(self.product, lo, 0.3)
        right = integrate(self.product, 0.3, hi)
        value, err = plan.refine_cell(self.kinked, c, [lo, 0.3, hi])
        assert value == left[0] + right[0] and err == left[1] + right[1]

        # (t - 0.3)(2 + t) = t^2 + 1.7 t - 0.6 changes sign at the cut
        def antiderivative(t):
            return t ** 3 / 3.0 + 0.85 * t ** 2 - 0.6 * t
        exact = (antiderivative(lo) + antiderivative(hi)
                 - 2.0 * antiderivative(0.3))
        assert value == pytest.approx(exact, rel=1e-13)

    def test_loose_cells_are_refined_cells(self):
        plan = self.plan()
        value, err, fallbacks = plan.integrate(self.kinked)
        assert fallbacks >= 1
        fine, cell_err = plan.cell_sums(self.kinked(plan.nodes))
        loose = np.flatnonzero(plan.loose_cells(cell_err, fine.sum()))
        assert loose.size == fallbacks
        for c in loose:
            fine[c], cell_err[c] = integrate(self.product, float(plan.lo[c]),
                                             float(plan.hi[c]))
        assert (value, err) == (float(fine.sum()), float(cell_err.sum()))
