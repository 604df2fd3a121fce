import math

import numpy as np
import pytest

from muntzlab.quadrature import (DEFAULT_LEVELS, FAR_END_LEVELS,
                                 QuadraturePlan, bisect_root, graded_edges,
                                 integrate, integrate_refined_at_zero)


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


class TestRefinedAtZero:
    def test_integrable_singularity(self):
        # integral_0^1 t^(-1/2) dt = 2
        val, err = integrate_refined_at_zero(lambda t: t ** -0.5, 1.0)
        assert val == pytest.approx(2.0, rel=1e-7)

    def test_sharp_exponential_scale(self):
        # integral_0^1 s e^(-s t) dt ~ 1 for huge s: structure at scale 1/s
        s = 1e9
        val, _ = integrate_refined_at_zero(
            lambda t: s * np.exp(-s * np.asarray(t)), 1.0)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_zero_width(self):
        assert integrate_refined_at_zero(lambda t: t, 0.0) == (0.0, 0.0)


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


class TestQuadraturePlan:
    @staticmethod
    def unit(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def test_cells_graded_toward_both_ends(self):
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, self.unit, False)])
        # dyadic cells plus one innermost cell at each end
        assert plan.cells == DEFAULT_LEVELS + FAR_END_LEVELS + 2
        assert plan.lo[1] == 0.5 * 2.0 ** -DEFAULT_LEVELS
        assert plan.hi[-2] == 1.0 - 0.5 * 2.0 ** -FAR_END_LEVELS
        assert plan.edge_cell.sum() == 2
        # each cell's scan group runs from its lower to its upper edge
        for c in range(plan.cells):
            group = plan.scan[plan.scan_start[c]:plan.scan_start[c + 1]]
            assert group[0] == plan.lo[c] and group[-1] == plan.hi[c]
            assert np.all(np.diff(group) >= 0.0)
        assert plan.scan.size == 2 * plan.cells + 511

    def test_density_in_weights(self):
        # integral_0^1 (1 - t)^4 * 3 t^2 dt = 3 B(3, 5) = 1/35
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, lambda t: 3.0 * t ** 2, False)])
        value, err, fallbacks = plan.integrate(lambda t: (1.0 - t) ** 4)
        assert value == pytest.approx(1.0 / 35.0, rel=1e-14)
        assert err < 1e-15 and fallbacks == 0

    def test_kink_falls_back_and_is_counted(self):
        plan = QuadraturePlan.from_pieces([(0.0, 1.0, self.unit, False)])
        value, err, fallbacks = plan.integrate(lambda t: np.abs(t - 0.3))
        assert value == pytest.approx(0.29, rel=1e-10)
        assert fallbacks >= 1

    def test_empty(self):
        assert QuadraturePlan.from_pieces([]).integrate(np.sin) == (0.0, 0.0, 0)
