import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.special import betainc, betaincc, betaln, logsumexp

from muntzlab import quadrature
from muntzlab.constructions import build_example1, build_example2
from muntzlab.measures import (_LOG_NEGLIGIBLE_LOWER_TAIL, AtomicMeasure,
                               _log_lower_tail_bound, _upper_tail,
                               default_epsilon_grid,
                               integrate_against, rho_hypothesis_violation)
from muntzlab import (HypothesisViolationError, InvalidParameterError,
                      PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                      SumMeasure, atomic, atomic_from_logs,
                      hilbert_schmidt_certificate, lebesgue, make_explicit,
                      measure_from_config, modulus_report, point_mass,
                      restrict_tail, rho_majorization_check)


class TestMoments:
    def test_lebesgue_closed_form(self):
        leb = lebesgue()
        for s in (0.0, 1.0, 2.0, 10.0, 1e6):
            assert leb.moment(s) == pytest.approx(1.0 / (s + 1.0), rel=1e-13)

    def test_atomic_single(self):
        assert point_mass(0.5).moment(1.0) == pytest.approx(0.5)

    def test_powertail_beta_identity(self):
        # C alpha B(s+1, alpha) at C=1, alpha=2, s=10 -> 2 B(11,2) = 1/66,
        # cross-checked against direct quadrature
        mu = PowerTailMeasure(1.0, 2.0)
        assert mu.moment(10.0) == pytest.approx(1.0 / 66.0, rel=1e-12)
        xs = np.linspace(0.0, 1.0, 200001)
        quad = np.trapezoid(xs ** 10 * 2.0 * (1.0 - xs), xs)
        assert mu.moment(10.0) == pytest.approx(quad, rel=1e-8)

    def test_powertail_truncated_vs_quadrature(self):
        mu = PowerTailMeasure(1.5, 2.5, x0=0.25)
        xs = np.linspace(0.25, 1.0, 400001)
        for s in (0.0, 3.0, 11.5):
            quad = np.trapezoid(xs ** s * 1.5 * 2.5 * (1.0 - xs) ** 1.5, xs)
            assert mu.moment(s) == pytest.approx(quad, rel=1e-7)

    def test_huge_exponent_log_domain(self):
        mu = atomic_from_logs([-1e-12], [0.0])   # atom at 1 - 1e-12
        s = 1e12
        assert mu.log_moment(s) == pytest.approx(-1.0, rel=1e-6)

    def test_additivity(self):
        mu1 = point_mass(0.3, 0.7)
        mu2 = PowerTailMeasure(1.0, 2.0)
        total = SumMeasure((mu1, mu2))
        for s in (0.0, 1.0, 7.0):
            assert total.moment(s) == pytest.approx(
                mu1.moment(s) + mu2.moment(s), rel=1e-13)

    def test_scaling(self):
        mu = PowerTailMeasure(1.0, 2.0)
        scaled = ScaledMeasure(3.5, mu)
        for s in (0.0, 2.0, 50.0):
            assert scaled.moment(s) == pytest.approx(3.5 * mu.moment(s),
                                                      rel=1e-13)

    def test_strictly_decreasing_in_s(self):
        for mu in (lebesgue(), point_mass(0.5), PowerTailMeasure(1.0, 2.0)):
            values = [mu.moment(s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            lebesgue().moment(-0.5)


def _mp_moment(mu, s):
    """Independent 60-digit moment of the atomic, power-tail and piecewise
    variants: exact atom sums, the incomplete Beta integral (substituted to
    t = 1 - x so no cancellation occurs) and the piecewise closed form."""
    s = mp.mpf(s)
    if isinstance(mu, PowerTailMeasure):
        c, a = mp.mpf(mu.coefficient), mp.mpf(mu.alpha)
        return c * a * mp.betainc(a, s + 1, 0, 1 - mp.mpf(mu.x0))
    if isinstance(mu, PiecewiseDensityMeasure):
        return mp.fsum(mp.mpf(h) * (mp.mpf(hi) ** (s + 1) - mp.mpf(lo) ** (s + 1))
                       / (s + 1) for lo, hi, h in zip(
                           mu.breakpoints[:-1], mu.breakpoints[1:], mu.densities))
    return mp.fsum(mp.exp(mp.mpf(c) + s * mp.mpf(a))
                   for a, c in zip(mu.log_positions, mu.log_weights))


class TestLogMoments:
    ORDERS = np.array([[0.0, 0.5, 3.0], [17.25, 400.0, 2.5e4]])
    ATOMS = atomic_from_logs([math.log(0.3), math.log1p(-1e-3), -1e-18],
                             [0.0, math.log(0.5), math.log(0.25)])
    TAIL = PowerTailMeasure(1.5, 2.5, x0=0.25)
    PIECES = PiecewiseDensityMeasure(np.array([0.0, 0.3, 0.6, 1.0]),
                                     np.array([2.0, 0.0, 0.5]))

    @staticmethod
    def _reference(mu, orders):
        with mp.workdps(60):
            if isinstance(mu, ScaledMeasure):
                return math.log(mu.scale) + TestLogMoments._reference(
                    mu.inner, orders)
            parts = mu.parts if isinstance(mu, SumMeasure) else (mu,)
            return np.array([[float(mp.log(mp.fsum(_mp_moment(p, s)
                                                   for p in parts)))
                              for s in row] for row in orders])

    @pytest.mark.parametrize("name, tol", [
        # scipy's betaln loses ~4e-11 (absolute, in the log) at order 2.5e4
        # to cancellation between log-gamma terms; the sums are exact
        ("atoms", 1e-14), ("tail", 1e-10), ("pieces", 1e-14),
        ("scaled", 1e-10), ("sum", 1e-10)])
    def test_array_orders_against_mpmath(self, name, tol):
        tail_mass = 1.5 * 0.75 ** 2.5
        mu, mass = {
            "atoms": (self.ATOMS, 1.75), "tail": (self.TAIL, tail_mass),
            "pieces": (self.PIECES, 0.8),
            "scaled": (ScaledMeasure(3.5, self.TAIL), 3.5 * tail_mass),
            "sum": (SumMeasure((self.ATOMS, self.TAIL, self.PIECES)),
                    1.75 + tail_mass + 0.8)}[name]
        got = mu.log_moments(self.ORDERS)
        assert got.shape == self.ORDERS.shape
        np.testing.assert_allclose(got, self._reference(mu, self.ORDERS),
                                   rtol=0.0, atol=tol)
        np.testing.assert_allclose(mu.log_moments(np.zeros((2, 2))),
                                   math.log(mass), rtol=0.0, atol=1e-14)
        assert mu.log_moment(3.0) == got[0, 2]

    def test_atoms_near_one_at_huge_orders(self):
        # the atom at 1 - 1e-18 keeps weight exp(-s * 1e-18) at s ~ 1e18
        orders = np.array([[1e18, 3e18], [0.0, 1e6]])
        np.testing.assert_allclose(self.ATOMS.log_moments(orders),
                                   self._reference(self.ATOMS, orders),
                                   rtol=0.0, atol=1e-14)

    def test_zero_moments_are_minus_inf(self):
        empty = restrict_tail(atomic([(0.2, 1.0)]), 4)
        assert np.all(empty.log_moments(self.ORDERS) == -math.inf)
        # the regularized upper tail at x0 = 0.9 underflows to 0 for low
        # orders: the moments there lie below the smallest normal double
        tail = PowerTailMeasure(1.0, 400.0, x0=0.9)
        got = tail.log_moments(self.ORDERS)
        ref = self._reference(tail, self.ORDERS)
        lost = got == -math.inf
        assert lost.any() and not lost.all()
        assert np.all(ref[lost] < math.log(np.finfo(float).tiny))
        np.testing.assert_allclose(got[~lost], ref[~lost], rtol=1e-12)

    def test_negative_order_rejected(self):
        for mu in (self.ATOMS, self.TAIL, self.PIECES):
            with pytest.raises(InvalidParameterError):
                mu.log_moments(np.array([[1.0, -0.5]]))


def _closed_form_power_tail(mu, s):
    """log C + log alpha + betaln(s+1, alpha) + log I_(1-x0)(alpha, s+1) on
    every order, in the order the moment layer adds them; a tail below
    2**-900 read from betaincc(s+1, alpha, x0) instead."""
    tail = betainc(mu.alpha, s + 1.0, 1.0 - mu.x0)
    deep = tail < 2.0 ** -900
    tail[deep] = betaincc(s[deep] + 1.0, mu.alpha, mu.x0)
    with np.errstate(divide="ignore"):
        return (math.log(mu.coefficient) + math.log(mu.alpha)
                + betaln(s + 1.0, mu.alpha) + np.log(tail))


class TestPowerTailSkip:
    """The upper tail runs only on the orders where the lower incomplete-Beta
    tail can reach 2**-54; everywhere else it is 1.0 anyway."""

    def test_bit_identical_to_the_closed_form(self):
        # the low orders of PowerTail(1, 400, 0.9) underflow to -inf
        underflow = PowerTailMeasure(1.0, 400.0, x0=0.9)
        cases = [(underflow, np.concatenate((TestLogMoments.ORDERS.ravel(),
                                             2.0 * 1.5 ** np.arange(32))))]
        rng = np.random.default_rng(15)
        for n in (16, 24, 32):
            lam = rng.uniform(0.5, 3.0) * rng.uniform(1.1, 2.5) ** np.arange(n)
            rows, cols = np.triu_indices(n)
            x0s = [1.0 - 1.0 / m for m in (2, 8, 32, 128)]
            cases += [(PowerTailMeasure(rng.uniform(0.1, 3.0),
                                        math.exp(rng.uniform(-2.0, 5.0)), x0=x0),
                       lam[rows] + lam[cols])
                      for x0 in x0s + list(rng.uniform(0.0, 1.0, 4))]
        skipped = 0
        for mu, orders in cases:
            got = mu.log_moments(orders)
            np.testing.assert_array_equal(got, _closed_form_power_tail(mu, orders))
            a = orders + 1.0
            skipped += np.count_nonzero(_log_lower_tail_bound(
                a, mu.alpha, mu.x0, betaln(a, mu.alpha))
                < _LOG_NEGLIGIBLE_LOWER_TAIL)
        assert skipped > 0
        assert np.any(underflow.log_moments(cases[0][1]) == -math.inf)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1.0, 5000.0), b=st.floats(0.05, 500.0),
           x0=st.floats(1e-6, 1.0 - 1e-9))
    @example(a=3.0, b=1.0, x0=0.5)   # I_x0(a, 1) = x0**a: the bound is exact
    def test_bound_majorizes_the_lower_tail(self, a, b, x0):
        log_beta = betaln(a, b)
        bound = _log_lower_tail_bound(a, b, x0, log_beta)
        with mp.workdps(50):
            exact = float(mp.log(mp.betainc(a, b, 0, x0, regularized=True)))
        assert bound >= exact - 1e-12 * (1.0 + abs(bound) + abs(log_beta))


class TestPowerTailUpperTail:
    """The upper tail 1 - I_x0(a, alpha), read as I_(1-x0)(alpha, a) and
    below 2**-900 from betaincc(a, alpha, x0), on the orders s = a - 1 in
    [1, 1e6] where it is evaluated (not skipped)."""

    RNG = np.random.default_rng(21)
    ORDERS = np.concatenate([np.geomspace(1.0, 1e6, 25),
                             RNG.uniform(1.0, 1e6, 5), RNG.uniform(1.0, 50.0, 10)])
    X0S = [1.0 - 1.0 / m for m in (2, 8, 32, 128, 1024)] + list(
        RNG.uniform(0.02, 0.99, 4))

    def _evaluated(self, alpha):
        """(a, x0, tail) over every x0 and the orders not skipped."""
        for x0 in self.X0S:
            a = self.ORDERS + 1.0
            log_beta = betaln(a, alpha)
            live = (_log_lower_tail_bound(a, alpha, x0, log_beta)
                    >= _LOG_NEGLIGIBLE_LOWER_TAIL)
            tail = _upper_tail(a, alpha, x0, log_beta)
            yield a[live], x0, tail[live]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 10.0])
    def test_against_mpmath(self, alpha):
        # the largest error seen is 1.2e-14, at alpha = 10, x0 = 1 - 1/1024
        checked = 0
        for a, x0, tail in self._evaluated(alpha):
            with mp.workdps(120):
                width = 1 - mp.mpf(x0)
                exact = [mp.betainc(alpha, float(ai), 0, width, regularized=True)
                         for ai in a]
            for got, want in zip(tail, exact):
                assert abs(got - want) <= 2e-14 * want
            checked += a.size
        assert checked > 150

    @pytest.mark.parametrize("alpha", [148.0, 400.0])
    def test_large_alpha_against_betaincc(self, alpha):
        # here both forms carry scipy's own error; the symmetric form keeps
        # 3e-13 down to 2^-900, and below that the tail is betaincc's own
        deep = 0
        for a, x0, tail in self._evaluated(alpha):
            ref = betaincc(a, alpha, x0)
            below = tail < 2.0 ** -900
            np.testing.assert_allclose(tail[~below], ref[~below], rtol=3e-13)
            assert np.array_equal(tail[below], ref[below])
            deep += np.count_nonzero(below)
        assert deep > 0

    @pytest.mark.parametrize("alpha, x0, a, rtol", [
        (148.0, 1.0 - 1.0 / 128.0, 10.0, 1e-14),   # 1.6e-298
        (400.0, 0.875, 34.0, 1e-10)])              # 2.4e-314, subnormal
    def test_deep_tail_against_mpmath(self, alpha, x0, a, rtol):
        # the symmetric form alone read the first 2.4e-10 off, and the
        # second as 0, so that its log moment was -inf
        tail = _upper_tail(np.array([a]), alpha, x0, betaln(a, alpha))[0]
        with mp.workdps(60):
            exact = mp.betainc(alpha, a, 0, 1 - mp.mpf(x0), regularized=True)
            log_moment = float(mp.log(alpha * mp.beta(a, alpha) * exact))
        assert abs(tail - exact) <= rtol * exact
        got = PowerTailMeasure(1.0, alpha, x0).log_moment(a - 1.0)
        assert math.isfinite(got)
        assert got == pytest.approx(log_moment, rel=rtol)


class TestTailMass:
    def test_lebesgue(self):
        leb = lebesgue()
        for eps in (1.0, 0.25, 1e-6):
            assert leb.tail_mass(eps) == pytest.approx(eps)

    def test_powertail(self):
        assert PowerTailMeasure(1.0, 2.0).tail_mass(0.1) == pytest.approx(0.01)

    def test_atomic_threshold(self):
        mu = atomic([(0.9, 2.0)])
        assert mu.tail_mass(0.05) == 0.0
        assert mu.tail_mass(0.2) == pytest.approx(2.0)
        # closed interval: the atom at exactly 1-eps counts
        assert mu.tail_mass(1.0 - 0.9) == pytest.approx(2.0)

    def test_atom_in_tail_at_its_own_entry_eps(self):
        # log a >= log1p(-eps) left out 1674 of these atoms where log1p
        # rounds up; atom k and every atom above it lie in J_{1 - a_k}
        rng = np.random.default_rng(20)
        positions = 1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 200000)
        mu = AtomicMeasure(np.log(positions), np.zeros(positions.size))
        masses = mu.tail_mass(-np.expm1(mu.log_positions))
        own = positions.size - np.arange(positions.size)
        assert np.count_nonzero(masses < own - 0.5) == 0
        # the restriction to J_{1 - a} keeps the atom at a
        for log_a in mu.log_positions[::40]:
            one = AtomicMeasure(np.array([log_a]), np.zeros(1))
            assert one.restricted_to_tail(-np.expm1(log_a)).total_mass == 1.0

    def test_nondecreasing_in_eps(self):
        mu = SumMeasure((atomic([(0.4, 1.0), (0.8, 0.5)]),
                         PowerTailMeasure(0.5, 1.5)))
        eps = np.linspace(1e-4, 1.0, 97)
        masses = [mu.tail_mass(e) for e in eps]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            lebesgue().tail_mass(0.0)
        with pytest.raises(InvalidParameterError):
            lebesgue().tail_mass(1.5)


class TestRestrict:
    def test_lebesgue_quarter(self):
        tail = restrict_tail(lebesgue(), 4)
        assert tail.total_mass == pytest.approx(0.25)
        assert tail.moment(0.0) == pytest.approx(0.25)

    def test_atomic_drop(self):
        mu = atomic([(0.5, 1.0), (0.9, 2.0)])
        tail = restrict_tail(mu, 5)
        assert tail.total_mass == pytest.approx(2.0)
        assert tail.positions.tolist() == [0.9]

    def test_powertail_mass(self):
        tail = restrict_tail(PowerTailMeasure(1.0, 2.0), 10)
        assert tail.total_mass == pytest.approx(0.01)

    def test_scaled_keeps_its_scale(self):
        # 3 * (2 (1-x) dx) on [3/4, 1): mass 3 * (1/4)^2, and the moment of
        # order 1 is 3 (1/16 - 2/3 (1/4)^3) = 3 * 5/96
        tail = ScaledMeasure(3.0, PowerTailMeasure(1.0, 2.0)
                             ).restricted_to_tail(0.25)
        assert tail == ScaledMeasure(3.0, PowerTailMeasure(1.0, 2.0, x0=0.75))
        assert tail.total_mass == pytest.approx(3.0 / 16.0, rel=1e-15)
        assert tail.moment(1.0) == pytest.approx(15.0 / 96.0, rel=1e-13)

    def test_empty_restriction_is_zero_measure(self):
        tail = restrict_tail(atomic([(0.2, 1.0)]), 3)
        assert tail.total_mass == 0.0

    def test_m_validation(self):
        with pytest.raises(InvalidParameterError):
            restrict_tail(lebesgue(), 1)

    @pytest.mark.parametrize("breakpoints, densities", [
        ([0.7, 0.9], [1.0]),
        ([0.6, 0.8, 0.95], [2.0, 0.5]),
        ([0.0, 0.5, 1.0], [1.0, 3.0]),
        ([0.2, 0.4, 0.55, 1.0], [1.0, 0.0, 2.0])],
        ids=["one-piece-above-cut", "two-pieces-above-cut", "from-zero",
             "zero-piece"])
    def test_piecewise_mass_is_tail_mass(self, breakpoints, densities):
        # a support starting above 1 - eps is not stretched down to it
        mu = PiecewiseDensityMeasure(np.array(breakpoints), np.array(densities))
        for eps in (1.0, 0.75, 0.5, 0.45, 0.3, 0.1, 0.02):
            tail = mu.restricted_to_tail(eps)
            assert tail.total_mass == pytest.approx(mu.tail_mass(eps),
                                                    rel=1e-14, abs=0.0)
            if tail.total_mass > 0.0:
                assert tail.breakpoints[0] == max(1.0 - eps, breakpoints[0])

    def test_piecewise_mass_is_tail_mass_random(self):
        rng = np.random.default_rng(19)
        for _ in range(400):
            k = int(rng.integers(1, 5))
            edges = np.unique(rng.uniform(0.0, 1.0, k + 1))
            densities = rng.uniform(0.0, 3.0, edges.size - 1)
            densities[rng.random(densities.size) < 0.2] = 0.0
            if edges.size < 2 or not np.any(densities > 0.0):
                continue
            mu = PiecewiseDensityMeasure(edges, densities)
            eps = float(rng.uniform(1e-3, 1.0))
            assert mu.restricted_to_tail(eps).total_mass == pytest.approx(
                mu.tail_mass(eps), rel=1e-12, abs=1e-300)


class TestModulus:
    def test_lebesgue(self):
        rep = modulus_report(lebesgue())
        assert rep.sublinear_norm == pytest.approx(1.0)
        assert rep.sup_is_exact
        assert not rep.vanishing
        assert rep.power_fit.trusted
        assert rep.power_fit.alpha == pytest.approx(1.0, abs=1e-9)

    def test_powertail_vanishing(self):
        rep = modulus_report(PowerTailMeasure(1.0, 2.0))
        assert rep.sublinear_norm == pytest.approx(1.0)   # attained at eps = 1
        assert rep.vanishing
        assert rep.power_fit.alpha == pytest.approx(2.0, abs=1e-9)

    def test_atomic_half(self):
        rep = modulus_report(atomic([(0.5, 1.0)]))
        assert rep.sublinear_norm == pytest.approx(2.0)
        assert rep.vanishing          # ratio hits 0 below eps = 1/2

    def test_norm_dominates_grid_ratios(self):
        for mu in (lebesgue(), PowerTailMeasure(2.0, 1.5),
                   atomic([(0.3, 1.0), (0.9, 0.2)])):
            rep = modulus_report(mu)
            assert rep.sublinear_norm >= rep.ratios.max() - 1e-12

    def test_scaling(self):
        mu = PowerTailMeasure(1.0, 2.0)
        rep = modulus_report(ScaledMeasure(7.0, mu))
        assert rep.sublinear_norm == pytest.approx(7.0 * 1.0)

    def test_non_sublinear_flagged_infinite(self):
        rep = modulus_report(PowerTailMeasure(1.0, 0.5))
        assert math.isinf(rep.sublinear_norm)


class TestDensitySup:
    """sup of the density h of mu = h dm, None when h is unbounded, against
    its closed form."""

    def test_power_tail(self):
        # C alpha (1-x)^(alpha-1) on [x0, 1): unbounded for alpha < 1, the
        # constant C at alpha = 1, C alpha (1-x0)^(alpha-1) above
        assert PowerTailMeasure(2.0, 0.5).bounded_density_sup() is None
        assert PowerTailMeasure(2.0, 1.0, x0=0.3).bounded_density_sup() == 2.0
        assert PowerTailMeasure(2.0, 3.0, x0=0.5).bounded_density_sup() == \
            pytest.approx(1.5, rel=1e-15)

    def test_power_tail_sublinear_norm_at_alpha_one(self):
        # mu(J_eps)/eps = C min(eps, 1-x0)/eps, whose sup C is attained
        # below eps = 1-x0
        mu = PowerTailMeasure(2.0, 1.0, x0=0.3)
        assert mu.sublinear_norm_exact() == 2.0
        grid = default_epsilon_grid()
        small = grid[grid <= 0.7]
        np.testing.assert_allclose(mu.tail_mass(small) / small, 2.0,
                                   rtol=1e-14)

    def test_sum_adds_the_parts(self):
        # 1 + 2 * 3 (1-x)^2, largest at x = 0
        mu = SumMeasure((lebesgue(), ScaledMeasure(2.0, PowerTailMeasure(1.0, 3.0))))
        assert mu.bounded_density_sup() == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize("part", [PowerTailMeasure(1.0, 0.5),
                                      point_mass(0.5)],
                             ids=["unbounded-density", "atom"])
    def test_sum_with_a_part_without_a_bounded_density(self, part):
        assert part.bounded_density_sup() is None
        assert SumMeasure((lebesgue(), part)).bounded_density_sup() is None

    def test_sum_past_the_double_range_reads_inf(self):
        # the parts' sups and masses sum past the largest double: inf, as for
        # a scaling, not math.fsum's OverflowError
        part = PiecewiseDensityMeasure([0.0, 1.0], [1e308])
        mu = SumMeasure((part, part))
        assert mu.bounded_density_sup() == math.inf
        assert mu.mass_above(0.0) == math.inf
        assert ScaledMeasure(2.0, part).bounded_density_sup() == math.inf


class TestLemma42:
    def test_increasing_integrand_bound(self):
        # integral g dmu <= ||mu||_S integral g dm for increasing g = x^s
        for mu in (lebesgue(), PowerTailMeasure(1.0, 2.0),
                   atomic([(0.5, 1.0)]), ScaledMeasure(2.0, lebesgue())):
            norm = modulus_report(mu).sublinear_norm
            for s in (0.5, 1.0, 3.0, 10.0, 40.0):
                assert mu.moment(s) <= norm / (s + 1.0) + 1e-12

    def test_extremal_monomials(self):
        # sup_lambda ||(2 lambda + 1)^(1/2) x^lambda||_{L^2(mu)} <= ||mu||_S^(1/2)
        for mu in (lebesgue(), PowerTailMeasure(1.0, 2.0),
                   ScaledMeasure(0.25, lebesgue())):
            norm = modulus_report(mu).sublinear_norm
            for lam in 2.0 ** np.arange(0, 16):
                val = math.sqrt((2 * lam + 1) * mu.moment(2 * lam))
                assert val <= math.sqrt(norm) + 1e-10


class TestRhoMajorization:
    def test_lebesgue_equality(self):
        res = rho_majorization_check(lebesgue(), PowerTailMeasure(1.0, 1.0),
                                     lambda x: np.asarray(x) ** 2)
        assert res.holds
        assert res.lhs == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert res.rhs == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_powertail_beta_equality(self):
        res = rho_majorization_check(PowerTailMeasure(1.0, 2.0),
                                     PowerTailMeasure(1.0, 2.0),
                                     lambda x: np.asarray(x) ** 10.0)
        assert res.holds
        assert res.lhs == pytest.approx(1.0 / 66.0, rel=1e-9)
        assert res.rhs == pytest.approx(1.0 / 66.0, rel=1e-9)

    def test_atomic_slack(self):
        res = rho_majorization_check(atomic([(0.5, 1.0)]),
                                     PowerTailMeasure(2.0, 1.0),
                                     lambda x: np.asarray(x))
        assert res.holds
        assert res.lhs == pytest.approx(0.5)
        assert res.rhs == pytest.approx(1.0, rel=1e-10)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(HypothesisViolationError):
            rho_majorization_check(ScaledMeasure(3.0, lebesgue()),
                                   PowerTailMeasure(1.0, 1.0),
                                   lambda x: np.asarray(x))

    def test_hypothesis_checked_where_an_atom_enters(self):
        # the atom at 0.495 enters J_eps at eps = 0.505, between the grid
        # points 1/2 (mu(J_eps) = 0) and 1 (1 <= rho(1) = 1)
        eps, mass, bound = rho_hypothesis_violation(point_mass(0.495),
                                                    PowerTailMeasure(1.0, 1.0))
        assert eps == pytest.approx(0.505, rel=1e-14)
        assert mass == 1.0 and bound == pytest.approx(0.505, rel=1e-14)
        with pytest.raises(HypothesisViolationError, match="eps = 0.505"):
            rho_majorization_check(point_mass(0.495), PowerTailMeasure(1.0, 1.0),
                                   lambda x: np.asarray(x))

    def test_atom_on_the_majorant_holds(self):
        # mu(J_eps) = 1/2 = rho(eps) where the atom enters
        assert rho_hypothesis_violation(point_mass(0.5, 0.5),
                                        PowerTailMeasure(1.0, 1.0)) is None


class TestIntegrateAgainst:
    @pytest.mark.parametrize("s", [0.5, 3.0, 40.0])
    def test_moments_on_the_plan(self, s):
        # the plan grades toward both x = 1 and x = 0, so x^0.5 is exact too
        piecewise = PiecewiseDensityMeasure(np.array([0.0, 0.3, 0.7, 1.0]),
                                            np.array([1.0, 0.0, 2.0]))
        for mu in (lebesgue(), PowerTailMeasure(1.5, 2.5, x0=0.2), piecewise,
                   SumMeasure((ScaledMeasure(0.5, lebesgue()), point_mass(0.4)))):
            value, err = integrate_against(mu, lambda x: np.asarray(x) ** s)
            assert value == pytest.approx(mu.moment(s), rel=1e-13)
            assert err <= 1e-13 * value

    def test_power_tail_majorant_rhs_closed_form(self):
        # integral_0^1 x^s rho'(1 - x) dx = C alpha B(s + 1, alpha)
        rho = PowerTailMeasure(2.0, 1.5)
        for s in (0.5, 7.0):
            res = rho_majorization_check(PowerTailMeasure(1.0, 2.0), rho,
                                         lambda x, s=s: np.asarray(x) ** s)
            exact = 2.0 * 1.5 * float(mp.beta(s + 1.0, 1.5))
            assert res.rhs == pytest.approx(exact, rel=1e-13)


def _old_majorization_rhs(coefficient, alpha, g):
    """The right-hand side before the majorant was a measure: g against
    rho'(t) = C alpha t^(alpha - 1) on a plan of its own.  (value, error)"""
    def derivative(u):
        return coefficient * alpha * np.asarray(u) ** (alpha - 1.0)
    plan = quadrature.QuadraturePlan.from_pieces([(0.0, 1.0, derivative)])
    value, err, _ = plan.integrate(lambda t: g(1.0 - t))
    return value, err


class TestMajorantMeasure:
    @pytest.mark.parametrize("coefficient, alpha",
                             [(1.0, 1.0), (2.0, 1.5), (3.0, 0.6), (4.0, 0.3)])
    @pytest.mark.parametrize("s", [0.5, 3.0, 40.0])
    def test_rhs_matches_old_plan(self, coefficient, alpha, s):
        def g(x):
            return np.asarray(x, dtype=float) ** s
        mu = ScaledMeasure(0.5, atomic([(0.4, 1.0)]))
        res = rho_majorization_check(mu, PowerTailMeasure(coefficient, alpha), g)
        rhs, rhs_err = _old_majorization_rhs(coefficient, alpha, g)
        lhs, lhs_err = integrate_against(mu, g)
        assert res.rhs == rhs
        assert res.quadrature_error == lhs_err + rhs_err
        assert res.holds and res.slack == rhs - lhs

    @pytest.mark.parametrize("coefficient, alpha", [(1.0, 1.0), (2.0, 0.5),
                                                    (0.3, 2.0)])
    def test_tail_mass_is_the_power_majorant(self, coefficient, alpha):
        majorant = PowerTailMeasure(coefficient, alpha)
        for eps in default_epsilon_grid():
            assert majorant.tail_mass(eps) == coefficient * eps ** alpha

    def test_violation_message(self):
        with pytest.raises(HypothesisViolationError) as info:
            rho_majorization_check(ScaledMeasure(3.0, lebesgue()),
                                   PowerTailMeasure(1.0, 1.0),
                                   lambda x: np.asarray(x))
        assert str(info.value) == "mu(J_eps) = 3 exceeds rho(eps) = 1 at eps = 1"


class TestValidation:
    def test_atom_at_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            atomic([(1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            atomic_from_logs([0.0], [0.0])

    def test_positive_weights(self):
        with pytest.raises(InvalidParameterError):
            atomic([(0.5, 0.0)])

    def test_positions_coinciding_as_logs_refused_by_name(self):
        # distinct doubles whose logs round to one double: atoms are stored
        # by their logs, so the pair is refused and named
        a, b = 0.05, 0.05000000000000001
        assert a != b and math.log(a) == math.log(b)
        with pytest.raises(InvalidParameterError,
                           match=r"distinct once stored as logs: positions "
                                 r"0\.05 and 0\.05000000000000001"):
            atomic([(0.3, 1.0), (a, 2.0), (b, 1.0)])
        with pytest.raises(InvalidParameterError,
                           match=r"log positions -0\.1 and -0\.1"):
            measure_from_config({"kind": "atomic",
                                 "log_atoms": [[-0.1, 0.0], [-0.1, 1.0]]})

    def test_powertail_params(self):
        with pytest.raises(InvalidParameterError):
            PowerTailMeasure(0.0, 2.0)
        with pytest.raises(InvalidParameterError):
            PowerTailMeasure(1.0, 2.0, x0=1.0)


class TestConfig:
    @pytest.mark.parametrize("spec", [
        {"kind": "atomic", "atoms": [[0.5, 1.0], [0.25, 2.0]]},
        {"kind": "powertail", "C": 1, "alpha": 2, "x0": 0},
        {"kind": "lebesgue"},
        {"kind": "piecewise", "breakpoints": [0, 0.5, 1], "densities": [1, 2]},
        {"kind": "scaled", "c": 2,
         "inner": {"kind": "powertail", "C": 1, "alpha": 2, "x0": 0}},
        {"kind": "sum", "parts": [{"kind": "lebesgue"},
                                  {"kind": "atomic", "atoms": [[0.5, 1.0]]}]},
    ])
    def test_round_trip_moments(self, spec):
        mu = measure_from_config(spec)
        again = measure_from_config(mu.to_config())
        for s in (0.0, 1.0, 5.0):
            assert mu.moment(s) == pytest.approx(again.moment(s), rel=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            measure_from_config({"kind": "gaussian"})

    @pytest.mark.parametrize("build", [lambda: build_example1(8),
                                       lambda: build_example2(1.0, 0.5, 8)])
    def test_near_one_atoms_round_trip(self, build):
        # the constructions put atoms at 1 - 1e-18 and closer, which round
        # to 1.0 linearly; the config keeps their logs
        mu = build().measure
        spec = json.loads(json.dumps(mu.to_config()))
        assert "log_atoms" in spec
        again = measure_from_config(spec)
        np.testing.assert_array_equal(again.log_positions, mu.log_positions)
        np.testing.assert_array_equal(again.log_weights, mu.log_weights)

    def test_linear_atoms_kept_when_lossless(self):
        mu = atomic([(0.5, 1.0), (0.25, 2.0)])
        assert mu.to_config()["atoms"] == [[0.25, 2.0], [0.5, 1.0]]

    @pytest.mark.parametrize("log_atoms, match", [
        ([], "at least one"), ([[0.0, 0.0]], "positions"),
        ([[-math.inf, 0.0]], "positions"), ([[-0.1, -math.inf]], "weights"),
        ([[-0.1, 0.0], [-0.1, 1.0]], "distinct")])
    def test_log_atoms_refused_like_atoms(self, log_atoms, match):
        with pytest.raises(InvalidParameterError, match=match):
            measure_from_config({"kind": "atomic", "log_atoms": log_atoms})


# ---------------------------------------------------------------------------
# array mass queries against the per-eps loops they replaced
# ---------------------------------------------------------------------------

def _loop_tail_mass(mu, eps):
    """mu(J_eps) at one eps as the scalar mass query computed it: an atom mask
    summed by logsumexp, a power, piece overlaps added in order, a scale, an
    fsum of the parts."""
    if isinstance(mu, AtomicMeasure):
        mask = -np.expm1(mu.log_positions) <= eps
        return math.exp(logsumexp(mu.log_weights[mask])) if mask.any() else 0.0
    if isinstance(mu, PowerTailMeasure):
        return mu.coefficient * min(eps, mu.width) ** mu.alpha
    if isinstance(mu, PiecewiseDensityMeasure):
        total = 0.0
        for lo, hi, h in zip(mu.breakpoints[:-1], mu.breakpoints[1:],
                             mu.densities):
            seg = min(hi, 1.0) - max(lo, 1.0 - eps)
            if seg > 0.0:
                total += h * seg
        return total
    if isinstance(mu, ScaledMeasure):
        return mu.scale * _loop_tail_mass(mu.inner, eps)
    return math.fsum(_loop_tail_mass(p, eps) for p in mu.parts)


def _loop_mass_above(mu, b):
    """mu((b, 1]) as the scalar query computed it: atoms strictly above b."""
    if isinstance(mu, AtomicMeasure):
        if b <= 0.0:
            return mu.total_mass
        mask = mu.log_positions > math.log(b)
        return math.exp(logsumexp(mu.log_weights[mask])) if mask.any() else 0.0
    if isinstance(mu, ScaledMeasure):
        return mu.scale * _loop_mass_above(mu.inner, b)
    if isinstance(mu, SumMeasure):
        return math.fsum(_loop_mass_above(p, b) for p in mu.parts)
    return _loop_tail_mass(mu, 1.0 - b) if b < 1.0 else 0.0


def _loop_sublinear_norm_exact(mu):
    """The analytic sublinear norm of an atomic or piecewise measure, one
    candidate eps at a time."""
    if isinstance(mu, AtomicMeasure):
        best = 0.0
        for k in range(mu.log_positions.size):
            eps_k = -math.expm1(mu.log_positions[k])
            best = max(best, math.exp(logsumexp(mu.log_weights[k:])) / eps_k)
        return best
    candidates = [mu.densities[-1] if mu.breakpoints[-1] >= 1.0 else 0.0]
    for b in mu.breakpoints[:-1]:
        candidates.append(_loop_tail_mass(mu, 1.0 - b) / (1.0 - b))
    candidates.append(_loop_tail_mass(mu, 1.0))
    return max(candidates)


def _at_atoms(mu):
    """eps = 1 - a_k, where each atom enters J_eps."""
    return -np.expm1(np.asarray(mu.flattened().log_positions, dtype=float))


def _loop_rho_violation(mu, majorant):
    eps_all = np.concatenate((default_epsilon_grid(), _at_atoms(mu)))
    for eps in np.sort(eps_all)[::-1].tolist():
        bound = _loop_tail_mass(majorant, eps)
        mass = _loop_tail_mass(mu, eps)
        if mass > bound * (1.0 + 1e-12) + 1e-300:
            return eps, mass, bound
    return None


def _loop_partition_masses(mu):
    partitions = []
    b_j, b_next = 0.0, 0.5
    while len(partitions) < 64:
        eps_next = 1.0 - b_next
        mass = _loop_tail_mass(mu, 1.0 - b_j)
        mass -= _loop_tail_mass(mu, eps_next) if eps_next > 0.0 else 0.0
        partitions.append((b_j, b_next, mass))
        if eps_next <= 1e-12:
            break
        b_j, b_next = b_next, math.sqrt(b_next)
    return partitions


ORACLE_MEASURES = {
    "atomic": atomic([(0.3, 1.0), (0.5, 0.25), (0.9, 2.0),
                      (1.0 - 2.0 ** -30, 0.125)]),
    "atomic-near-one": atomic_from_logs([-1e-3, -1e-12, -1e-25],
                                        [0.0, -20.0, -45.0]),
    "powertail": PowerTailMeasure(1.5, 2.5),
    "powertail-x0": PowerTailMeasure(2.0, 0.5, x0=0.6),
    "lebesgue": lebesgue(),
    "piecewise": PiecewiseDensityMeasure(np.array([0.0, 0.25, 0.7, 1.0]),
                                         np.array([2.0, 0.0, 1.5])),
    "piecewise-short": PiecewiseDensityMeasure(np.array([0.1, 0.6]),
                                               np.array([3.0])),
    "scaled": ScaledMeasure(3.5, atomic([(0.4, 1.0), (0.8, 0.5)])),
    "sum": SumMeasure((atomic([(0.4, 1.0), (0.8, 0.5)]),
                       PowerTailMeasure(0.5, 1.5), lebesgue())),
    "empty": restrict_tail(PiecewiseDensityMeasure(np.array([0.1, 0.5]),
                                                   np.array([1.0])), 2),
    "sum-with-empty": SumMeasure((restrict_tail(atomic([(0.2, 1.0)]), 3),
                                  PowerTailMeasure(1.0, 2.0))),
}
# the last fails first where an atom enters J_eps, off the grid
MAJORANTS = (PowerTailMeasure(2.0, 1.0), PowerTailMeasure(0.5, 2.0), lebesgue(),
             ScaledMeasure(3.0, atomic([(0.5, 1.0), (0.95, 0.5)])),
             PowerTailMeasure(10.0, 3.0))


def _assert_close(got, want, rel=1e-15):
    np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


@pytest.mark.parametrize("name", ORACLE_MEASURES)
class TestArrayTailMass:
    def test_grid_atoms_and_one(self, name):
        mu = ORACLE_MEASURES[name]
        for eps in (default_epsilon_grid(), _at_atoms(mu), np.array([1.0])):
            masses = mu.tail_mass(eps)
            assert masses.shape == eps.shape
            _assert_close(masses, [_loop_tail_mass(mu, e) for e in eps.tolist()])
            for e, m in zip(eps.tolist(), masses.tolist()):
                one = mu.tail_mass(e)
                assert type(one) is float and one == m

    def test_mass_above(self, name):
        # b at an atom of "atomic" leaves that atom out
        mu = ORACLE_MEASURES[name]
        for b in (0.0, 0.3, 0.5, 0.75, 0.9, 1.0 - 2.0 ** -30, 1.0):
            _assert_close(mu.mass_above(b), _loop_mass_above(mu, b))

    def test_modulus_report(self, name):
        mu = ORACLE_MEASURES[name]
        rep = modulus_report(mu)
        grid = default_epsilon_grid()
        masses = np.array([_loop_tail_mass(mu, e) for e in grid.tolist()])
        _assert_close(rep.grid, grid)
        _assert_close(rep.ratios, masses / grid)
        if not rep.sup_is_exact:
            assert rep.sublinear_norm == float((masses / grid).max())

    def test_rho_hypothesis_violation(self, name):
        mu = ORACLE_MEASURES[name]
        for majorant in MAJORANTS:
            got = rho_hypothesis_violation(mu, majorant)
            want = _loop_rho_violation(mu, majorant)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                _assert_close(got[1:], want[1:])

    def test_log_tail_mass(self, name):
        # the log of the tail mass, to rounding, -inf where there is none
        mu = ORACLE_MEASURES[name]
        eps = np.concatenate([default_epsilon_grid(), _at_atoms(mu), [1.0]])
        with np.errstate(divide="ignore"):
            want = np.log(mu.tail_mass(eps))
        got = mu.log_tail_mass(eps)
        assert np.array_equal(got == -np.inf, want == -np.inf)
        finite = want > -np.inf
        np.testing.assert_allclose(np.exp(got[finite] - want[finite]), 1.0,
                                   rtol=1e-14)
        with pytest.raises(InvalidParameterError):
            mu.log_tail_mass(0.0)

    def test_partition_masses(self, name):
        mu = ORACLE_MEASURES[name]
        cert = hilbert_schmidt_certificate(make_explicit([2.0]), mu)
        got = cert.params["partition_masses"]
        want = _loop_partition_masses(mu)
        assert [p[:2] for p in got] == [p[:2] for p in want]
        _assert_close([p[2] for p in got], [p[2] for p in want])


MASS_CASES = {
    **ORACLE_MEASURES,
    "powertail-far-x0": PowerTailMeasure(0.3, 2.94, x0=0.999),
    "nested": ScaledMeasure(3.0, SumMeasure((
        ScaledMeasure(0.5, PowerTailMeasure(1.0, 1.5, x0=0.2)),
        SumMeasure((atomic([(0.4, 1.0)]), ORACLE_MEASURES["empty"])),
        PiecewiseDensityMeasure(np.array([0.5, 0.8]), np.array([2.0]))))),
    "nested-empty": SumMeasure((ScaledMeasure(2.0, ORACLE_MEASURES["empty"]),
                                ORACLE_MEASURES["empty"])),
}


@pytest.mark.parametrize("name", MASS_CASES)
def test_total_mass_is_tail_mass_at_one_and_zeroth_moment(name):
    mu = MASS_CASES[name]
    mass = mu.total_mass
    assert mass == mu.tail_mass(1.0)
    assert mass == pytest.approx(math.exp(mu.log_moment(0.0)), rel=1e-14,
                                 abs=0.0)
    assert (mass == 0.0) == (name in ("empty", "nested-empty"))


def test_power_tail_total_mass_against_mpmath():
    # C*alpha times the integral of (1-x)**(alpha-1) over [x0, 1]; that no
    # mass loads scipy.special is checked in a fresh process by
    # test_cli.py's TestStartup
    rng = np.random.default_rng(23)
    for _ in range(200):
        c, alpha = rng.uniform(0.01, 100.0), rng.uniform(0.05, 10.0)
        x0 = float(rng.choice([rng.uniform(1e-12, 0.5),
                               rng.uniform(0.5, 0.999)]))
        with mp.workdps(60):
            want = (mp.mpf(c) * alpha
                    * mp.betainc(1, alpha, x0, 1, regularized=False))
        got = PowerTailMeasure(c, alpha, x0=x0).total_mass
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", ["atomic", "atomic-near-one", "lebesgue",
                                  "piecewise", "piecewise-short", "empty"])
def test_sublinear_norm_exact_matches_loop(name):
    mu = ORACLE_MEASURES[name]
    _assert_close(mu.sublinear_norm_exact(), _loop_sublinear_norm_exact(mu))


@pytest.mark.parametrize("name", ["powertail", "powertail-x0"])
def test_powertail_tail_mass_exact_at_dyadic_eps(name):
    mu = ORACLE_MEASURES[name]
    grid = default_epsilon_grid()
    assert mu.tail_mass(grid).tolist() == [_loop_tail_mass(mu, e)
                                           for e in grid.tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMassPastTheDoubleRange:
    @pytest.mark.parametrize("mu, log_total", [
        (atomic([(0.5, 1e308), (0.9, 1e308)]), math.log(2e300) + math.log(1e8)),
        (ScaledMeasure(1e300, atomic([(0.5, 1e10)])), math.log(1e300) + math.log(1e10)),
        (SumMeasure((atomic([(0.5, 1e308)]), atomic([(0.7, 1e308)]))),
         math.log(2e300) + math.log(1e8))], ids=["atomic", "scaled", "sum"])
    def test_masses_read_inf_and_their_logs_stay_finite(self, mu, log_total):
        assert mu.total_mass == math.inf
        assert mu.mass_above(0.1) == math.inf
        assert mu.log_tail_mass(1.0) == pytest.approx(log_total, rel=1e-15)
