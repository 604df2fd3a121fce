import math

import mpmath as mp
import numpy as np
import pytest

from muntzlab import quadrature
from muntzlab.measures import (default_epsilon_grid, integrate_against,
                               rho_hypothesis_violation)
from muntzlab import (HypothesisViolationError, InvalidParameterError,
                      PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                      SumMeasure, atomic, atomic_from_logs, lebesgue,
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

    def test_empty_restriction_is_zero_measure(self):
        tail = restrict_tail(atomic([(0.2, 1.0)]), 3)
        assert tail.total_mass == 0.0

    def test_m_validation(self):
        with pytest.raises(InvalidParameterError):
            restrict_tail(lebesgue(), 1)


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

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            modulus_report(lebesgue(), grid=[0.5, 0.25, 0.125])


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
    plan = quadrature.QuadraturePlan.from_pieces([(0.0, 1.0, derivative, False)])
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
