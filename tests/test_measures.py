import math

import mpmath as mp
import numpy as np
import pytest

from muntzlab import (HypothesisViolationError, InvalidParameterError,
                      PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                      SumMeasure, atomic, atomic_from_logs, lebesgue,
                      measure_from_config, modulus_report, moment, point_mass,
                      power_rho, restrict_tail, rho_majorization_check,
                      tail_mass)


class TestMoments:
    def test_lebesgue_closed_form(self):
        leb = lebesgue()
        for s in (0.0, 1.0, 2.0, 10.0, 1e6):
            assert moment(leb, s) == pytest.approx(1.0 / (s + 1.0), rel=1e-13)

    def test_atomic_single(self):
        assert moment(point_mass(0.5), 1.0) == pytest.approx(0.5)

    def test_powertail_beta_identity(self):
        # C alpha B(s+1, alpha) at C=1, alpha=2, s=10 -> 2 B(11,2) = 1/66,
        # cross-checked against direct quadrature
        mu = PowerTailMeasure(1.0, 2.0)
        assert moment(mu, 10.0) == pytest.approx(1.0 / 66.0, rel=1e-12)
        xs = np.linspace(0.0, 1.0, 200001)
        quad = np.trapezoid(xs ** 10 * 2.0 * (1.0 - xs), xs)
        assert moment(mu, 10.0) == pytest.approx(quad, rel=1e-8)

    def test_powertail_truncated_vs_quadrature(self):
        mu = PowerTailMeasure(1.5, 2.5, x0=0.25)
        xs = np.linspace(0.25, 1.0, 400001)
        for s in (0.0, 3.0, 11.5):
            quad = np.trapezoid(xs ** s * 1.5 * 2.5 * (1.0 - xs) ** 1.5, xs)
            assert moment(mu, s) == pytest.approx(quad, rel=1e-7)

    def test_huge_exponent_log_domain(self):
        mu = atomic_from_logs([-1e-12], [0.0])   # atom at 1 - 1e-12
        s = 1e12
        assert mu.log_moment(s) == pytest.approx(-1.0, rel=1e-6)

    def test_additivity(self):
        mu1 = point_mass(0.3, 0.7)
        mu2 = PowerTailMeasure(1.0, 2.0)
        total = SumMeasure((mu1, mu2))
        for s in (0.0, 1.0, 7.0):
            assert moment(total, s) == pytest.approx(
                moment(mu1, s) + moment(mu2, s), rel=1e-13)

    def test_scaling(self):
        mu = PowerTailMeasure(1.0, 2.0)
        scaled = ScaledMeasure(3.5, mu)
        for s in (0.0, 2.0, 50.0):
            assert moment(scaled, s) == pytest.approx(3.5 * moment(mu, s),
                                                      rel=1e-13)

    def test_strictly_decreasing_in_s(self):
        for mu in (lebesgue(), point_mass(0.5), PowerTailMeasure(1.0, 2.0)):
            values = [moment(mu, s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            moment(lebesgue(), -0.5)


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
            assert tail_mass(leb, eps) == pytest.approx(eps)

    def test_powertail(self):
        assert tail_mass(PowerTailMeasure(1.0, 2.0), 0.1) == pytest.approx(0.01)

    def test_atomic_threshold(self):
        mu = atomic([(0.9, 2.0)])
        assert tail_mass(mu, 0.05) == 0.0
        assert tail_mass(mu, 0.2) == pytest.approx(2.0)
        # closed interval: the atom at exactly 1-eps counts
        assert tail_mass(mu, 1.0 - 0.9) == pytest.approx(2.0)

    def test_nondecreasing_in_eps(self):
        mu = SumMeasure((atomic([(0.4, 1.0), (0.8, 0.5)]),
                         PowerTailMeasure(0.5, 1.5)))
        eps = np.linspace(1e-4, 1.0, 97)
        masses = [tail_mass(mu, e) for e in eps]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            tail_mass(lebesgue(), 0.0)
        with pytest.raises(InvalidParameterError):
            tail_mass(lebesgue(), 1.5)


class TestRestrict:
    def test_lebesgue_quarter(self):
        tail = restrict_tail(lebesgue(), 4)
        assert tail.total_mass == pytest.approx(0.25)
        assert moment(tail, 0.0) == pytest.approx(0.25)

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
                assert moment(mu, s) <= norm / (s + 1.0) + 1e-12

    def test_extremal_monomials(self):
        # sup_lambda ||(2 lambda + 1)^(1/2) x^lambda||_{L^2(mu)} <= ||mu||_S^(1/2)
        for mu in (lebesgue(), PowerTailMeasure(1.0, 2.0),
                   ScaledMeasure(0.25, lebesgue())):
            norm = modulus_report(mu).sublinear_norm
            for lam in 2.0 ** np.arange(0, 16):
                val = math.sqrt((2 * lam + 1) * moment(mu, 2 * lam))
                assert val <= math.sqrt(norm) + 1e-10


class TestRhoMajorization:
    def test_lebesgue_equality(self):
        res = rho_majorization_check(lebesgue(), power_rho(1.0, 1.0),
                                     lambda x: np.asarray(x) ** 2)
        assert res.holds
        assert res.lhs == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert res.rhs == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_powertail_beta_equality(self):
        res = rho_majorization_check(PowerTailMeasure(1.0, 2.0),
                                     power_rho(1.0, 2.0),
                                     lambda x: np.asarray(x) ** 10.0)
        assert res.holds
        assert res.lhs == pytest.approx(1.0 / 66.0, rel=1e-9)
        assert res.rhs == pytest.approx(1.0 / 66.0, rel=1e-9)

    def test_atomic_slack(self):
        res = rho_majorization_check(atomic([(0.5, 1.0)]), power_rho(2.0, 1.0),
                                     lambda x: np.asarray(x))
        assert res.holds
        assert res.lhs == pytest.approx(0.5)
        assert res.rhs == pytest.approx(1.0, rel=1e-10)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(HypothesisViolationError):
            rho_majorization_check(ScaledMeasure(3.0, lebesgue()),
                                   power_rho(1.0, 1.0),
                                   lambda x: np.asarray(x))


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
            assert moment(mu, s) == pytest.approx(moment(again, s), rel=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            measure_from_config({"kind": "gaussian"})
