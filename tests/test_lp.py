import functools
import math

import mpmath
import numpy as np
import pytest

from muntzlab import (EmbeddingProblem, InvalidParameterError, MuntzPolynomial,
                      PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                      analyze, atomic, certified_embedding_constant,
                      empirical_embedding_constant, interpolation_check,
                      l1_unboundedness_witness, lebesgue, lebesgue_lp_norm,
                      lp_norm, lp_norms, make_explicit, make_geometric,
                      point_mass, random_unit)


class TestLpNorm:
    def test_identity_l1(self):
        f = MuntzPolynomial(make_explicit([1.0]), np.array([1.0]))
        assert lp_norm(f, 1.0, lebesgue()).value == pytest.approx(0.5, rel=1e-10)

    def test_atom_l2(self):
        f = MuntzPolynomial(make_explicit([1.0]), np.array([1.0]))
        assert lp_norm(f, 2.0, point_mass(0.5)).value == pytest.approx(0.5)

    def test_quadrature_vs_gram(self):
        seq = make_geometric(2.0, 2.0, 6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_unit(seq, rng)
            quad = lp_norm(f, 2.0, lebesgue()).value
            gram = lebesgue_lp_norm(f, 2.0).value
            assert quad == pytest.approx(gram, rel=1e-9)

    def test_sign_changes_handled(self):
        # f = x - x^2 changes nothing; f = x - 3 x^2 has a root at 1/3:
        # integral |x - 3x^2| dx = 2*(1/3)^2/6 ... computed directly
        seq = make_explicit([1.0, 2.0])
        f = MuntzPolynomial(seq, np.array([1.0, -3.0]))
        xs = np.linspace(0.0, 1.0, 2000001)
        direct = np.trapezoid(np.abs(xs - 3.0 * xs ** 2), xs)
        assert lp_norm(f, 1.0, lebesgue()).value == pytest.approx(direct, rel=1e-9)

    def test_odd_p_against_reference(self):
        seq = make_explicit([1.0, 3.0])
        f = MuntzPolynomial(seq, np.array([0.5, -1.0]))
        xs = np.linspace(0.0, 1.0, 2000001)
        direct = np.trapezoid(np.abs(0.5 * xs - xs ** 3) ** 1.5, xs) ** (1 / 1.5)
        assert lp_norm(f, 1.5, lebesgue()).value == pytest.approx(direct, rel=1e-7)

    def test_holder_monotone_in_p(self):
        # for probability measures ||f||_p is nondecreasing in p
        seq = make_geometric(2.0, 2.0, 4)
        rng = np.random.default_rng(9)
        for mu in (lebesgue(), point_mass(0.7),
                   ScaledMeasure(2.0, PowerTailMeasure(0.5, 1.0))):
            assert mu.total_mass == pytest.approx(1.0)
            f = random_unit(seq, rng)
            values = [lp_norm(f, p, mu).value for p in (1.0, 1.5, 2.0, 3.0)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_p_validation(self):
        f = MuntzPolynomial(make_explicit([1.0]), np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            lp_norm(f, 0.5, lebesgue())


class TestEmpiricalConstant:
    def test_lebesgue_is_one(self):
        seq = make_geometric(2.0, 2.0, 6)
        for p in (1.0, 2.0, 3.0):
            val = empirical_embedding_constant(seq, lebesgue(), p, 4, 4,
                                               refine=False)
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_converges_to_spectral(self):
        seq = make_explicit([1.0])
        val = empirical_embedding_constant(seq, point_mass(0.5), 2.0, 1, 3)
        assert val == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-10)

    def test_scaled_lebesgue(self):
        seq = make_geometric(2.0, 2.0, 5)
        for p in (1.0, 2.0):
            val = empirical_embedding_constant(
                seq, ScaledMeasure(4.0, lebesgue()), p, 3, 3, refine=False)
            assert val == pytest.approx(4.0 ** (1.0 / p), rel=1e-12)

    def test_never_exceeds_spectral_norm(self):
        seq = make_geometric(2.0, 2.0, 8)
        for mu in (PowerTailMeasure(1.0, 2.0),
                   atomic([(0.4, 1.0), (0.8, 0.5)])):
            op = analyze(EmbeddingProblem(seq, mu, 8)).op_norm
            est = empirical_embedding_constant(seq, mu, 2.0, 8, 12, seed=5)
            assert est <= op + 1e-8

    def test_deterministic_given_seed(self):
        seq = make_geometric(2.0, 2.0, 6)
        mu = PowerTailMeasure(1.0, 2.0)
        a = empirical_embedding_constant(seq, mu, 2.0, 6, 6, seed=11)
        b = empirical_embedding_constant(seq, mu, 2.0, 6, 6, seed=11)
        assert a == b


class TestCertifiedConstants:
    def test_lebesgue(self):
        assert certified_embedding_constant(lebesgue(), 2.0) == 1.0

    def test_scaled(self):
        assert certified_embedding_constant(
            ScaledMeasure(4.0, lebesgue()), 2.0) == pytest.approx(2.0)

    def test_piecewise(self):
        mu = PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                     np.array([0.5, 2.0]))
        assert certified_embedding_constant(mu, 1.0) == pytest.approx(2.0)

    def test_atomic_has_none(self):
        assert certified_embedding_constant(point_mass(0.5), 2.0) is None

    def test_certified_dominates_empirical(self):
        seq = make_geometric(2.0, 2.0, 6)
        for mu in (lebesgue(), ScaledMeasure(3.0, lebesgue()),
                   PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                           np.array([0.5, 2.0]))):
            for p in (1.0, 2.0):
                cert = certified_embedding_constant(mu, p)
                emp = empirical_embedding_constant(seq, mu, p, 5, 8, seed=2)
                assert emp <= cert + 1e-8


class TestInterpolation:
    def test_lebesgue_equality(self):
        seq = make_geometric(2.0, 2.0, 6)
        rep = interpolation_check(seq, lebesgue(), 1.0, 2.0, 0.5, n=4,
                                  samples=20)
        assert not rep.inconclusive
        assert len(rep.violations) == 0
        assert rep.max_slack == pytest.approx(0.0, abs=1e-12)

    def test_scaled_exponent_arithmetic(self):
        seq = make_geometric(2.0, 2.0, 6)
        rep = interpolation_check(seq, ScaledMeasure(5.0, lebesgue()),
                                  1.0, 2.0, 0.25, n=4, samples=20)
        assert len(rep.violations) == 0
        # equality up to quadrature: c^(1/p_t) = (c^(1/p0))^(1-t) (c^(1/p1))^t
        assert abs(rep.max_slack) < 1e-9

    def test_pt_formula(self):
        seq = make_explicit([1.0, 2.0])
        rep = interpolation_check(seq, lebesgue(), 1.0, 2.0, 0.5, samples=1)
        assert rep.p_t == pytest.approx(4.0 / 3.0)

    def test_atomic_inconclusive(self):
        seq = make_explicit([1.0, 2.0])
        rep = interpolation_check(seq, point_mass(0.5), 1.0, 2.0, 0.5,
                                  samples=2)
        assert rep.inconclusive

    def test_parameter_validation(self):
        seq = make_explicit([1.0])
        with pytest.raises(InvalidParameterError):
            interpolation_check(seq, lebesgue(), 2.0, 1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            interpolation_check(seq, lebesgue(), 1.0, 2.0, 1.5)


class TestL1Witness:
    def test_single(self):
        w = l1_unboundedness_witness(make_explicit([1.0]), point_mass(0.5))
        assert w == [(1, pytest.approx(0.5))]

    def test_lebesgue_bounded_below_one(self):
        seq = make_geometric(2.0, 2.0, 10)
        values = [v for _, v in l1_unboundedness_witness(seq, lebesgue())]
        lam = seq.values
        for v, l in zip(values, lam):
            assert v == pytest.approx(l / (l + 1.0), rel=1e-12)
            assert v < 1.0


# ---------------------------------------------------------------------------
# the quadrature plan: batched rows, kinks, the x = 0 end, error estimates
# ---------------------------------------------------------------------------

def _mp_pieces(mu):
    """Density pieces ``(x_lo, x_hi, h)`` of the test measures in mpmath."""
    if isinstance(mu, ScaledMeasure):
        return [(a, b, lambda x, h=h: mpmath.mpf(mu.scale) * h(x))
                for a, b, h in _mp_pieces(mu.inner)]
    if isinstance(mu, PiecewiseDensityMeasure):
        return [(mpmath.mpf(float(a)), mpmath.mpf(float(b)),
                 lambda x, d=mpmath.mpf(float(d)): d)
                for a, b, d in zip(mu.breakpoints[:-1], mu.breakpoints[1:],
                                   mu.densities) if d > 0.0]
    c, a = mpmath.mpf(mu.coefficient), mpmath.mpf(mu.alpha)
    return [(mpmath.mpf(mu.x0), mpmath.mpf(1),
             lambda x: c * a * (1 - x) ** (a - 1))]


def _mp_norm(lams, coeffs, p, mu):
    """30-digit ||f||_{L^p(mu)}, quad split at the mpmath roots of f (sign
    changes on a fine grid, refined by findroot) and the piece edges."""
    with mpmath.workdps(30):
        lams = [mpmath.mpf(float(v)) for v in lams]
        cs = [mpmath.mpf(float(v)) for v in coeffs]
        p = mpmath.mpf(p)

        def f(x):
            return mpmath.fsum(c * x ** v for c, v in zip(cs, lams))

        grid = [mpmath.mpf(k) / 1000 for k in range(1, 1000)]
        grid += [1 - mpmath.mpf(2) ** -j for j in range(10, 30)]
        grid.sort()
        roots = [mpmath.findroot(f, (a, b), solver="illinois")
                 for a, b in zip(grid[:-1], grid[1:]) if f(a) * f(b) < 0]
        total = mpmath.mpf(0)
        for lo, hi, h in _mp_pieces(mu):
            near_one = [1 - mpmath.mpf(2) ** -j for j in range(1, 12)]
            cuts = sorted({lo, hi, *[x for x in roots + near_one if lo < x < hi]})
            total += mpmath.quad(lambda x: abs(f(x)) ** p * h(x), cuts)
        return total ** (1 / p), len(roots)


# x * prod (x - r): one, two and three sign changes in (0, 1) on the
# exponents 1..4, the last with a root at t = 0.03
_ROOTS = ((0.6, -1.0, -2.0), (0.3, 0.8, -1.0), (0.2, 0.55, 0.97))
_PLAN_SEQ = make_explicit([1.0, 2.0, 3.0, 4.0])
_PLAN_COEFFS = np.array([np.poly(r)[::-1] for r in _ROOTS])
_PLAN_MEASURES = {
    "lebesgue": lebesgue(),
    "piecewise": PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                         np.array([0.5, 2.0])),
    "powertail": PowerTailMeasure(1.0, 2.0),
}


@functools.lru_cache(maxsize=None)
def _plan_reference(name, p, k):
    return _mp_norm(_PLAN_SEQ.values, _PLAN_COEFFS[k], p, _PLAN_MEASURES[name])


class TestQuadraturePlan:
    @pytest.mark.parametrize("name", sorted(_PLAN_MEASURES))
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0])
    def test_sign_changes_against_mpmath(self, name, p):
        got = lp_norms(_PLAN_SEQ, _PLAN_COEFFS, p, _PLAN_MEASURES[name])
        for k, est in enumerate(got):
            ref, n_roots = _plan_reference(name, p, k)
            assert n_roots == k + 1
            assert est.value == pytest.approx(float(ref), rel=1e-12)
            assert est.fallback_cells == 0

    def test_batched_rows_bit_identical_to_single_calls(self):
        seq = make_geometric(0.7, 1.8, 5)
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal((150, 5))      # more than one row chunk
        for mu in (lebesgue(), PowerTailMeasure(1.0, 2.0),
                   _PLAN_MEASURES["piecewise"],
                   atomic([(0.4, 1.0), (0.8, 0.5)])):
            batch = lp_norms(seq, coeffs, 4.0 / 3.0, mu)
            for k in range(0, 150, 7):
                assert batch[k] == lp_norm(MuntzPolynomial(seq, coeffs[k]),
                                           4.0 / 3.0, mu)

    def test_interpolation_records_match_single_calls(self):
        seq = make_geometric(2.0, 2.0, 6)
        mu = _PLAN_MEASURES["piecewise"]
        rep = interpolation_check(seq, mu, 1.0, 2.0, 0.5, n=5, samples=70,
                                  seed=4, keep_records=True)
        rng = np.random.default_rng(4)
        sub = seq.truncate(5)
        for i, lhs, rhs in rep.records:
            f = random_unit(sub, rng, bias_last=(i % 2 == 1))
            assert lhs == lp_norm(f, rep.p_t, mu).value
            assert rhs == rep.c0 ** 0.5 * rep.c1 ** 0.5 \
                * lebesgue_lp_norm(f, rep.p_t).value

    def test_lebesgue_interpolation_slack_exactly_zero(self):
        seq = make_geometric(2.0, 2.0, 6)
        for t in (0.25, 0.5, 0.75):
            rep = interpolation_check(seq, lebesgue(), 1.0, 2.0, t, n=5,
                                      samples=40, seed=9)
            assert rep.max_slack == 0.0

    @pytest.mark.parametrize("lam_p", [0.5, 0.65, 0.8])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0])
    def test_x_zero_endpoint_closed_forms(self, lam_p, p):
        # x^lam with lam p < 1 has an infinite slope of |f|^p at x = 0
        f = MuntzPolynomial(make_explicit([lam_p / p]), np.array([1.0]))
        leb = lp_norm(f, p, lebesgue()).value ** p
        assert leb == pytest.approx(1.0 / (lam_p + 1.0), rel=1e-13)
        tail = lp_norm(f, p, PowerTailMeasure(1.0, 2.0)).value ** p
        assert tail == pytest.approx(
            2.0 * (1.0 / (lam_p + 1.0) - 1.0 / (lam_p + 2.0)), rel=1e-13)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 3.0])
    def test_reported_error_bounds_true_error(self, p):
        for name in ("lebesgue", "powertail"):
            got = lp_norms(_PLAN_SEQ, _PLAN_COEFFS, p, _PLAN_MEASURES[name])
            for k, est in enumerate(got):
                ref, _ = _plan_reference(name, p, k)
                true_err = abs(mpmath.mpf(est.value) - ref)
                assert true_err <= est.quadrature_error <= 1e-12

    def test_row_validation(self):
        with pytest.raises(InvalidParameterError):
            lp_norms(_PLAN_SEQ, np.ones((2, 3)), 2.0, lebesgue())
