import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muntzlab import lp, polynomials, quadrature, suites
from muntzlab import (EmbeddingProblem, InvalidParameterError, MuntzPolynomial,
                      PiecewiseDensityMeasure, PowerTailMeasure, ScaledMeasure,
                      analyze, atomic, certified_embedding_constant,
                      empirical_embedding_constant, interpolation_check,
                      interpolation_checks, l1_unboundedness_witness, lebesgue,
                      lebesgue_lp_norm, lp_norm, lp_norms, make_explicit,
                      make_geometric, point_mass, random_unit)


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

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_refused(self, p):
        # these read NaN, -inf or 1.0 before, with no error
        seq = make_geometric(1.0, 2.0, 3)
        f = MuntzPolynomial(seq, np.array([0.6, -0.8, 0.3]))
        calls = (lambda: lp_norm(f, p, lebesgue()),
                 lambda: lp_norms(seq, f.coefficients, p, lebesgue()),
                 lambda: empirical_embedding_constant(seq, lebesgue(), p, 3, 2),
                 lambda: certified_embedding_constant(lebesgue(), p))
        for call in calls:
            with pytest.raises(InvalidParameterError, match="p must be finite"):
                call()

    def test_underflowed_integral_refused(self):
        # sup |f| is about 0.1204, so its |f|^400 is below the double range
        # everywhere; the integral read 0.0 with error 0.0
        f = MuntzPolynomial(make_geometric(1.0, 2.0, 3),
                            np.array([0.6, -0.8, 0.3]))
        with pytest.raises(InvalidParameterError, match="smallest normal double"):
            lp_norm(f, 400.0, lebesgue())
        with pytest.raises(InvalidParameterError, match="smallest normal double"):
            lp_norm(f, 2000.0, point_mass(0.5))
        assert lp_norm(f, 100.0, lebesgue()).value == 0.11751906776147264
        # the zero polynomial integrates to 0 without refusal
        zero = MuntzPolynomial(f.sequence, np.zeros(3))
        assert lp_norm(zero, 400.0, lebesgue()).value == 0.0


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

    @pytest.mark.parametrize("lambda1, ratio, mu, p, samples, seed, value", [
        (1.6741917011734277, 2.6097262389314233, ScaledMeasure(2.0, lebesgue()),
         3.461802864665033, 4, 137728402, 1.2216803227488464),
        (1.657919148340712, 2.965544513047262,
         PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]), np.array([0.5, 2.0])),
         1.1918756268810937, 3, 1305256646, 1.7837612372879637),
        (0.923673773921662, 2.2164669427681574, PowerTailMeasure(1.0, 2.0),
         3.05478137874481, 4, 1517364233, 1.0369391485995034),
    ])
    def test_pinned_values(self, lambda1, ratio, mu, p, samples, seed, value):
        # three benchmark instances, numerator and Lebesgue denominator
        # integrated together; the values of their separate integration
        seq = make_geometric(lambda1, ratio, 2)
        assert repr(empirical_embedding_constant(
            seq, mu, p, 2, samples, refine=True, seed=seed)) == repr(value)


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

    def test_fallback_cell_is_refined_by_the_plan_split_at_the_root(
            self, monkeypatch):
        # with no plan tolerance every cell with an error estimate falls back,
        # the kinked one too: f = x - 3 x^2 has its root at x = 1/3
        monkeypatch.setattr(quadrature, "PLAN_REL_TOL", 0.0)
        calls = []
        refine = quadrature.QuadraturePlan.refine_cell

        def spy(plan, fn, cell, cuts=None):
            calls.append(cuts)
            return refine(plan, fn, cell, cuts)

        monkeypatch.setattr(quadrature.QuadraturePlan, "refine_cell", spy)
        est = lp_norm(MuntzPolynomial(make_explicit([1.0, 2.0]),
                                      np.array([1.0, -3.0])), 1.0, lebesgue())
        assert est.fallback_cells == len(calls) > 0
        split, = [cuts for cuts in calls if cuts is not None]
        assert split[1] == pytest.approx(2.0 / 3.0, rel=1e-15)
        # integral_0^1 |x - 3 x^2| dx = 1/54 + 14/27
        assert est.value == pytest.approx(29.0 / 54.0, rel=1e-14)

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
                                  seed=4)
        assert len(rep.records) == 70      # kept without being asked
        rng = np.random.default_rng(4)
        sub = seq.truncate(5)
        for i, lhs, rhs in rep.records:
            f = random_unit(sub, rng, bias_last=(i % 2 == 1))
            assert lhs == lp_norm(f, rep.p_t, mu).value
            assert rhs == rep.c0 ** 0.5 * rep.c1 ** 0.5 \
                * lebesgue_lp_norm(f, rep.p_t).value

    def test_each_row_isolated_once(self, monkeypatch):
        # the roots of a row serve both sides of the inequality, so the check
        # bisects as often as lp_norms does over the same rows
        calls = []
        bisect = quadrature.bisect_root

        def counted(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(quadrature, "bisect_root", counted)
        seq = make_geometric(2.0, 2.0, 6)
        mu = _PLAN_MEASURES["piecewise"]
        rep = interpolation_check(seq, mu, 1.0, 2.0, 0.5, n=5, samples=40,
                                  seed=4)
        in_check = len(calls)
        calls.clear()
        rng = np.random.default_rng(4)
        sub = seq.truncate(5)
        coeffs = np.array([random_unit(sub, rng, bias_last=(i % 2 == 1)).coefficients
                           for i in range(40)])
        lp_norms(sub, coeffs, rep.p_t, mu)
        assert in_check == len(calls) > 0

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


# ---------------------------------------------------------------------------
# root isolation: the Rolle chain against mpmath and a dense grid
# ---------------------------------------------------------------------------

_CUBIC_SEQ = make_explicit([1.0, 2.0, 3.0])
# x^3 - 0.8 x^2 + (0.16 - delta) x: roots 0.4 +- sqrt(delta), 7.3e-4 apart,
# closer than any fixed sampling of (0, 1) at 512 points per unit
_CLOSE_PAIR = np.array([0.16 - 1.3335e-7, -0.8, 1.0])
# x (x - 0.4)(x - 0.4 - 1e-9): a root pair below the resolution of |h|
_NEAR_DOUBLE = np.poly([0.4, 0.4 + 1e-9])[::-1]


@functools.lru_cache(maxsize=None)
def _mp_cubic_norm(coeffs, p, tail):
    """40-digit ||f||_p of ``f = sum coeffs[k] x^(k+1)`` on Lebesgue measure
    or on PowerTail(1, 2), split at the polyroots of f in (0, 1)."""
    with mpmath.workdps(40):
        cs = [mpmath.mpf(c) for c in coeffs]
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(
            cs[::-1] + [0], maxsteps=200, extraprec=200)
            if abs(mpmath.im(r)) < 1e-30 and 0 < mpmath.re(r) < 1)

        def integrand(x):
            fx = mpmath.fsum(c * x ** (k + 1) for k, c in enumerate(cs))
            return abs(fx) ** p * (2 * (1 - x) if tail else 1)

        return mpmath.quad(integrand, [0, *roots, 1]) ** (1 / mpmath.mpf(p))


class TestRootIsolation:
    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_close_pair_against_mpmath(self, p, tail):
        mu = PowerTailMeasure(1.0, 2.0) if tail else lebesgue()
        est = lp_norm(MuntzPolynomial(_CUBIC_SEQ, _CLOSE_PAIR), p, mu)
        ref = _mp_cubic_norm(tuple(_CLOSE_PAIR.tolist()), p, tail)
        true_err = abs(mpmath.mpf(est.value) - ref)
        assert true_err <= 1e-13 * ref
        assert true_err <= est.quadrature_error

    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_near_double_root_is_cut(self, p, tail):
        # |h| at the critical point 0.4 + 5e-10 is ~2.5e-19, within rounding:
        # the chain cuts there instead of bracketing the pair
        roots = lp._roots(_NEAR_DOUBLE.tolist(), _CUBIC_SEQ.values.tolist())
        assert len(roots) == 1 and abs(roots[0] - 0.6) <= 1e-9
        mu = PowerTailMeasure(1.0, 2.0) if tail else lebesgue()
        est = lp_norm(MuntzPolynomial(_CUBIC_SEQ, _NEAR_DOUBLE), p, mu)
        ref = _mp_cubic_norm(tuple(_NEAR_DOUBLE.tolist()), p, tail)
        assert abs(mpmath.mpf(est.value) - ref) <= 1e-13 * ref

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 8),
           lam1=st.floats(0.5, 2.0), ratio=st.floats(1.5, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_chain_isolates_every_sign_change(self, seed, n, lam1, ratio):
        lam = make_geometric(lam1, ratio, n).values
        c = np.random.default_rng(seed).standard_normal(n)
        roots = np.array(lp._roots(c.tolist(), lam.tolist()))
        assert np.all((roots > 0.0) & (roots < 1.0))
        assert np.all(np.diff(roots) > 0.0)
        assert roots.size <= np.count_nonzero(np.diff(np.signbit(c)))

        def signs(t):
            """Sign of f at t, 0 where |f| is within its rounding."""
            terms = c * np.exp(np.outer(np.log1p(-t), lam))
            value = terms.sum(axis=1)
            size = np.abs(terms).sum(axis=1)
            return np.where(np.abs(value) > 1e-13 * size, np.sign(value), 0.0)

        # a grid dense toward both ends plus the midpoints between roots,
        # each point away from the roots by more than their 1e-15 bracket
        ends = np.concatenate([[0.0], roots, [1.0]])
        grid = np.logspace(-14.0, math.log10(0.5), 3000)
        t = np.concatenate([grid, 1.0 - grid, 0.5 * (ends[:-1] + ends[1:])])
        piece = np.searchsorted(roots, t)
        sign = signs(t)
        clear = (sign != 0.0) & (t - ends[piece] > 1e-13) & (ends[piece + 1] - t > 1e-13)
        # no sign change between two roots, and one across every root
        seen = {}
        for k, v in zip(piece[clear], sign[clear]):
            assert seen.setdefault(k, v) == v
        assert all(seen[k] == -seen[k + 1] for k in seen if k + 1 in seen)


class TestInterpolationChecks:
    SEQ = make_geometric(2.0, 2.0, 6)
    ATOM = point_mass(0.5)
    SCALED = ScaledMeasure(2.0, lebesgue())
    # Lebesgue absent, present, and listed twice, each with an atomic
    # measure that has no certified constants
    BATTERIES = {
        "no-lebesgue": [SCALED, ATOM, _PLAN_MEASURES["piecewise"]],
        "lebesgue": [lebesgue(), ATOM, _PLAN_MEASURES["powertail"], SCALED],
        "lebesgue-twice": [lebesgue(), SCALED, lebesgue(), ATOM],
    }

    @staticmethod
    def _forbid_drawing(monkeypatch):
        def refuse(*args):
            raise AssertionError("drew samples")
        monkeypatch.setattr(lp, "_unit_draws", refuse)
        monkeypatch.setattr(lp._PowerIntegrals, "__init__", refuse)

    @pytest.mark.parametrize("name", sorted(BATTERIES))
    @pytest.mark.parametrize("p0, p1, ts", [
        (1.0, 2.0, (0.25, 0.5, 0.75)),
        (1.0, 3.0, (0.75, 0.3, 0.75)),      # p_t = 2 at t = 0.75, listed twice
    ])
    def test_each_report_equals_the_check_alone(self, name, p0, p1, ts):
        battery = self.BATTERIES[name]
        reports = interpolation_checks(self.SEQ, battery, p0, p1, ts, n=5,
                                       samples=9, seed=11)
        assert len(reports) == len(battery)
        for mu, row in zip(battery, reports):
            assert len(row) == len(ts)
            for t, rep in zip(ts, row):
                alone = interpolation_check(self.SEQ, mu, p0, p1, t, n=5,
                                            samples=9, seed=11)
                assert rep.inconclusive == (mu is self.ATOM)
                # repr compares every float bit for bit, NaN included
                assert repr(rep) == repr(alone)

    @pytest.mark.parametrize("p0, p1, ts", [
        (1.0, 2.0, (0.5, 1.0)), (1.0, 2.0, (0.0, 0.5)),
        (1.0, 2.0, (0.25, math.nan)), (2.0, 2.0, (0.5,)), (2.0, 1.0, (0.5,)),
    ])
    def test_bad_parameters_refused_before_drawing(self, monkeypatch, p0, p1,
                                                   ts):
        self._forbid_drawing(monkeypatch)
        with pytest.raises(InvalidParameterError):
            interpolation_checks(self.SEQ, [lebesgue()], p0, p1, ts, n=5,
                                 samples=4)

    def test_nothing_drawn_without_certified_constants(self, monkeypatch):
        self._forbid_drawing(monkeypatch)
        reports = interpolation_checks(
            self.SEQ, [self.ATOM, atomic([(0.3, 1.0), (0.9, 2.0)])], 1.0, 2.0,
            (0.25, 0.5), n=5, samples=4)
        assert [[rep.inconclusive for rep in row] for row in reports] \
            == [[True, True], [True, True]]
        assert all(rep.samples == 0 and rep.records == ()
                   for row in reports for rep in row)


class TestOnePlanPerMeasure:
    @staticmethod
    def _count_plans(monkeypatch):
        calls = []
        build = quadrature.QuadraturePlan.from_pieces.__func__
        monkeypatch.setattr(quadrature.QuadraturePlan, "from_pieces", classmethod(
            lambda cls, pieces: calls.append(len(pieces)) or build(cls, pieces)))
        return calls

    def test_interpolation_suite_builds_each_plan_once(self, monkeypatch):
        # the suite behind ``check interpolation --instances 2``: nine checks
        # on three measures, each with a Lebesgue denominator
        calls = self._count_plans(monkeypatch)
        assert suites.interpolation_suite(samples=2, seed=20240902).ok
        assert len(calls) <= 3

    def test_interpolation_suite_shares_one_draw(self, monkeypatch):
        # nine checks on one draw: its roots once, one basis on the three
        # measures' shared cells (Lebesgue's also serve every denominator),
        # and at each of the 3 p_t one evaluation for every measure
        calls = {"roots": 0, "bases": 0, "norms": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lp, "_row_roots", counted("roots", lp._row_roots))
        monkeypatch.setattr(lp._PowerIntegrals, "__init__",
                            counted("bases", lp._PowerIntegrals.__init__))
        monkeypatch.setattr(lp._PowerIntegrals, "norms",
                            counted("norms", lp._PowerIntegrals.norms))
        suite = suites.interpolation_suite(samples=6)
        assert calls == {"roots": 1, "bases": 1, "norms": 3}
        # each check reads as it does alone, bit for bit
        for name, mu in (("lebesgue", lebesgue()),
                         ("piecewise", _PLAN_MEASURES["piecewise"])):
            for t in (0.25, 0.5, 0.75):
                alone = interpolation_check(
                    make_geometric(2.0, 2.0, 6), mu, 1.0, 2.0, t, n=5,
                    samples=6, seed=20240902)
                assert suite.details["records"][f"{name}@t={t:g}"] == alone.records

    def test_inequality_suite_builds_each_plan_once(self, monkeypatch):
        # ``check inequalities --instances 4``: per instance one random
        # measure and its majorant, each integrated once
        calls = self._count_plans(monkeypatch)
        assert suites.inequality_suite(instances=4, seed=20240901).ok
        assert len(calls) <= 2 * 4

    def test_lebesgue_shared_and_plan_read_only(self):
        assert lebesgue() is lebesgue()
        plan = lebesgue().plan
        assert lebesgue().plan is plan
        for name in ("lo", "hi", "nodes", "weights", "piece", "edge_cell"):
            with pytest.raises(ValueError):
                getattr(plan, name)[0] = 0

    def test_repeated_norms_identical(self):
        seq = make_geometric(0.7, 1.8, 5)
        f = MuntzPolynomial(seq, np.random.default_rng(5).standard_normal(5))
        makers = (
            lambda: PiecewiseDensityMeasure(np.array([0.0, 1.0]), np.array([1.0])),
            lambda: PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                            np.array([0.5, 2.0])),
            lambda: PowerTailMeasure(1.0, 2.0, 0.3),
            lambda: ScaledMeasure(2.0, lebesgue()))
        for make in makers:
            mu = make()
            for p in (1.0, 4.0 / 3.0, 3.0):
                first = lp_norm(f, p, mu)
                assert lp_norm(f, p, mu) == first        # on the kept plan
                assert lp_norm(f, p, make()) == first    # on a plan built anew
        assert lp_norm(f, 3.0, lebesgue()) == lp_norm(f, 3.0, makers[0]())


_JOINT_MEASURES = (
    lebesgue(),
    ScaledMeasure(2.0, lebesgue()),
    PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]), np.array([0.5, 2.0])),
    PowerTailMeasure(1.0, 2.0),
)


def _rows_with_roots(seq, count):
    rng = np.random.default_rng(31)
    rows = []
    while len(rows) < count:
        row = rng.standard_normal(len(seq))
        if MuntzPolynomial(seq, row).roots.size:
            rows.append(row)
    return np.array(rows)


class TestSharedCells:
    @pytest.mark.parametrize("rows", [1, 2, 4, 64])
    def test_joint_norms_equal_one_measure_norms(self, rows):
        # the piecewise plan shares most of its cells with the other three,
        # which share one node array: each measure reads its own cells of
        # one |f|^p, bit for bit as if integrated alone
        seq = make_geometric(0.7, 1.8, 5)
        coeffs = _rows_with_roots(seq, rows)
        roots = lp._row_roots(coeffs, seq.values)
        joint = lp._PowerIntegrals(_JOINT_MEASURES, seq.values)
        assert joint.nodes.shape[0] < sum(mu.plan.cells for mu in _JOINT_MEASURES)
        for p in (1.0, 4.0 / 3.0, 3.0):
            together = joint.norms(coeffs, p, roots)
            for mu, estimates in zip(_JOINT_MEASURES, together):
                assert estimates == lp_norms(seq, coeffs, p, mu)
                assert estimates[-1] == lp_norm(
                    MuntzPolynomial(seq, coeffs[-1]), p, mu)

    def test_one_piece_layout_shares_nodes(self):
        scaled = ScaledMeasure(2.0, lebesgue())
        tail = PowerTailMeasure(1.0, 2.0)
        flat = PiecewiseDensityMeasure(np.array([0.0, 1.0]), np.array([3.0]))
        assert scaled.plan.nodes is tail.plan.nodes is flat.plan.nodes
        np.testing.assert_array_equal(scaled.plan.weights,
                                      2.0 * lebesgue().plan.weights)
        np.testing.assert_array_equal(flat.plan.weights,
                                      3.0 * lebesgue().plan.weights)
        assert not np.array_equal(tail.plan.weights, scaled.plan.weights)

    def test_layout_memo_is_bounded(self):
        bound = quadrature._plan_cells.cache_info().maxsize
        for k in range(50):
            mid = 0.1 + 0.8 * k / 50
            PiecewiseDensityMeasure(np.array([0.0, mid, 1.0]),
                                    np.array([1.0, 2.0])).plan
        assert quadrature._plan_cells.cache_info().currsize <= bound <= 8

    def test_lp_norm_reads_the_kept_roots(self, monkeypatch):
        seq = make_geometric(0.7, 1.8, 5)
        f = MuntzPolynomial(seq, _rows_with_roots(seq, 1)[0])
        assert f.roots is f.roots
        calls = []
        for module, name in ((polynomials, "_roots"), (lp, "_row_roots")):
            monkeypatch.setattr(module, name, lambda *args, fn=getattr(
                module, name): calls.append(1) or fn(*args))
        for mu in _JOINT_MEASURES:
            lp_norm(f, 3.0, mu)
        assert calls == []
