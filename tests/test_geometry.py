import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from muntzlab import (InvalidParameterError, MuntzPolynomial, PsiEvaluator,
                      UndefinedRatioError, bernstein_ratio, big_psi,
                      distances, lebesgue_gram, make_explicit,
                      make_geometric, make_power,
                      pointwise_bound_check, psi_a_eval, random_unit,
                      scaled_distance)
from muntzlab.geometry import (_PROBE_LOG_X, EXP_FLOOR, PSI_K_MAX,
                               PSI_TAIL_RTOL)
from muntzlab.highprec import distance_oracle


class TestGram:
    def test_two_exponents_closed_form(self):
        # sqrt(lambda_n lambda_m) / (lambda_n + lambda_m + 1)
        g = lebesgue_gram(make_explicit([1.0, 2.0]))
        np.testing.assert_allclose(
            g, [[1 / 3, math.sqrt(2.0) / 4], [math.sqrt(2.0) / 4, 2 / 5]],
            rtol=1e-15)

    def test_normalized_single(self):
        g = lebesgue_gram(make_explicit([1.0]))
        np.testing.assert_allclose(g, [[1 / 3]])

    def test_entry_indexing_closed_form(self):
        g = lebesgue_gram(make_explicit([2.0, 4.0, 8.0]))
        assert g[0, 2] == pytest.approx(4.0 / 11, rel=1e-15)
        assert g[2, 0] == g[0, 2]

    def test_positive_definite(self):
        g = lebesgue_gram(make_geometric(2.0, 2.0, 10))
        assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(InvalidParameterError):
            lebesgue_gram(make_explicit([1.0, 1.0]))

    def test_huge_exponents_do_not_overflow(self):
        # lambda_n lambda_m overflows past ~1.3e154; sqrt(lambda_n) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = lebesgue_gram(make_geometric(1e200, 2.0, 8))
        assert np.isfinite(g).all()
        np.testing.assert_allclose(np.diag(g), 0.5, rtol=1e-15, atol=0.0)


class TestDistances:
    def test_single_exponent(self):
        t = distances(make_explicit([1.0]))
        assert t.d[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    def test_two_exponents_projection(self):
        # dist(x, span{x^2})^2 = 1/3 - (1/4)^2/(1/5) = 1/48
        t = distances(make_explicit([1.0, 2.0]))
        assert t.d[0] == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-14)
        assert t.d[0] == pytest.approx(math.sqrt(1.0 / 48.0), rel=1e-14)

    def test_oracle_battery(self):
        # product formula vs >=160-bit determinant-ratio oracle, N <= 12,
        # exponents <= 1e3
        rng = np.random.default_rng(42)
        for _ in range(25):
            size = int(rng.integers(2, 13))
            lams = np.sort(rng.uniform(0.05, 1000.0, size=size))
            while np.min(np.diff(lams)) < 1e-3:
                lams = np.sort(rng.uniform(0.05, 1000.0, size=size))
            table = distances(make_explicit(lams))
            n = int(rng.integers(1, size + 1))
            oracle = distance_oracle(lams, n, prec_bits=200)
            assert table.d[n - 1] == pytest.approx(oracle, rel=1e-8)

    def test_monotone_in_truncation(self):
        seq = make_power(2.0, 10)
        for n in range(2, 10):
            d_small = distances(seq.truncate(n)).d
            d_large = distances(seq.truncate(n + 1)).d
            assert np.all(d_large[:n] <= d_small + 1e-15)

    def test_distance_below_norm(self):
        t = distances(make_geometric(2.0, 2.0, 12))
        norms = 1.0 / np.sqrt(2.0 * t.lambdas + 1.0)
        assert np.all(t.d <= norms + 1e-15)

    def test_csv_export(self, tmp_path):
        t = distances(make_geometric(2.0, 2.0, 4))
        path = tmp_path / "distances.csv"
        t.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n,lambda_n,d_n,gamma_n"
        assert len(rows) == 5


class TestScaledDistance:
    def test_formula(self):
        t = distances(make_explicit([1.0]))
        assert scaled_distance(t, 0.25, 1) == pytest.approx(
            0.25 ** 1.5 / math.sqrt(3.0), rel=1e-14)

    def test_limit_a_to_one(self):
        t = distances(make_geometric(2.0, 2.0, 5))
        for n in range(1, 6):
            assert scaled_distance(t, 1.0 - 1e-12, n) == pytest.approx(
                t.d[n - 1], rel=1e-9)

    def test_scaling_identity(self):
        t = distances(make_geometric(2.0, 2.0, 5))
        for a in (0.1, 0.5, 0.9):
            for n in (1, 3, 5):
                ratio = (scaled_distance(t, a, n) / t.d[n - 1]) ** 2
                assert ratio == pytest.approx(a ** (2 * t.lambdas[n - 1] + 1),
                                              rel=1e-13)

    def test_domain(self):
        t = distances(make_explicit([1.0]))
        with pytest.raises(InvalidParameterError):
            scaled_distance(t, 1.0, 1)


class TestPsi:
    def test_single_term(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0]))
        v = psi.eval(0.5)
        assert v.value == pytest.approx(math.sqrt(3.0) * 0.5, rel=1e-14)
        v1 = psi.eval(0.7, 1)
        assert v1.value == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_monotone_and_convex(self):
        for seq in (make_geometric(2.0, 2.0, 20), make_power(2.0, 12)):
            psi = PsiEvaluator.from_sequence(seq)
            xs = np.linspace(0.01, 0.95, 40)
            vals = np.array([psi.eval(x).value for x in xs])
            assert np.all(np.diff(vals) > 0.0)
            assert np.all(np.diff(vals, 2) > -1e-9 * vals.max())

    def test_lacunary_growth_window(self):
        # psi(x) * sqrt(1-x) stays within a fixed window on [0.5, 0.999]
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 30))
        xs = np.linspace(0.5, 0.999, 60)
        vals = np.array([psi.eval(x).value * math.sqrt(1.0 - x)
                         for x in xs])
        assert vals.max() / vals.min() < 25.0

    def test_tail_flag_near_one(self):
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 10))
        assert psi.eval(0.5).tail_sound
        assert not psi.eval(1.0 - 1e-9).tail_sound

    def test_domain_error(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0]))
        with pytest.raises(InvalidParameterError):
            psi.eval(1.0)

    def test_derivatives_up_to_k_max(self):
        # integer exponents below k zero out via the falling factorial;
        # fractional ones contribute signed terms
        psi = PsiEvaluator.from_sequence(make_explicit([2.0, 2.5, 8.0, 16.0]))
        for k in range(5):
            assert math.isfinite(psi.eval(0.5, k).value)
        with pytest.raises(InvalidParameterError):
            psi.eval(0.5, 5)

    @pytest.mark.parametrize("k, expected", [(0, 0.0), (1, None), (2, 0.0),
                                             (3, "6/d_2"), (4, 0.0)])
    def test_at_zero_dead_terms_do_not_count(self, k, expected):
        # lambda = (1, 3): psi^(k)(0) is the constant term (lambda_n)_k / d_n
        # where lambda_n = k; a term whose falling factorial is 0 (an integer
        # lambda_n < k) is no term, whatever its exponent lambda_n - k
        seq = make_explicit([1.0, 3.0])
        psi = PsiEvaluator.from_sequence(seq)
        value = psi.eval(0.0, k)
        d = distances(seq).d
        want = {None: 1.0 / d[0], "6/d_2": 6.0 / d[1]}.get(expected, expected)
        assert value.value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert value.tail_sound

    @pytest.mark.parametrize("k, expected", [(1, math.inf), (2, -math.inf),
                                             (3, math.inf)])
    def test_at_zero_live_negative_exponent_is_infinite(self, k, expected):
        # lambda = 0.5 < k: the term 0.5 (0.5 - 1).. x^(0.5 - k) blows up at
        # 0 with the sign of its falling factorial
        psi = PsiEvaluator.from_sequence(make_explicit([0.5]))
        assert psi.eval(0.0, k).value == expected

    def test_fourth_derivative_against_finite_differences(self):
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 8))
        x, h = 0.6, 1e-3
        stencil = [1.0, -4.0, 6.0, -4.0, 1.0]
        fd = sum(c * psi.eval(x + (i - 2) * h).value
                 for i, c in enumerate(stencil)) / h ** 4
        # central-difference truncation error is O(h^2) on this scale
        assert psi.eval(x, 4).value == pytest.approx(fd, rel=1e-3)

    def test_vectorized_matches_scalar(self):
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 12))
        xs = np.linspace(0.05, 0.95, 17)
        for k in (0, 1, 2):
            log_abs, sign, sound = psi.eval_many(np.log(xs), k)
            for x, v, s in zip(xs, sign * np.exp(log_abs), sound):
                ref = psi.eval(float(x), k)
                assert v == pytest.approx(ref.value, rel=1e-13)
                assert bool(s) == ref.tail_sound

    def test_psi_a(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0]))
        v = psi_a_eval(psi, 0.5, 0.25)
        assert v.value == pytest.approx(math.sqrt(6.0) / 2.0, rel=1e-14)
        # a = 1 reduces to psi itself
        assert psi_a_eval(psi, 1.0, 0.3).value == pytest.approx(
            psi.eval(0.3).value)

    def test_psi_a_scaling_identity(self):
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 8))
        for a in (0.3, 0.7):
            for x in (0.1, 0.25):
                lhs = psi_a_eval(psi, a, a * x).value
                rhs = psi.eval(x).value / math.sqrt(a)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_psi_a_domain(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0]))
        with pytest.raises(InvalidParameterError):
            psi_a_eval(psi, 0.5, 0.5)

    def test_big_psi_single(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0]))
        assert big_psi(psi, 1.0 / 16.0).value == pytest.approx(1.5, rel=1e-13)

    def test_big_psi_increasing(self):
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 12))
        xs = np.linspace(0.05, 0.9, 25)
        vals = [big_psi(psi, x).value for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_big_psi_divergent_trend_near_one(self):
        vals = []
        for count in (10, 20, 30):
            psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, count))
            vals.append(big_psi(psi, 1.0 - 1e-9).value)
        assert vals[0] < vals[1] < vals[2]

    def test_coefficient_bound(self):
        # |alpha_n| <= d_n^-1 ||p||_2 with the L2 norm from the raw Gramian
        seq = make_geometric(2.0, 2.0, 6)
        table = distances(seq)
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_unit(seq, rng)
            norm = f.l2_norm_lebesgue()
            for n in range(6):
                assert abs(f.coefficients[n]) <= norm / table.d[n] + 1e-9

    def test_pointwise_derivative_bound(self):
        # |p^(k)(x)| <= psi^(k)(x) for ||p||_2 = 1 and k in {0, 1, 2}, on the
        # tail-sound region; the second derivative comes from the term sum
        seq = make_geometric(2.0, 2.0, 8)
        lam = seq.values
        psi = PsiEvaluator.from_sequence(seq)
        rng = np.random.default_rng(11)
        xs = np.linspace(0.05, 0.9, 18)

        def second_derivative(poly, x):
            return float(np.sum(poly.coefficients * lam * (lam - 1.0)
                                * x ** (lam - 2.0)))

        for _ in range(20):
            f = random_unit(seq, rng)
            unit = MuntzPolynomial(seq, f.coefficients / f.l2_norm_lebesgue())
            for x in xs:
                bound0 = psi.eval(float(x), 0)
                if bound0.tail_sound:
                    assert abs(unit(float(x))) <= bound0.value + 1e-9
                bound1 = psi.eval(float(x), 1)
                if bound1.tail_sound:
                    assert abs(unit.derivative(float(x))) <= bound1.value + 1e-9
                bound2 = psi.eval(float(x), 2)
                if bound2.tail_sound:
                    assert abs(second_derivative(unit, float(x))) <= \
                        bound2.value + 1e-9


def _one_probe_width(psi, big):
    """t* bisected one probe per log_majorant call: an oracle of the width
    read from one evaluation over every probe."""
    sound, first_unsound = -1, 1075
    while first_unsound - sound > 1:
        j = (sound + first_unsound) // 2
        log_x = math.log1p(-min(2.0 ** -j, 1.0 - 1e-16))
        if psi.log_majorant(log_x, big)[1][0]:
            sound = j
        else:
            first_unsound = j
    return 0.0 if first_unsound == 1075 else min(2.0 ** (1 - first_unsound), 1.0)


class TestBlockedBisection:
    def test_sound_at_every_probe_gives_width_zero(self):
        # psi(x) = x + e^-40 x^2: the last term is below e^-40 < 1e-12 of the
        # sum at every x in (0, 1), so no probe is tail-unsound
        psi = PsiEvaluator(lambdas=np.array([1.0, 2.0]),
                           log_inv_d=np.array([0.0, -40.0]))
        assert psi.log_majorant(_PROBE_LOG_X)[1].all()
        assert psi.unsound_width == 0.0 == _one_probe_width(psi, False)

    @pytest.mark.parametrize("big", [False, True])
    def test_width_matches_one_probe_bisection(self, big, monkeypatch):
        log_majorant = PsiEvaluator.log_majorant
        calls = []

        def counted(self, log_x, big=False):
            calls.append(np.size(log_x))
            return log_majorant(self, log_x, big)

        rng = np.random.default_rng(17)
        widths = set()
        for size in range(1, 41):
            seq = make_geometric(float(rng.uniform(0.1, 5.0)),
                                 float(rng.uniform(1.05, 4.0)), size)
            psi = PsiEvaluator.from_sequence(seq)
            expected = _one_probe_width(psi, big)
            calls.clear()
            monkeypatch.setattr(PsiEvaluator, "log_majorant", counted)
            width = psi._unsound_width(big)
            monkeypatch.setattr(PsiEvaluator, "log_majorant", log_majorant)
            assert width == expected
            # one call over all 1075 probes
            assert calls == [1075]
            widths.add(expected)
        assert len(widths) >= 4


# The evaluator before the shared kernel, kept as its oracle: term logs and
# signs rebuilt on every call, every term exponentiated on the array path,
# scipy's signed logsumexp on the scalar path.

def _old_term_logs(psi, k):
    lam = psi.lambdas
    factors = lam[:, None] - np.arange(k)[None, :]
    if k == 0:
        return psi.log_inv_d + np.zeros_like(lam), np.ones_like(lam)
    signs = np.prod(np.sign(factors), axis=1)
    with np.errstate(divide="ignore"):
        log_ff = np.sum(np.log(np.abs(factors)), axis=1)
    return psi.log_inv_d + log_ff, signs


def _old_eval_many(psi, log_x, k):
    log_x = np.asarray(log_x, dtype=float)
    base, signs = _old_term_logs(psi, k)
    term_logs = base[:, None] + np.outer(psi.lambdas - k, log_x)
    m = term_logs.max(axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    vals = np.einsum("i,ij->j", signs, np.exp(term_logs - m[None, :]))
    sound = term_logs[-1] <= m + np.log(np.abs(vals) + 1e-300) + math.log(PSI_TAIL_RTOL)
    with np.errstate(divide="ignore"):
        return m + np.log(np.abs(vals)), np.sign(vals), sound


def _old_log_eval(psi, log_x, k):
    base, signs = _old_term_logs(psi, k)
    term_logs = base + (psi.lambdas - k) * log_x
    log_abs, sign = logsumexp(term_logs, b=signs, return_sign=True)
    return (float(log_abs), float(sign),
            bool(term_logs[-1] <= log_abs + math.log(PSI_TAIL_RTOL)))


def _kernel_evaluators():
    """Evaluators for N = 1..32 from distances, plus hand-made weights over
    exponents with lambda_1 = 0 and integers below k (zeroed terms)."""
    rng = np.random.default_rng(3)
    out = []
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        for lambda1, ratio in ((0.25, 3.0), (0.5, 2.0), (2.0, 1.5)):
            out.append(PsiEvaluator.from_sequence(make_geometric(lambda1, ratio, n)))
        out.append(PsiEvaluator.from_sequence(make_power(2.0, n)))
    for lam in ([0.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.5, 3.0, 7.0, 40.0],
                [1.0, 1.5, 2.0, 4.0, 9.0]):
        lam = np.array(lam)
        out.append(PsiEvaluator(lambdas=lam,
                                log_inv_d=rng.uniform(-3.0, 8.0, lam.size)))
    return out


LOG_X = -np.concatenate([np.logspace(-17, np.log10(800.0), 61), [1e-3, 0.7, 5.0]])


def _in_range(psi, k, log_x=LOG_X):
    """The log x where no term of order k exceeds the double range (terms
    with lambda < k blow up as x -> 0)."""
    base, _ = _old_term_logs(psi, k)
    return log_x[(base[:, None] + np.outer(psi.lambdas - k, log_x)).max(axis=0) < 700.0]


class TestPsiKernel:
    def test_eval_many_matches_old(self):
        underflowed = 0
        for psi in _kernel_evaluators():
            for k in range(PSI_K_MAX + 1):
                log_x = _in_range(psi, k)
                log_abs, sign, sound = psi.eval_many(log_x, k)
                ref, ref_sign, ref_sound = _old_eval_many(psi, log_x, k)
                # an absolute error of the logs is a relative one of psi^(k)
                np.testing.assert_allclose(log_abs, ref, rtol=0.0, atol=1e-14)
                np.testing.assert_array_equal(sign, ref_sign)
                np.testing.assert_array_equal(sound, ref_sound)
                underflowed += int(np.sum(log_abs < EXP_FLOOR))
        # the regime where whole lanes underflow in the linear domain is covered
        assert underflowed > 100

    def test_terms_below_floor_are_exact_zeros(self):
        # at log x = -800 every term but the largest sits far below EXP_FLOOR
        psi = PsiEvaluator.from_sequence(make_geometric(2.0, 2.0, 12))
        gaps = (psi.lambdas - psi.lambdas[0]) * -800.0
        assert np.sum(gaps < EXP_FLOOR) == 11
        log_abs, _, _ = psi.eval_many([-800.0, -1e-3], 0)
        ref, _, _ = _old_eval_many(psi, [-800.0, -1e-3], 0)
        assert np.array_equal(log_abs, ref)

    def test_log_eval_matches_old(self):
        for psi in _kernel_evaluators():
            for k in range(PSI_K_MAX + 1):
                base, signs = _old_term_logs(psi, k)
                for log_x, log_abs, sign, sound in zip(
                        LOG_X[::4], *psi.eval_many(LOG_X[::4], k)):
                    ref_abs, ref_sign, ref_sound = _old_log_eval(psi, log_x, k)
                    assert (sign, sound) == (ref_sign, ref_sound)
                    if ref_sign == 0.0:
                        assert log_abs == -math.inf
                        continue
                    # |sum| / sum |terms| bounds the relative conditioning
                    log_cond = logsumexp(base + (psi.lambdas - k) * log_x) - ref_abs
                    assert abs(log_abs - ref_abs) <= 1e-14 * math.exp(log_cond) \
                        * max(1.0, abs(ref_abs))

    def test_log_eval_against_mpmath_sign_changing(self):
        # fractional exponents below k make the falling factorials change sign
        # (lambda, log weights): the first two terms of the last case cancel
        # at x = 1/3 for k = 2, since 0.5 (0.5 - 1) x^-1.5 + 1.5 (0.5) x^-0.5
        # = 0.75 x^-1.5 (x - 1/3)
        cases = [(np.array([0.3, 1.4, 2.6, 3.7, 5.2, 8.1]), np.linspace(0.0, 4.0, 6)),
                 (make_geometric(0.5, 1.7, 10).values, np.linspace(0.0, 4.0, 10)),
                 (np.array([0.5, 1.5, 2.5, 3.5]), np.linspace(0.0, 4.0, 4)),
                 (np.array([0.5, 1.5, 30.0]), np.array([0.0, 0.0, -40.0]))]
        near_root = math.log(1.0 / 3.0)
        worst_cond = 0.0
        for lam, log_w in cases:
            psi = PsiEvaluator(lambdas=lam, log_inv_d=log_w)
            for k in (2, 3, 4):
                points = (-6.0, -1.0, -0.2, -0.01, -1e-4,
                          near_root + 1e-3, near_root - 1e-5)
                for log_x, log_abs, sign, _ in zip(points,
                                                   *psi.eval_many(points, k)):
                    with mp.workdps(40):
                        terms = []
                        for w, l in zip(log_w, lam):
                            ff = mp.fprod(mp.mpf(float(l)) - j for j in range(k))
                            terms.append(mp.exp(mp.mpf(float(w))) * ff
                                         * mp.exp((mp.mpf(float(l)) - k) * mp.mpf(log_x)))
                        exact = mp.fsum(terms)
                        scale = mp.fsum(abs(t) * (1 + abs(mp.log(abs(t))))
                                        for t in terms if t != 0)
                        got = sign * mp.exp(mp.mpf(log_abs))
                        assert abs(got - exact) <= 16 * 2.0 ** -52 * scale
                        worst_cond = max(worst_cond,
                                         float(mp.fsum(abs(t) for t in terms) / abs(exact)))
        assert worst_cond > 1e4

    def test_order_validation(self):
        psi = PsiEvaluator.from_sequence(make_explicit([1.0, 2.0]))
        with pytest.raises(InvalidParameterError):
            psi.eval_many([-0.5], 5)
        with pytest.raises(InvalidParameterError):
            psi.eval_many([-0.5], -1)


def _two_order_majorant(psi, log_x):
    """log Psi and its tail flag from one eval_many call per order, as
    log_majorant built them before the orders shared one term array."""
    quarter = 0.25 * np.asarray(log_x, dtype=float)
    log_d1, _, sound_d1 = psi.eval_many(quarter, 1)
    log_d0, _, sound_d0 = psi.eval_many(quarter, 0)
    return log_d1 + log_d0, sound_d1 & sound_d0


def _fused_cases():
    """(evaluator, whether its Psi takes the one-array path): lambda_1 = 0,
    lambda_1 < 1, N = 1, and ratio 2.3 at N = 32 (lambda_32 = 1.0e12)."""
    rng = np.random.default_rng(21)
    zero_first = [PsiEvaluator(lambdas=np.array(lam),
                               log_inv_d=rng.uniform(-3.0, 8.0, len(lam)))
                  for lam in ([0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 20.0], [0.0])]
    return ([(psi, False) for psi in zero_first]
            + [(make_geometric(0.25, 3.0, 12).psi, True),
               (make_geometric(0.6, 1.7, 6).psi, True),
               (make_explicit([0.7]).psi, True),
               (make_geometric(2.0, 2.0, 1).psi, True),
               (make_geometric(6.15, 2.3, 32).psi, True)])


class TestFusedMajorant:
    """log Psi from one array of order-0 terms against one eval_many call
    per order."""

    LOG_X = np.concatenate([
        _PROBE_LOG_X,
        -10.0 ** np.random.default_rng(5).uniform(-17.0, math.log10(745.0), 400),
        np.random.default_rng(6).uniform(-745.0, 0.0, 100)])

    def test_matches_two_orders(self, monkeypatch):
        scaled_terms = PsiEvaluator._scaled_terms
        calls = []

        def counted(self, log_x, k):
            calls.append(k)
            return scaled_terms(self, log_x, k)

        assert make_geometric(6.15, 2.3, 32).values[-1] == pytest.approx(1e12, rel=0.01)
        flags = []
        for psi, fused in _fused_cases():
            calls.clear()
            monkeypatch.setattr(PsiEvaluator, "_scaled_terms", counted)
            got, sound = psi.log_majorant(self.LOG_X, big=True)
            monkeypatch.setattr(PsiEvaluator, "_scaled_terms", scaled_terms)
            assert calls == ([0] if fused else [1, 0])
            ref, ref_sound = _two_order_majorant(psi, self.LOG_X)
            # relative 1e-13 of log Psi, and of Psi itself where log Psi ~ 0
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
            np.testing.assert_array_equal(sound, ref_sound)
            flags.append(sound)
        # the flags compared are of both kinds
        flags = np.concatenate(flags)
        assert flags.any() and not flags.all()

    def test_zero_first_exponent_keeps_its_derivative(self):
        # lambda = (0, 10, 20) at log x = -400: the constant term holds the
        # order-0 scale while psi'(y) = 10 w_2 y^9 is e^-900 below it, so one
        # shared scale would lose psi' (every E_n of a live term underflows)
        psi = _fused_cases()[1][0]
        log_x = -400.0
        got = psi.log_majorant([log_x], big=True)[0][0]
        y_log = 0.25 * log_x
        exact = (math.log(10.0) + psi.log_inv_d[1] + 9.0 * y_log
                 + float(logsumexp(psi.log_inv_d + psi.lambdas * y_log)))
        assert got == pytest.approx(exact, rel=1e-14)


class TestInequalityCheckers:
    def test_single_monomial_pointwise(self):
        seq = make_explicit([2.0])
        f = MuntzPolynomial(seq, np.array([1.0]))
        res = pointwise_bound_check(f, 0.7, [1.0])
        assert res.holds

    def test_pointwise_at_zero(self):
        seq = make_geometric(2.0, 2.0, 4)
        f = MuntzPolynomial(seq, np.array([1.0, -0.5, 0.25, 0.1]))
        res = pointwise_bound_check(f, 0.0, np.full(4, 0.25))
        assert res.lhs == 0.0 and res.holds

    def test_pointwise_random(self):
        seq = make_geometric(2.0, 2.0, 5)
        rng = np.random.default_rng(3)
        for i in range(40):
            f = random_unit(seq, rng, bias_last=(i % 2 == 0))
            x = float(rng.uniform(0.0, 1.0))
            res = pointwise_bound_check(f, x, np.full(5, 0.2))
            assert res.holds

    def test_beta_validation(self):
        seq = make_explicit([1.0, 2.0])
        f = MuntzPolynomial(seq, np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            pointwise_bound_check(f, 0.5, [0.7, 0.7])

    def test_bernstein_identity_cases(self):
        f = MuntzPolynomial(make_explicit([1.0]), np.array([1.0]))
        assert bernstein_ratio(f) == pytest.approx(1.0, rel=1e-6)
        g = MuntzPolynomial(make_explicit([7.0]), np.array([2.0]))
        # sup|g'| = 7*2 at x=1, (sum lambda) sup|g| = 7*2
        assert bernstein_ratio(g) == pytest.approx(1.0, rel=1e-6)

    def test_bernstein_random_finite(self):
        seq = make_geometric(2.0, 2.0, 6)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            r = bernstein_ratio(random_unit(seq, rng))
            assert math.isfinite(r) and r > 0.0
            worst = max(worst, r)
        assert worst < 10.0

    def test_bernstein_zero_rejected(self):
        f = MuntzPolynomial(make_explicit([1.0]), np.array([0.0]))
        with pytest.raises(UndefinedRatioError):
            bernstein_ratio(f)
