import dataclasses
import math

import numpy as np
import pytest

from muntzlab import (ConstructionBugError, Example1Build,
                      InvalidParameterError, LambdaSequence, atomic_from_logs,
                      build_example1, build_example2, classify, find_blocks,
                      l1_unboundedness_witness, verify_example1,
                      verify_example2)
from muntzlab.constructions import EXAMPLE1_C0


@pytest.fixture(scope="module")
def ex1():
    build = build_example1(8)
    return build, verify_example1(build)


@pytest.fixture(scope="module")
def ex2():
    build = build_example2(1.0, 0.5, 8)
    return build, verify_example2(build)


class TestExample1Build:
    def test_seed_row(self, ex1):
        build, _ = ex1
        row = build.rows[0]
        assert (row.lam, math.exp(row.log_a), math.exp(row.log_c)) == \
            (1.0, 0.5, 1.0)

    def test_growth_condition(self, ex1):
        build, _ = ex1
        lams = build.sequence.values
        for n in range(2, 9):
            assert lams[n - 1] >= n ** 4 * lams[n - 2]
        # paper indexing: lambda_{n+1} >= n^4 lambda_n follows
        for n in range(1, 8):
            assert lams[n] >= n ** 4 * lams[n - 1]

    def test_sum_condition_recorded(self, ex1):
        build, _ = ex1
        for row in build.rows[1:]:
            assert row.sum_condition_lhs <= row.sum_condition_rhs

    def test_window(self, ex1):
        # n^2 a_n^lambda_n stays within [1/2, 2]
        build, _ = ex1
        for row in build.rows[1:]:
            assert 0.5 <= row.window <= 2.0

    def test_lacunary(self, ex1):
        build, _ = ex1
        assert classify(build.sequence).min_ratio >= 2.0 ** 4

    def test_measure_mass_finite(self, ex1):
        build, _ = ex1
        mass = build.measure.total_mass
        assert 0.0 < mass < math.inf
        # c_n decays fast: the tail beyond c_2 is small
        weights = build.measure.weights
        assert weights[0] == pytest.approx(1.0)
        assert np.all(np.diff(weights[1:]) < 0.0)

    def test_determinism(self):
        a = build_example1(5)
        b = build_example1(5)
        np.testing.assert_array_equal(a.sequence.values, b.sequence.values)
        np.testing.assert_array_equal(a.measure.log_positions,
                                      b.measure.log_positions)

    def test_n_max_validation(self):
        with pytest.raises(InvalidParameterError):
            build_example1(1)
        with pytest.raises(InvalidParameterError):
            build_example1(40)


class TestExample1Verify:
    def test_witness_ratio_window(self, ex1):
        _, report = ex1
        # own-term / ln n in [0.5, 2] for n = 3..8 (indices 2.. of the array)
        assert np.all(report.witness_ratios[1:] >= 0.5)
        assert np.all(report.witness_ratios[1:] <= 2.0)

    def test_l1_witnesses_increase(self, ex1):
        _, report = ex1
        assert report.witnesses_increasing
        assert report.l1_witnesses[-1] > 2.0 * report.l1_witnesses[0]

    def test_witnesses_dominate_own_terms(self, ex1):
        _, report = ex1
        assert np.all(report.l1_witnesses >= report.witness_lower_bounds - 1e-15)

    def test_op_norm_stability(self, ex1):
        _, report = ex1
        ops = [v for _, v in report.op_norms]
        assert max(ops) / min(ops) < 1.05

    def test_g_norm_bound(self, ex1):
        # the a-priori constant, derived from the defining formulas
        _, report = ex1
        for i in range(1, 8):
            n = i + 1
            assert report.g_norms_sq[i] <= \
                EXAMPLE1_C0 * math.log(n) / n ** 2 * (1.0 + 1e-12)
        assert report.c_fit <= report.c_bound == EXAMPLE1_C0

    def test_explicit_c_fit_too_small_raises(self, ex1):
        build, report = ex1
        with pytest.raises(ConstructionBugError):
            verify_example1(build, c_fit=report.c_fit / 2.0)

    def test_default_bound_rejects_non_summable_build(self, ex1):
        # a_n = 1 - ln n/lam_n, c_n = 2 n ln n/lam_n on the same exponents:
        # ||g_n||^2 ~ 2 ln n/n is not summable, though the L^1 witnesses
        # keep their window and still increase
        build, _ = ex1
        lams = build.sequence.values
        ln_n = np.log(np.arange(2.0, build.n_max + 1.0))
        log_a = np.concatenate(([math.log(0.5)], np.log1p(-ln_n / lams[1:])))
        log_c = np.concatenate(
            ([0.0], math.log(2.0) + ln_n + np.log(ln_n) - np.log(lams[1:])))
        mutant = Example1Build(rows=build.rows, sequence=build.sequence,
                               measure=atomic_from_logs(log_a, log_c))
        with pytest.raises(ConstructionBugError, match=r"exceeds C ln n/n\^2"):
            verify_example1(mutant)
        # without the C0 clause the recomputed ledger window n^2 a_n^lam_n,
        # ~n for these atoms, rejects it
        with pytest.raises(ConstructionBugError, match="window"):
            verify_example1(mutant, c_fit=math.inf)
        g_sq = lams * np.exp(mutant.measure.log_moments(2.0 * lams))
        c_fit = max(g_sq[i] * (i + 1) ** 2 / math.log(i + 1)
                    for i in range(1, build.n_max))
        assert c_fit > EXAMPLE1_C0
        witnesses = [v for _, v in l1_unboundedness_witness(mutant.sequence,
                                                             mutant.measure)]
        assert np.all(np.diff(witnesses) > 0.0)

    @pytest.mark.parametrize("field", ["lam", "growth_ratio", "sum_condition_lhs",
                                       "window"])
    def test_tampered_row_raises(self, ex1, field):
        build, _ = ex1
        rows = list(build.rows)
        rows[2] = dataclasses.replace(rows[2], **{field: getattr(rows[2], field) * 1.01})
        with pytest.raises(ConstructionBugError, match=field):
            verify_example1(dataclasses.replace(build, rows=tuple(rows)))

    def test_tampered_exponent_breaks_growth(self, ex1):
        # lam_5 halved below 5^4 lam_4, in the row and the sequence alike
        build, _ = ex1
        lams = np.array(build.sequence.values)
        lams[4] = 0.5 * 5 ** 4 * lams[3]
        rows = list(build.rows)
        rows[4] = dataclasses.replace(rows[4], lam=lams[4])
        tampered = dataclasses.replace(build, rows=tuple(rows),
                                       sequence=LambdaSequence(lams))
        with pytest.raises(ConstructionBugError, match="growth ratio") as exc:
            verify_example1(tampered, c_fit=math.inf)
        assert exc.value.n == 5


class TestExample2Build:
    def test_theta_default(self, ex2):
        build, _ = ex2
        assert build.theta == pytest.approx(1.5)
        assert build.r * build.theta <= 1.0 < build.q * build.theta

    def test_alpha_properties(self, ex2):
        build, _ = ex2
        assert np.all(np.abs(build.alphas) < 1.0)
        assert np.all(np.diff(build.alphas) < 0.0)

    def test_lacunary_ratio_two(self, ex2):
        build, _ = ex2
        assert classify(build.sequence).min_ratio >= 2.0

    def test_atoms(self, ex2):
        build, _ = ex2
        lams = build.sequence.values
        # a_n = exp(-1/(2 lambda_n)) and c_n = alpha_n^2/lambda_n
        np.testing.assert_allclose(build.measure.log_positions,
                                   -0.5 / lams, rtol=1e-15)
        np.testing.assert_allclose(
            np.exp(build.measure.log_weights) * lams, build.alphas ** 2,
            rtol=1e-12)

    def test_a_2lambda_is_inv_e(self, ex2):
        build, _ = ex2
        lams = build.sequence.values
        for lam, log_a in zip(lams, build.measure.log_positions):
            assert 2.0 * lam * log_a == pytest.approx(-1.0, rel=1e-15)

    def test_condition_slacks_nonnegative(self, ex2):
        build, _ = ex2
        for row in build.rows[1:]:
            assert min(row.slack_own_sum, row.slack_cross,
                       row.slack_ratio_pairs, row.slack_ratio_single) >= 0.0

    def test_determinism(self):
        a = build_example2(1.0, 0.5, 5)
        b = build_example2(1.0, 0.5, 5)
        np.testing.assert_array_equal(a.sequence.values, b.sequence.values)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            build_example2(0.5, 1.0, 5)
        with pytest.raises(InvalidParameterError):
            build_example2(1.0, 0.5, 5, theta=3.0)


class TestExample2Verify:
    @pytest.mark.parametrize("field", ["slack_own_sum", "slack_cross",
                                       "slack_ratio_pairs", "slack_ratio_single"])
    def test_tampered_row_raises(self, ex2, field):
        build, _ = ex2
        rows = list(build.rows)
        rows[3] = dataclasses.replace(rows[3], **{field: getattr(rows[3], field) + 0.5})
        with pytest.raises(ConstructionBugError, match=field):
            verify_example2(dataclasses.replace(build, rows=tuple(rows)))

    def test_halved_exponent_breaks_slacks(self, ex2):
        # lam_3 halved in the row and the sequence alike: the single-index
        # ratio condition alpha_3^2 sqrt(lam_i/lam_3) <= ... loses
        # ln(2)/2 > its slack
        build, _ = ex2
        lams = np.array(build.sequence.values)
        lams[2] *= 0.5
        rows = list(build.rows)
        rows[2] = dataclasses.replace(rows[2], lam=lams[2])
        tampered = dataclasses.replace(build, rows=tuple(rows),
                                       sequence=LambdaSequence(lams))
        with pytest.raises(ConstructionBugError,
                           match="slack_ratio_single .* is negative") as exc:
            verify_example2(tampered)
        assert exc.value.n == 3

    def test_two_sided_bounds(self, ex2):
        build, report = ex2
        assert np.all(report.norms_sq >= report.lower_bounds * (1 - 1e-12))
        assert np.all(report.norms_sq <= report.upper_bounds)

    def test_offdiag_below_e_quarter(self, ex2):
        _, report = ex2
        assert report.offdiag_hs_sq < math.e / 4.0
        assert report.offdiag_hs < math.sqrt(math.e) / 2.0
        assert report.gram_invertible

    def test_beta_sum(self, ex2):
        # truncation of the full double series, which sums to 1/144 < 1/4
        _, report = ex2
        assert report.beta_total < 0.25
        assert report.beta_total == pytest.approx(1.0 / 144.0, rel=1e-4)

    def test_lq_lr_dichotomy(self, ex2):
        # l^r partial sums keep growing markedly while l^q sums flatten
        _, report = ex2
        lq, lr = report.lq_partial_sums, report.lr_partial_sums
        q_growth = (lq[-1] - lq[-3]) / lq[-1]
        r_growth = (lr[-1] - lr[-3]) / lr[-1]
        assert r_growth > q_growth
        assert r_growth > 0.10

    def test_schatten_trends(self, ex2):
        # analyze() cross-check: S_q stabilizes faster than S_r
        _, report = ex2
        q_vals = [v for _, v in report.schatten_trend_q]
        r_vals = [v for _, v in report.schatten_trend_r]
        q_rel = (q_vals[-1] - q_vals[0]) / q_vals[-1]
        r_rel = (r_vals[-1] - r_vals[0]) / r_vals[-1]
        assert r_rel > 2.0 * q_rel


class TestBlocksOnConstructed:
    def test_example2_sequence_is_lacunary_blocks(self, ex2):
        build, _ = ex2
        block = find_blocks(build.sequence, 2.0)
        assert block.block_bound == 1
