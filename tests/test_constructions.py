import dataclasses
import math

import numpy as np
import pytest

from muntzlab import (ConstructionBugError, ConstructionError,
                      EmbeddingProblem, Example1Build, InvalidParameterError,
                      LambdaSequence, analyze, atomic_from_logs,
                      build_example1, build_example2, classify, find_blocks,
                      l1_unboundedness_witness, verify_example1,
                      verify_example2)
from muntzlab import constructions
from muntzlab.constructions import EXAMPLE1_C0
from muntzlab.logdomain import log_sum


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
        # alpha_2 = 3^-900 is 0 in double; alpha_3^2 = 4^-600 is below it
        for theta in (900.0, 300.0):
            with pytest.raises(InvalidParameterError, match="underflows"):
                build_example2(2000.0, 0.001, 3, theta=theta)


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


class TestLeadingBlocks:
    """The verifiers read n_max - 2 .. n_max as leading blocks of one
    assembly and factorization at n_max; the oracle is one analyze() per
    truncation, each assembling and factoring from scratch."""

    @pytest.mark.parametrize("n_max", [2, 5, 8, 10])
    def test_example1_op_norms(self, n_max):
        build = build_example1(n_max)
        report = verify_example1(build)
        assert [n for n, _ in report.op_norms] == list(
            range(max(2, n_max - 2), n_max + 1))
        for n, value in report.op_norms:
            alone = analyze(EmbeddingProblem(build.sequence, build.measure, n),
                            q_set=(2.0,)).op_norm
            assert value == pytest.approx(alone, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q, r, n_max", [(1.0, 0.5, 8), (3.0, 1.2, 6),
                                             (2.0, 0.9, 3), (1.5, 0.6, 1)])
    def test_example2_schatten_trends(self, q, r, n_max):
        build = build_example2(q, r, n_max)
        report = verify_example2(build)
        sizes = list(range(max(2, n_max - 2), n_max + 1))
        assert [n for n, _ in report.schatten_trend_q] == sizes
        for (n, s_q), (_, s_r) in zip(report.schatten_trend_q,
                                      report.schatten_trend_r):
            alone = analyze(EmbeddingProblem(build.sequence, build.measure, n),
                            q_set=(r, q)).schatten
            assert s_q == pytest.approx(alone[q], rel=1e-15, abs=0.0)
            assert s_r == pytest.approx(alone[r], rel=1e-15, abs=0.0)


class TestLadder:
    def test_ladder_spans_the_double_range(self):
        seen = []

        def never(lam):
            seen.append(lam)
            return {}, {"never": np.full(lam.shape, -1.0)}

        with pytest.raises(ConstructionError, match="lambda_2"):
            constructions._search(2, 16.0, never)
        assert [len(block) for block in seen][:1] == [constructions._FIRST_BLOCK]
        ladder = np.concatenate(seen)
        assert ladder[0] == 16.0 and np.all(ladder[1:] == 2.0 * ladder[:-1])
        assert np.finfo(float).max / 4.0 < ladder[-1] <= np.finfo(float).max / 2.0

    def test_short_ladder_is_one_block(self):
        seen = []

        def never(lam):
            seen.append(lam)
            return {}, {"never": np.full(lam.shape, -1.0)}

        with pytest.raises(ConstructionError, match="lambda_4"):
            constructions._search(4, 2.0 ** 1000, never)
        block, = seen
        assert len(block) == 23 and block[-1] == 2.0 ** 1022

    def test_first_holding_rung(self):
        lam, ledger = constructions._search(
            3, 2.0, lambda lam: ({"x": -lam}, {"big": lam - 100.0}))
        assert lam == 128.0 and ledger == {"x": -128.0}

    def test_rung_in_second_block_matches_whole_ladder(self):
        # a row-by-row step whose first passing rung is k = 90: the search
        # evaluates the first block and then the rest, and takes the rung and
        # ledger that one evaluation of the whole ladder gives
        def step(lam):
            log_lam = np.log(lam)
            ledger = {"log": log_lam, "scaled": lam / 3.0}
            slacks = {"big": log_lam - 90.5 * math.log(2.0),
                      "odd": np.cos(log_lam) + 0.9}
            return ledger, slacks

        sizes = []

        def counted(cand):
            sizes.append(cand.size)
            return step(cand)

        lam, ledger = constructions._search(5, 3.0, counted)
        whole = np.ldexp(3.0, np.arange(1024 - math.frexp(3.0)[1]))
        all_ledger, all_slacks = step(whole)
        k = int(np.argmax(np.all([v >= 0.0 for v in all_slacks.values()],
                                 axis=0)))
        assert k >= constructions._FIRST_BLOCK
        assert sizes == [constructions._FIRST_BLOCK,
                         whole.size - constructions._FIRST_BLOCK]
        assert lam == whole[k]
        assert ledger == {name: float(v[k]) for name, v in all_ledger.items()}

    @pytest.mark.parametrize("example, args", [
        (1, (12,)), (2, (1.0, 0.5, 10)), (2, (4.0, 0.25, 9, 0.3)),
        (2, (1.5, 1.2, 10, 0.8)), (2, (2.216131066116851, 0.8541889790767697, 8))])
    def test_builds_match_whole_ladder(self, example, args, monkeypatch):
        # the examples' evaluators compute each rung from its own row, so
        # the blocked search and one whole-ladder evaluation
        # (_FIRST_BLOCK = 0) build the same rows, bit for bit
        build = build_example1 if example == 1 else build_example2
        blocked = build(*args).rows
        monkeypatch.setattr(constructions, "_FIRST_BLOCK", 0)
        assert build(*args).rows[1:] == blocked[1:]


class TestBlocksOnConstructed:
    def test_example2_sequence_is_lacunary_blocks(self, ex2):
        build, _ = ex2
        block = find_blocks(build.sequence, 2.0)
        assert block.block_bound == 1


# ---------------------------------------------------------------------------
# oracle: the scalar doubling searches, one candidate and one (i, j) pair at
# a time, that the array evaluators replaced
# ---------------------------------------------------------------------------

def _oracle_example1(n_max):
    lams, log_a, rows = [1.0], [math.log(0.5)], []
    for n in range(2, n_max + 1):
        cand = max(n ** 4 * lams[-1], lams[-1] + 1.0)
        prev_log_a = np.array(log_a)
        while True:
            lhs_log = math.log(cand) + log_sum(cand * prev_log_a)
            if lhs_log <= -2.0 * math.log(n):
                break
            cand *= 2.0
        ln_n = math.log(n)
        lams.append(cand)
        log_a.append(math.log1p(-2.0 * ln_n / cand))
        rows.append({
            "lam": cand, "log_a": log_a[-1],
            "log_c": math.log(2.0) + 2.0 * ln_n + math.log(ln_n) - math.log(cand),
            "growth_ratio": cand / (n ** 4 * lams[-2]),
            "sum_condition_lhs": math.exp(lhs_log),
            "sum_condition_rhs": 1.0 / n ** 2,
            "window": math.exp(2.0 * ln_n + cand * log_a[-1])})
    return rows


def _oracle_example2_slacks(n, cand, lams, la_prev, lc_prev, log_alpha):
    def log_beta_sqrt(i, j):
        return -(i + j + 2.0) * math.log(2.0)

    log_cand = math.log(cand)
    la_n = log_alpha[n - 1]
    s_own = (2.0 * la_n - math.log(8.0)) - log_sum(
        lc_prev + log_cand + 2.0 * cand * la_prev)
    s_cross = s_pairs = s_single = math.inf
    for j in range(1, n):
        lhs = log_sum(lc_prev + 0.5 * (math.log(lams[j - 1]) + log_cand)
                      + (lams[j - 1] + cand) * la_prev)
        rhs = log_alpha[j - 1] + la_n + log_beta_sqrt(j, n) - math.log(4.0)
        s_cross = min(s_cross, rhs - lhs)
    for i in range(1, n):
        for j in range(1, n):
            lhs = (2.0 * la_n + 0.5 * (math.log(lams[i - 1]) + math.log(lams[j - 1]))
                   - log_cand)
            rhs = (-(n + 2.0 - max(i, j)) * math.log(2.0)
                   + log_alpha[i - 1] + log_alpha[j - 1] + log_beta_sqrt(i, j))
            s_pairs = min(s_pairs, rhs - lhs)
    for i in range(1, n):
        lhs = 2.0 * la_n + 0.5 * math.log(lams[i - 1]) - 0.5 * log_cand
        rhs = math.log(0.5) + log_alpha[i - 1] + la_n + log_beta_sqrt(i, n)
        s_single = min(s_single, rhs - lhs)
    return s_own, s_cross, s_pairs, s_single


def _oracle_example2(q, r, n_max, theta=None):
    theta = 0.5 * (1.0 / q + 1.0 / r) if theta is None else theta
    log_alpha = np.log([(n + 1.0) ** -theta for n in range(1, n_max + 1)])
    lams, log_a, log_c, rows = [1.0], [-0.5], [2.0 * log_alpha[0]], []
    for n in range(2, n_max + 1):
        cand = 2.0 * lams[-1]
        while True:
            slacks = _oracle_example2_slacks(n, cand, lams, np.array(log_a),
                                             np.array(log_c), log_alpha)
            if min(slacks) >= 0.0:
                break
            cand *= 2.0
        lams.append(cand)
        log_a.append(-0.5 / cand)
        log_c.append(2.0 * log_alpha[n - 1] - math.log(cand))
        rows.append(dict(zip(("slack_own_sum", "slack_cross",
                              "slack_ratio_pairs", "slack_ratio_single"), slacks),
                         lam=cand, log_a=log_a[-1], log_c=log_c[-1]))
    return rows


# (q, r, theta, n_max) of the eight construct2 ops of the construct-atomic
# benchmark
EXAMPLE2_POOL = [
    (1.0545989827396383, 0.3580351698491859, None, 7),
    (1.0911231578346925, 0.5427638133069155, None, 7),
    (2.873131194274693, 2.008884189799702, None, 4),
    (1.1874891549282092, 0.8201664935400127, None, 4),
    (2.883303011771946, 1.4809975417998336, None, 7),
    (2.216131066116851, 0.8541889790767697, None, 8),
    (1.4090629527421117, 0.8974260621981499, None, 4),
    (2.07450092984842, 0.6794058079162114, None, 8),
]
# (q, r, theta, n_max): default and off-midpoint theta, q and r far apart
# and close together, up to the n_max cap
EXAMPLE2_GRID = [
    (1.0, 0.5, None, 10), (1.0, 0.5, 1.9, 10), (4.0, 3.5, None, 10),
    (4.0, 0.25, 0.3, 9), (2.0, 0.1, 9.0, 6), (1.5, 1.2, 0.8, 10),
]


def _assert_rows_match(rows, oracle_rows):
    assert len(rows) == len(oracle_rows) + 1
    for row, expected in zip(rows[1:], oracle_rows):
        assert row.lam == expected["lam"]
        for name, value in expected.items():
            assert getattr(row, name) == pytest.approx(value, rel=1e-14, abs=0.0), \
                (row.n, name)


def _assert_check_catches_tampering(build, check, fields):
    # the check runs the build's own evaluator: exact agreement at tol 0,
    # and a 1e-9 relative change of any checked field in any row raises (a
    # sum condition that underflowed to 0 is changed to 1e-300)
    check(build, 0.0)
    for i in range(1, build.n_max):
        for field in fields:
            rows = list(build.rows)
            value = getattr(rows[i], field)
            tampered = value * (1.0 + 1e-9) if value else 1e-300
            rows[i] = dataclasses.replace(rows[i], **{field: tampered})
            with pytest.raises(ConstructionBugError, match=field):
                check(dataclasses.replace(build, rows=tuple(rows)), 1e-12)


class TestOracle:
    @pytest.mark.parametrize("n_max", range(2, 13))
    def test_example1_matches_scalar_search(self, n_max):
        build = build_example1(n_max)
        _assert_rows_match(build.rows, _oracle_example1(n_max))
        _assert_check_catches_tampering(
            build, constructions._check_ledger,
            ("lam", "growth_ratio", "sum_condition_lhs", "sum_condition_rhs",
             "window"))

    @pytest.mark.parametrize("q, r, theta, n_max", EXAMPLE2_POOL + EXAMPLE2_GRID)
    def test_example2_matches_scalar_search(self, q, r, theta, n_max):
        build = build_example2(q, r, n_max, theta=theta)
        _assert_rows_match(build.rows, _oracle_example2(q, r, n_max, theta))
        _assert_check_catches_tampering(
            build, constructions._check_ledger,
            ("lam", "slack_own_sum", "slack_cross", "slack_ratio_pairs",
             "slack_ratio_single"))
