import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from muntzlab import (EmbeddingProblem, IllConditionedBasisError,
                      InvalidParameterError, NumericalSoundnessError,
                      PowerTailMeasure, ScaledMeasure,
                      SumMeasure, analyze, atomic, compact_support_certificate,
                      essential_norm_trend, hilbert_schmidt_certificate,
                      lebesgue, lebesgue_gram, make_explicit, make_geometric,
                      make_power, measure_gram, modulus_report, point_mass,
                      psi_certificate, restrict_tail,
                      rho_certificate, riesz_sequence_check, singular_values,
                      sublinear_embedding_bound)
from muntzlab.geometry import _PROBE_LOG_X, PsiEvaluator
from muntzlab import quadrature, spectral
from muntzlab.logdomain import log_sum
from muntzlab.measures import (Measure, PiecewiseDensityMeasure,
                               atomic_from_logs, default_epsilon_grid,
                               measure_from_config)
from muntzlab.spectral import (PSI_TRUNCATION_FLAG, TAIL_UNSOUND_FLAG,
                               UNSOUND_CONTRIBUTION_RTOL, AssumptionCheck,
                               _psi_squared_integral)


class TestMeasureGram:
    def test_rank_one_atom(self):
        g = measure_gram(make_explicit([1.0]), point_mass(0.5))
        np.testing.assert_allclose(g, [[0.25]])

    def test_lebesgue_matches_closed_form(self):
        seq = make_explicit([1.0, 2.0])
        a = measure_gram(seq, lebesgue())
        b = lebesgue_gram(seq)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_cross_entry(self):
        a = measure_gram(make_explicit([1.0, 2.0]), point_mass(0.5))
        assert a[0, 1] == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-14)

    @pytest.mark.parametrize("mu", [
        atomic([(0.3, 0.5), (0.9, 0.25), (1.0 - 1e-9, 1.0)]),
        PowerTailMeasure(1.5, 2.5, x0=0.4),
        PiecewiseDensityMeasure(np.array([0.0, 0.3, 0.8, 1.0]),
                                np.array([1.0, 0.0, 2.0])),
        ScaledMeasure(3.0, PowerTailMeasure(1.0, 0.5)),
        SumMeasure((lebesgue(), atomic([(0.5, 0.25)])))],
        ids=["atomic", "powertail-x0", "piecewise", "scaled", "sum"])
    def test_upper_triangle_is_the_full_assembly(self, mu):
        # moments of every variant are elementwise in the order, so mirroring
        # the upper triangle reproduces the full-matrix assembly bit for bit
        seq = make_geometric(0.75, 1.7, 24)
        lam = seq.values
        full = (np.outer(np.sqrt(lam), np.sqrt(lam))
                * np.exp(mu.log_moments(lam[:, None] + lam[None, :])))
        assert np.array_equal(measure_gram(seq, mu), full)


class TestEmbeddingProblem:
    def test_members_computed_once_and_read_only(self):
        problem = EmbeddingProblem(make_geometric(2.0, 2.0, 8),
                                   PowerTailMeasure(1.0, 2.0), 6)
        sub = problem.truncated
        for owner, name in ((problem, "gram"), (sub, "lebesgue_gram"),
                            (sub, "whitener")):
            entries = getattr(owner, name)
            assert entries is getattr(owner, name)
            assert entries.shape == (6, 6)
            with pytest.raises(ValueError):
                entries[0, 0] = 1.0
        assert problem.modulus is problem.modulus
        assert sub.psi is sub.psi and sub.psi.n_seq == 6
        w = sub.whitener
        assert np.array_equal(w, np.tril(w))
        np.testing.assert_allclose(w @ sub.lebesgue_gram @ w.T, np.eye(6),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mu", [
        PowerTailMeasure(1.0, 2.0, x0=0.3),
        atomic([(0.3, 1.0), (0.55, 0.5), (0.8, 0.25), (0.95, 0.1)])],
        ids=["density", "atomic"])
    def test_whitener_matches_triangular_solves(self, mu):
        # oracle: the pencil whitened by two triangular solves with the
        # Cholesky factor, resp. the atomic factor F as svd(F L^-T)
        problem = EmbeddingProblem(make_geometric(2.0, 2.0, 10), mu, 10)
        low = scipy.linalg.cholesky(problem.truncated.lebesgue_gram, lower=True)
        flat = mu.flattened()
        if flat.has_density:
            x = scipy.linalg.solve_triangular(low, problem.gram, lower=True)
            m = scipy.linalg.solve_triangular(low, x.T, lower=True)
            want = np.sqrt(scipy.linalg.eigvalsh(0.5 * (m + m.T)))[::-1]
        else:
            lam = problem.truncated.values
            f = np.exp(0.5 * flat.log_weights[:, None] + 0.5 * np.log(lam)
                       + np.outer(flat.log_positions, lam))
            x = scipy.linalg.solve_triangular(low, f.T, lower=True).T
            want = scipy.linalg.svd(x, compute_uv=False)
        got = analyze(problem).singular_values[:want.size]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_returned_gramians_read_only(self):
        seq = make_geometric(2.0, 2.0, 4)
        for gram in (measure_gram(seq, lebesgue()), lebesgue_gram(seq)):
            with pytest.raises(ValueError):
                gram[1, 0] = 0.0


class TestOneGeometryPerTruncation:
    def test_full_truncation_is_the_sequence(self):
        seq = make_geometric(2.0, 2.0, 8)
        assert seq.truncate(8) is seq
        assert len(seq.truncate(6)) == 6 and seq.truncate(6) is not seq
        assert EmbeddingProblem(seq, lebesgue(), 8).truncated is seq

    def test_benchmark_atomic_op_factors_once(self, monkeypatch):
        # analyze, the essential-norm trend and the psi certificate on one
        # full-length sequence, in the atomic benchmark op's call sequence
        from muntzlab import geometry
        from muntzlab.measures import atomic_from_logs

        calls = {"lebesgue_gram": 0, "whitener": 0, "cond_b_svd": 0, "psi": 0}
        built = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        whitener, svd = geometry.whitener, np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            # cond(B) is the one SVD taken of W itself
            calls["cond_b_svd"] += any(a is w for w in built)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(geometry, "lebesgue_gram",
                            counted("lebesgue_gram", geometry.lebesgue_gram))
        monkeypatch.setattr(geometry, "whitener", counted(
            "whitener", lambda seq: built.append(whitener(seq)) or built[-1]))
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(PsiEvaluator, "from_sequence", classmethod(
            counted("psi", PsiEvaluator.from_sequence.__func__)))

        n = 12
        seq = make_geometric(2.0, 1.5, n)
        mu = atomic_from_logs(np.log([0.5, 0.9, 0.99, 0.999]),
                              np.log([1.0, 0.5, 0.25, 0.125]))
        report = analyze(EmbeddingProblem(seq, mu, n), q_set=(0.5, 1.0, 2.0))
        trend = essential_norm_trend(seq, mu, n, [2, 8, 32])
        cert = psi_certificate(seq, mu)
        # B is never built: W is closed-form, and no sublinear certificate
        assert calls == {"lebesgue_gram": 0, "whitener": 1, "cond_b_svd": 1,
                         "psi": 1}
        assert all(v <= report.op_norm * (1.0 + 1e-12) for _, v in trend)
        assert cert.value >= report.op_norm * (1.0 - 1e-12)


# (lambda_1, ratio, N) of geometric sequences, cond(B) 3.4e5 to 1.1e22
WHITENER_CASES = [(1.0, 2.0, 32), (2.0, 1.5, 22), (2.0, 1.3, 22),
                  (2.0, 1.25, 22), (2.0, 1.25, 26), (2.0, 1.25, 30),
                  (2.0, 1.2, 40)]


def _mp_whitener(lam, bits: int) -> np.ndarray:
    """L^-1 for B = L L^T at ``bits`` bits, from mpmath's Cholesky and a
    forward substitution, rounded to double."""
    with mp.workprec(bits):
        lam = [mp.mpf(float(v)) for v in lam]
        low = mp.cholesky(mp.matrix([[mp.sqrt(a * b) / (a + b + 1) for b in lam]
                                     for a in lam]))
        n = len(lam)
        w = [[mp.mpf(0)] * n for _ in range(n)]
        for j in range(n):
            w[j][j] = 1 / low[j, j]
            for i in range(j + 1, n):
                w[i][j] = -mp.fsum(low[i, m] * w[m][j]
                                   for m in range(j, i)) / low[i, i]
        return np.array([[float(v) for v in row] for row in w])


class TestWhitener:
    @pytest.mark.parametrize("lambda1, ratio, n", WHITENER_CASES)
    def test_matches_extended_precision(self, lambda1, ratio, n):
        # the closed form is entrywise accurate where a double Cholesky of
        # B is not (or fails): cond(B) up to 1.1e22 here
        seq = make_geometric(lambda1, ratio, n)
        want = _mp_whitener(seq.values, 300)
        assert np.array_equal(seq.whitener == 0.0, want == 0.0)
        np.testing.assert_allclose(seq.whitener, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seq", [
        make_geometric(1.0, 2.0, 32), make_geometric(0.5, 1.3, 20),
        make_power(1.5, 24), make_explicit([0.25, 0.5, 3.0, 3.5, 40.0])],
        ids=["geometric-2", "geometric-1.3", "power", "explicit"])
    def test_truncation_is_the_leading_block(self, seq):
        # row r reads lambda_1..lambda_r only
        for k in range(1, len(seq) + 1):
            assert np.array_equal(seq.truncate(k).whitener,
                                  seq.whitener[:k, :k])

    # 400-bit lambda_max(B) / lambda_min(B) from mpmath's eigsy of B
    @pytest.mark.parametrize("ratio, cond", [(1.3, 3.50542312283e14),
                                             (1.25, 6.53794289873e16)])
    def test_cond_b_matches_extended_precision(self, ratio, cond):
        seq = make_geometric(2.0, ratio, 22)
        assert seq.cond_b == pytest.approx(cond, rel=1e-6)
        cert = sublinear_embedding_bound(
            EmbeddingProblem(seq, PowerTailMeasure(1.0, 2.0), 22))
        assert cert.params["cond_b"] == pytest.approx(cond, rel=1e-6)

    def test_report_carries_cond_b(self):
        # the sequence's cond(B), 3.50072455980e9 at 400 bits, with an
        # answered forward-error estimate of 3.9e-7
        problem = EmbeddingProblem(make_geometric(2.0, 1.5, 22),
                                   PowerTailMeasure(1.0, 2.0), 22)
        rep = analyze(problem)
        assert rep.cond_b == problem.truncated.cond_b
        assert rep.cond_b == pytest.approx(3.50072455980e9, rel=1e-9)


class TestSingularValues:
    def test_hand_computed_rank_one(self):
        s = singular_values(np.array([[0.25]]), make_explicit([1.0]))
        assert s[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_identity_when_equal(self):
        seq = make_geometric(2.0, 2.0, 8)
        s = singular_values(lebesgue_gram(seq), seq)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_scaled_measure(self):
        seq = make_geometric(2.0, 2.0, 6)
        s = singular_values(2.25 * lebesgue_gram(seq), seq)
        np.testing.assert_allclose(s, 1.5, atol=1e-12)

    def test_ill_conditioned_raises(self):
        seq = make_power(2.0, 32)
        with pytest.raises(IllConditionedBasisError):
            singular_values(lebesgue_gram(seq), seq)

    def test_overflowing_whitener_refused(self):
        # W_21 is about -1e450, beyond the double range: cond(B)
        # reads inf, with no RuntimeWarning, and the spectrum is refused
        seq = make_explicit([1e-300, 2e-300])
        assert not np.all(np.isfinite(seq.whitener))
        assert seq.cond_b == math.inf
        with pytest.raises(IllConditionedBasisError,
                           match=r"cond\(B\) = inf.*reduce N"):
            singular_values(lebesgue_gram(seq), seq)

    def test_non_finite_pencil_refused(self):
        seq = make_geometric(2.0, 2.0, 4)
        a = np.array(lebesgue_gram(seq))
        a[1, 2] = a[2, 1] = math.nan
        with pytest.raises(NumericalSoundnessError, match="non-finite"):
            singular_values(a, seq)

    def test_factored_route_matches_pencil(self):
        # analyze() takes the factored SVD route for atomic measures; the
        # leading values must agree with the generic pencil solve
        seq = make_geometric(2.0, 2.0, 10)
        mu = atomic([(0.3, 1.0), (0.55, 0.5), (0.8, 0.25), (0.95, 0.1)])
        via_analyze = analyze(EmbeddingProblem(seq, mu, 10)).singular_values
        via_pencil = singular_values(measure_gram(seq, mu), seq)
        np.testing.assert_allclose(via_analyze[:4], via_pencil[:4], rtol=1e-7)
        assert np.all(via_analyze[4:] == 0.0)


class TestAnalyze:
    def test_rank_one_report(self):
        rep = analyze(EmbeddingProblem(make_explicit([1.0]), point_mass(0.5), 1))
        assert rep.op_norm == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        for value in rep.schatten.values():
            assert value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_ill_conditioned_op_norm(self):
        # cond(B) 3.5e9; the value is the 130-digit mpmath op norm of the
        # same pencil, B and A in closed form (A from C alpha B(s + 1, alpha))
        seq = make_geometric(2.0, 1.5, 22)
        rep = analyze(EmbeddingProblem(seq, PowerTailMeasure(1.0, 2.0), 22))
        assert rep.op_norm == pytest.approx(1.26717229935253, rel=1e-9)

    def test_lebesgue_identity(self):
        seq = make_geometric(2.0, 2.0, 16)
        rep = analyze(EmbeddingProblem(seq, lebesgue(), 16), q_set=(1.0, 2.0))
        np.testing.assert_allclose(rep.singular_values, 1.0, atol=1e-10)
        assert rep.schatten[1.0] == pytest.approx(16.0, rel=1e-9)
        assert rep.schatten[2.0] == pytest.approx(4.0, rel=1e-9)

    def test_powertail_decay(self):
        seq = make_geometric(2.0, 2.0, 16)
        rep = analyze(EmbeddingProblem(seq, PowerTailMeasure(1.0, 2.0), 16))
        assert rep.decay_rate < 1.0
        assert np.all(np.diff(rep.singular_values) <= 1e-15)
        # the least-squares slope of log s_n over the values above 1e-14 s_1
        svals = rep.singular_values
        keep = svals > 1e-14 * svals[0]
        slope = np.polyfit(np.arange(1.0, 17.0)[keep], np.log(svals[keep]), 1)[0]
        assert rep.decay_rate == pytest.approx(math.exp(slope), rel=1e-12)

    def test_truncation_monotonicity(self):
        seq = make_geometric(2.0, 2.0, 16)
        mu = SumMeasure((PowerTailMeasure(1.0, 2.0), point_mass(0.5, 0.5)))
        rep = analyze(EmbeddingProblem(seq, mu, 16), q_set=(0.5, 2.0))
        ops = [t.op_norm for t in rep.trend]
        assert all(b >= a - 1e-12 for a, b in zip(ops, ops[1:]))
        for q in (0.5, 2.0):
            sums = [t.schatten[q] for t in rep.trend]
            assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))

    def test_measure_additivity(self):
        seq = make_geometric(2.0, 2.0, 10)
        mu1 = PowerTailMeasure(1.0, 2.0)
        mu2 = atomic([(0.5, 0.7)])
        op1 = analyze(EmbeddingProblem(seq, mu1, 10)).op_norm
        op2 = analyze(EmbeddingProblem(seq, mu2, 10)).op_norm
        both = analyze(EmbeddingProblem(seq, SumMeasure((mu1, mu2)), 10)).op_norm
        assert both ** 2 <= op1 ** 2 + op2 ** 2 + 1e-10
        assert both ** 2 >= max(op1, op2) ** 2 - 1e-10

    def test_scaling_exact(self):
        seq = make_geometric(2.0, 2.0, 12)
        mu = PowerTailMeasure(1.0, 2.0)
        base = analyze(EmbeddingProblem(seq, mu, 12)).singular_values
        scaled = analyze(EmbeddingProblem(seq, ScaledMeasure(4.0, mu), 12))
        np.testing.assert_allclose(scaled.singular_values, 2.0 * base,
                                   rtol=1e-13)

    @pytest.mark.parametrize("ratio, n", [(1.5, 24), (2.0, 32), (3.0, 16)])
    def test_trend_matches_standalone(self, ratio, n):
        # trend points are read as leading blocks of the one whitening at
        # N; W is the same leading block, but W A W^T at N sums each entry
        # over more terms (BLAS blocks them differently), so agreement is
        # close but not bitwise
        seq = make_geometric(2.0, ratio, n)
        for mu in (PowerTailMeasure(1.0, 2.0),
                   atomic([(0.3, 1.0), (0.55, 0.5), (0.8, 0.25), (0.95, 0.1),
                           (0.99, 0.05)])):
            rep = analyze(EmbeddingProblem(seq, mu, n), q_set=(2.0,))
            assert [t.n for t in rep.trend] == [n // 4, n // 2, n]
            for point in rep.trend:
                alone = analyze(EmbeddingProblem(seq, mu, point.n), q_set=(2.0,))
                assert point.op_norm == pytest.approx(alone.op_norm, rel=1e-9)
                assert point.schatten[2.0] == pytest.approx(
                    alone.schatten[2.0], rel=1e-9)

    def test_rank_bound_atoms(self):
        seq = make_geometric(2.0, 2.0, 12)
        mu = atomic([(0.3, 1.0), (0.6, 0.5), (0.85, 0.25)])
        rep = analyze(EmbeddingProblem(seq, mu, 12))
        assert np.all(rep.singular_values[3:] <= 1e-10)

    def test_nonsublinear_divergence_trend(self):
        # bounded-ratio lacunary Lambda with a NON-sublinear measure: the
        # operator norm keeps growing with N instead of stabilizing
        seq = make_geometric(2.0, 2.0, 24)
        mu = PowerTailMeasure(1.0, 0.5)
        ops = [analyze(EmbeddingProblem(seq, mu, n)).op_norm
               for n in (6, 12, 18, 24)]
        assert all(b > a * 1.05 for a, b in zip(ops, ops[1:]))


class TestEssentialNorm:
    def test_compact_support_hits_zero(self):
        seq = make_geometric(2.0, 2.0, 8)
        mu = atomic([(0.4, 1.0), (0.7, 1.0)])
        trend = essential_norm_trend(seq, mu, 8, [2, 4, 8])
        assert trend[0][1] > 0.0          # m=2 keeps the atom at 0.7
        assert trend[2][1] == 0.0         # 1/m < 0.3: nothing left

    def test_lebesgue_trend_toward_one(self):
        seq = make_geometric(2.0, 2.0, 32)
        trend = essential_norm_trend(seq, lebesgue(), 32, [2, 4, 16, 64])
        values = [v for _, v in trend]
        assert all(0.0 < v <= 1.0 + 1e-9 for v in values)
        assert abs(values[-1] - 1.0) < 0.1

    def test_monotone_nonincreasing(self):
        seq = make_geometric(2.0, 2.0, 16)
        mu = PowerTailMeasure(1.0, 2.0)
        trend = essential_norm_trend(seq, mu, 16, [2, 4, 8, 16, 32])
        values = [v for _, v in trend]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("mu", [
        PiecewiseDensityMeasure(np.array([0.7, 0.9]), np.array([1.0])),
        PiecewiseDensityMeasure(np.array([0.3, 0.6, 0.95]),
                                np.array([2.0, 0.5])),
        PowerTailMeasure(1.0, 2.0, x0=0.6),
        SumMeasure((PiecewiseDensityMeasure(np.array([0.55, 0.8]),
                                            np.array([3.0])),
                    point_mass(0.9, 0.5)))],
        ids=["piecewise-above-cut", "piecewise", "powertail-x0", "sum"])
    def test_trend_below_op_norm(self, mu):
        # mu'_m <= mu, so no point of the trend exceeds the op norm
        seq = make_geometric(1.0, 2.0, 12)
        op = analyze(EmbeddingProblem(seq, mu, 12)).op_norm
        trend = essential_norm_trend(seq, mu, 12, [2, 3, 4, 8])
        assert all(v <= op * (1.0 + 1e-12) for _, v in trend)

    def test_m_list_validation(self):
        seq = make_explicit([1.0])
        with pytest.raises(InvalidParameterError):
            essential_norm_trend(seq, lebesgue(), 1, [4, 2])

    @pytest.mark.parametrize("m", ["x", math.nan, math.inf, None])
    def test_malformed_m_refused(self, m):
        seq = make_geometric(2.0, 2.0, 8)
        with pytest.raises(InvalidParameterError, match="integers"):
            essential_norm_trend(seq, lebesgue(), 8, [m])

    def test_non_integral_m_refused(self):
        # int() would silently run m = 2 and report it
        seq = make_geometric(2.0, 2.0, 8)
        with pytest.raises(InvalidParameterError, match="integers"):
            essential_norm_trend(seq, lebesgue(), 8, [2.5, 4])
        whole = essential_norm_trend(seq, lebesgue(), 8, [2.0, 4.0])
        assert whole == essential_norm_trend(seq, lebesgue(), 8, [2, 4])
        assert all(type(m) is int for m, _ in whole)


def _restricted_trend(seq, mu, n, m_list):
    """The trend through one restricted measure, problem and spectrum per m."""
    sub = seq.truncate(n)
    return [(m, analyze(EmbeddingProblem(sub, mu.restricted_to_tail(1.0 / m),
                                         n)).op_norm)
            for m in m_list]


_ATOMS = atomic([(0.3, 1.0), (0.6, 0.5), (0.85, 2.0), (0.97, 0.25),
                 (0.995, 1.5)])


class TestAtomicTrendFromOneFactor:
    """An atomic tail mu'_m is a row block of the one whitened factor
    F W^T; the restricted-measure route is the oracle."""

    @pytest.mark.parametrize("mu, m_list", [
        (_ATOMS, [2, 4, 8, 16, 64, 256]),
        (ScaledMeasure(3.0, _ATOMS), [2, 4, 8, 16, 64, 256]),
        (SumMeasure((atomic([(0.5, 1.0), (0.9, 0.5), (0.999, 2.0)]),
                     atomic([(0.7, 0.25), (0.95, 1.0)]))), [2, 4, 8, 16, 1000]),
        (atomic_from_logs(np.log1p(-np.array([1e-7, 3e-7, 1e-3, 0.2])),
                          np.log([0.5, 1.0, 2.0, 0.75])),
         [2, 8, 1000, 10 ** 6, 5 * 10 ** 6, 10 ** 7, 2 * 10 ** 7]),
        (atomic([(0.5, 1.0), (0.75, 2.0)]), [2, 3, 4, 5])],
        ids=["atomic", "scaled", "sum-of-atomic", "near-one-logs", "boundary"])
    def test_matches_restricted_route(self, mu, m_list):
        seq = make_geometric(1.0, 2.0, 14)
        for n in (7, 14):
            trend = essential_norm_trend(seq, mu, n, m_list)
            oracle = _restricted_trend(seq, mu, n, m_list)
            assert [m for m, _ in trend] == list(m_list)
            for (_, v), (_, want) in zip(trend, oracle):
                assert v == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_boundary_atom_enters_at_its_own_m(self):
        # 1 - 0.75 = 1/4: the atom at 0.75 is in mu'_4 and not in mu'_5
        seq = make_geometric(1.0, 2.0, 8)
        trend = dict(essential_norm_trend(seq, point_mass(0.75), 8, [4, 5]))
        assert trend[4] > 0.0 and trend[5] == 0.0

    def test_empty_tail_is_exactly_zero(self):
        seq = make_geometric(1.0, 2.0, 8)
        mu = atomic([(0.2, 1.0), (0.6, 3.0)])
        trend = essential_norm_trend(seq, mu, 8, [2, 3, 100])
        assert trend[0][1] > 0.0
        assert trend[1][1] == 0.0 and trend[2][1] == 0.0

    def test_builds_no_restricted_measure(self, monkeypatch):
        seq = make_geometric(1.0, 2.0, 10)
        cases = [_ATOMS, ScaledMeasure(2.0, _ATOMS),
                 SumMeasure((_ATOMS, point_mass(0.5)))]
        expected = [_restricted_trend(seq, mu, 10, [2, 8, 64]) for mu in cases]

        def refuse(self, eps):
            raise AssertionError("an atomic trend restricted a measure")
        monkeypatch.setattr(Measure, "restricted_to_tail", refuse)
        for mu, want in zip(cases, expected):
            got = essential_norm_trend(seq, mu, 10, [2, 8, 64])
            np.testing.assert_allclose([v for _, v in got],
                                       [v for _, v in want], rtol=1e-13)

    def test_density_part_keeps_its_pencils_bit_for_bit(self):
        # a density part keeps one restricted pencil per m; at m = 4 the
        # density [0.55, 0.8] is cut away and the tail is the atom alone
        seq = make_geometric(1.0, 2.0, 12)
        mu = SumMeasure((PiecewiseDensityMeasure(np.array([0.55, 0.8]),
                                                 np.array([3.0])),
                         point_mass(0.9, 0.5)))
        m_list = [2, 3, 4, 8, 16]
        assert (essential_norm_trend(seq, mu, 12, m_list)
                == _restricted_trend(seq, mu, 12, m_list))


class TestCertificates:
    def test_psi_rank_one_equality(self):
        seq = make_explicit([1.0])
        cert = psi_certificate(seq, point_mass(0.5))
        op = analyze(EmbeddingProblem(seq, point_mass(0.5), 1)).op_norm
        assert cert.value == pytest.approx(op, abs=1e-12)
        assert cert.comparable

    def test_psi_lebesgue_rank_one(self):
        cert = psi_certificate(make_explicit([1.0]), lebesgue())
        assert cert.value == pytest.approx(1.0, rel=1e-10)

    def test_rho_lebesgue(self):
        cert = rho_certificate(make_explicit([1.0]), lebesgue(),
                               PowerTailMeasure(1.0, 1.0))
        assert cert.value == pytest.approx(1.0, rel=1e-9)

    def test_rho_powertail_exact(self):
        cert = rho_certificate(make_explicit([1.0]), PowerTailMeasure(1.0, 2.0),
                               PowerTailMeasure(1.0, 2.0))
        assert cert.value == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_rho_hypothesis_failure_recorded(self):
        cert = rho_certificate(make_explicit([1.0]),
                               ScaledMeasure(5.0, lebesgue()),
                               PowerTailMeasure(1.0, 1.0))
        assert not cert.comparable
        assert math.isinf(cert.value)

    def test_both_dominate_op_norm(self):
        seq = make_geometric(2.0, 2.0, 16)
        mu = PowerTailMeasure(1.0, 2.0)
        op = analyze(EmbeddingProblem(seq, mu, 16)).op_norm
        c_psi = psi_certificate(seq, mu)
        c_rho = rho_certificate(seq, mu, PowerTailMeasure(1.0, 2.0))
        assert c_psi.value >= op - 1e-9
        assert c_rho.value >= op - 1e-9

    def test_compact_support_hand_value(self):
        seq = make_explicit([1.0])
        cert = compact_support_certificate(seq, point_mass(0.5), 0.5, 0.75, 1)
        assert cert.value == pytest.approx(4.0 / math.sqrt(6.0), rel=1e-12)
        s2 = analyze(EmbeddingProblem(seq, point_mass(0.5), 1)).schatten[2.0]
        assert s2 <= cert.value

    def test_compact_support_degenerate_k2(self):
        # single exponent: psi'' vanishes identically; flagged, not asserted
        cert = compact_support_certificate(make_explicit([1.0]),
                                           point_mass(0.5), 0.5, 0.75, 2)
        assert cert.value == 0.0
        assert "derivative-order-exceeds-truncation" in cert.flags

    def test_compact_support_violation(self):
        cert = compact_support_certificate(make_explicit([1.0]), lebesgue(),
                                           0.5, 0.75, 1)
        assert not cert.comparable

    def test_compact_support_dominates_schatten(self):
        seq = make_geometric(2.0, 2.0, 20)
        mu = ScaledMeasure(1.0, atomic([(0.2, 0.5), (0.35, 0.3), (0.5, 0.2)]))
        rep = analyze(EmbeddingProblem(seq, mu, 20), q_set=(2.0, 1.0))
        for k in (1, 2):
            cert = compact_support_certificate(seq, mu, 0.5, 0.75, k)
            assert cert.comparable
            assert cert.value >= rep.schatten[2.0 / k] - 1e-9

    def test_hilbert_schmidt_hand_value(self):
        cert = hilbert_schmidt_certificate(make_explicit([1.0]), point_mass(0.5))
        assert cert.value == pytest.approx(9.0 * math.sqrt(0.5), rel=1e-12)

    def test_hilbert_schmidt_partition_masses(self):
        cert = hilbert_schmidt_certificate(make_explicit([1.0]), lebesgue())
        masses = cert.params["partition_masses"]
        assert masses[0][2] == pytest.approx(0.5)
        assert masses[1][2] == pytest.approx(math.sqrt(0.5) - 0.5, rel=1e-12)
        assert sum(m for _, _, m in masses) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("mu, support_lo", [
        (PowerTailMeasure(1.0, 2.0, x0=0.7), 0.7),
        (PowerTailMeasure(1.0, 0.5, x0=0.6), 0.6),
        (PowerTailMeasure(1.5, 1.5, x0=0.75), 0.75),
        (PowerTailMeasure(0.7, 2.5, x0=0.55), 0.55),
        (PiecewiseDensityMeasure(np.array([0.6, 0.8, 1.0]),
                                 np.array([1.0, 3.0])), 0.6),
        (atomic([(0.55, 1.0), (0.9, 0.5)]), 0.55)])
    def test_hilbert_schmidt_partition_masses_nonnegative(self, mu, support_lo):
        # the masses are differences of one tail-mass query, so none is
        # negative and a partition below the support carries exactly none
        cert = hilbert_schmidt_certificate(make_explicit([1.0]), mu)
        masses = cert.params["partition_masses"]
        assert all(m >= 0.0 for _, _, m in masses)
        assert all(m == 0.0 for _, hi, m in masses if hi <= support_lo)
        last = masses[-1][1]
        assert (sum(m for _, _, m in masses) + mu.tail_mass(1.0 - last)
                == pytest.approx(mu.total_mass, rel=1e-12))

    def test_hilbert_schmidt_powertail_finite_and_s2_converges(self):
        seq = make_geometric(2.0, 2.0, 24)
        mu = PowerTailMeasure(1.0, 3.0)
        cert = hilbert_schmidt_certificate(seq, mu)
        assert math.isfinite(cert.value)
        s2 = [analyze(EmbeddingProblem(seq, mu, n), q_set=(2.0,)).schatten[2.0]
              for n in (12, 18, 24)]
        assert (s2[2] - s2[1]) < (s2[1] - s2[0])
        assert (s2[2] - s2[1]) / s2[2] < 1e-3


def _squared_majorant_logs(psi, log_x, big):
    """(log of psi(x)^2 resp. Psi(x)^2, tail_sound) at a single log x, one
    one-point evaluation per order: the scalar reference of
    PsiEvaluator.log_majorant."""
    def one(log_x, k):
        log_abs, _, sound = psi.eval_many([log_x], k)
        return float(log_abs[0]), bool(sound[0])
    if big:
        quarter = 0.25 * log_x
        l1, s1 = one(quarter, 1)
        l0, s0 = one(quarter, 0)
        return 2.0 * (l1 + l0), s1 and s0
    la, snd = one(log_x, 0)
    return 2.0 * la, snd


def _scan_tail_width(psi, big):
    """The dyadic scan, one one-point evaluation per probe: the first
    unsound probe t = 2^-j from j = 0 on (t = 1 taken as 1 - 1e-16)."""
    t = 1.0
    for _ in range(1080):
        probe = min(t, 1.0 - 1e-16)
        if not _squared_majorant_logs(psi, math.log1p(-probe), big)[1]:
            return min(2.0 * t, 1.0)
        t *= 0.5
        if t == 0.0:
            break
    return 0.0


def _exact_squared_norm(coefficients, exponents, moment):
    """sum_ij c_i c_j M(e_i + e_j) for f = sum_i c_i x^e_i, in 30 digits."""
    with mp.workdps(30):
        c = [mp.mpf(float(v)) for v in coefficients]
        e = [mp.mpf(float(v)) for v in exponents]
        return float(mp.fsum(ci * cj * moment(ei + ej)
                             for ci, ei in zip(c, e) for cj, ej in zip(c, e)))


EXACT_MOMENTS = {
    "lebesgue": (lebesgue, lambda s: 1 / (s + 1)),
    # density 2 (1 - x): 2 B(s + 1, 2)
    "powertail": (lambda: PowerTailMeasure(1.0, 2.0),
                  lambda s: 2 / ((s + 1) * (s + 2))),
}


class TestPsiTail:
    @pytest.mark.parametrize("big", [False, True])
    def test_bisection_matches_scan(self, big, monkeypatch):
        calls = []
        scaled_terms = PsiEvaluator._scaled_terms

        def counted(self, log_x, k):
            calls.append(log_x)
            return scaled_terms(self, log_x, k)

        rng = np.random.default_rng(6)
        widths = set()
        for _ in range(24):
            seq = make_geometric(float(rng.uniform(0.5, 3.0)),
                                 float(rng.uniform(1.5, 3.0)),
                                 int(rng.integers(1, 33)))
            psi = PsiEvaluator.from_sequence(seq)
            expected = _scan_tail_width(psi, big)
            monkeypatch.setattr(PsiEvaluator, "_scaled_terms", counted)
            calls.clear()
            width = psi.big_unsound_width if big else psi.unsound_width
            assert width == expected
            monkeypatch.setattr(PsiEvaluator, "_scaled_terms", scaled_terms)
            # at most two term arrays over at most 70 of the 1075 probes,
            # for Psi as for psi
            assert 1 <= len(calls) <= 2
            assert sum(np.size(log_x) for log_x in calls) <= 70
            widths.add(expected)
        assert len(widths) >= 4



def _old_psi_squared_integral(mu, psi, big=False):
    """The integral before the unsound part was read from the total's cells:
    one scalar log_majorant evaluation per atom, and (0, t*] integrated a
    second time."""
    flat = mu.flattened()
    total = unsound_part = 0.0
    if flat.has_atoms:
        log_terms, unsound_logs = [], []
        for log_a, log_c in zip(flat.log_positions, flat.log_weights):
            log_value, sound = psi.log_majorant([log_a], big)
            log_sq, snd = 2.0 * float(log_value[0]), bool(sound[0])
            log_terms.append(log_c + log_sq)
            if not snd:
                unsound_logs.append(log_c + log_sq)
        total += math.exp(log_sum(log_terms))
        if unsound_logs:
            unsound_part += math.exp(log_sum(unsound_logs))
    if flat.has_density:
        t_star = psi.big_unsound_width if big else psi.unsound_width

        def values(t):
            log_x = np.log1p(-np.asarray(t, dtype=float))
            return np.exp(2.0 * psi.log_majorant(log_x, big)[0])

        for t_lo, t_hi, h in flat.pieces:
            def integrand(t, h=h):
                return values(t) * h(np.asarray(t, dtype=float))
            if t_lo == 0.0:
                v, _, _ = quadrature.integrate_refined_at_zero(integrand, t_hi)
            else:
                v, _ = quadrature.integrate(integrand, t_lo, t_hi)
            total += v
            cut = min(t_star, t_hi)
            if cut > t_lo:
                if t_lo == 0.0:
                    u, _, _ = quadrature.integrate_refined_at_zero(integrand, cut)
                else:
                    u, _ = quadrature.integrate(integrand, t_lo, cut)
                unsound_part += u
    if not math.isfinite(total):
        return math.inf, False
    return total, unsound_part <= UNSOUND_CONTRIBUTION_RTOL * max(total, 1e-300)


SPLIT_SEQUENCES = [make_geometric(2.0, 2.0, 8), make_geometric(0.5, 1.5, 16),
                   make_geometric(1.0, 3.0, 12), make_power(2.0, 10),
                   make_geometric(2.0, 1.3, 24), make_geometric(1.0, 4.0, 20)]
SPLIT_MEASURES = {
    "powertail-6": lambda: PowerTailMeasure(1.0, 6.0),
    # width 0.8: the tail width falls inside a dyadic cell
    "powertail-x0": lambda: PowerTailMeasure(2.0, 3.0, 0.2),
    # a piece at t_lo > 0 and a zero-density piece at x = 1
    "piecewise-zero-end": lambda: PiecewiseDensityMeasure(
        np.array([0.0, 0.5, 0.9999, 1.0]), np.array([1.0, 2.0, 0.0])),
    "piecewise": lambda: PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                                 np.array([0.5, 2.0])),
    "sum-with-atom": lambda: SumMeasure([PowerTailMeasure(1.0, 4.0),
                                         atomic([[0.5, 1.0]])]),
}


class TestUnsoundPartFromTotal:
    def test_values_and_flags_match_second_integration(self):
        verdicts = []
        for seq in SPLIT_SEQUENCES:
            psi = PsiEvaluator.from_sequence(seq)
            for make_mu in SPLIT_MEASURES.values():
                mu = make_mu()
                for big in (False, True):
                    value, sound = _psi_squared_integral(mu, psi, big)
                    ref, ref_sound = _old_psi_squared_integral(mu, psi, big)
                    assert (value, sound) == (ref, ref_sound)
                    verdicts.append(sound)
        assert len(verdicts) >= 20 and any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("name", sorted(SPLIT_MEASURES))
    def test_certificate_flags_match(self, name):
        for seq in SPLIT_SEQUENCES[::2]:
            psi = seq.psi
            mu = SPLIT_MEASURES[name]()
            for cert, big in ((psi_certificate(seq, mu), False),
                              (hilbert_schmidt_certificate(seq, mu), True)):
                _, ref_sound = _old_psi_squared_integral(mu, psi, big)
                assert ("psi-tail-unsound" not in cert.flags) == ref_sound


class TestAtomsInOneCall:
    def test_certificates_match_scalar_reference(self):
        # the atomic-many regime: atoms at 1 - 10^-u for u <= 7, all of
        # them in one log_majorant call against one scalar call per atom
        rng = np.random.default_rng(16)
        u = np.linspace(0.5, 7.0, 14)
        mu = atomic(list(zip(1.0 - 10.0 ** -u, rng.uniform(0.1, 2.0, u.size))))
        verdicts = []
        for seq in SPLIT_SEQUENCES:
            psi = seq.psi
            for cert, big in ((psi_certificate(seq, mu), False),
                              (hilbert_schmidt_certificate(seq, mu), True)):
                ref, ref_sound = _old_psi_squared_integral(mu, psi, big)
                assert cert.value == pytest.approx(ref if big else math.sqrt(ref),
                                                   rel=1e-13)
                assert (TAIL_UNSOUND_FLAG not in cert.flags) == ref_sound
                verdicts.append(ref_sound)
        assert any(verdicts) and not all(verdicts)


def _old_rho_certificate(seq, mu, coefficient, alpha):
    """The rho certificate before the majorant was a measure: rho(eps) =
    C eps^alpha compared with mu(J_eps) by hand, and psi^2 rho'(t) integrated
    by its own integrand, flagged when any node is tail-unsound.  Returns
    (value, assumptions, flags)."""
    psi = PsiEvaluator.from_sequence(seq)
    bad = None
    for eps in default_epsilon_grid():
        bound = float(coefficient * eps ** alpha)
        mass = mu.tail_mass(eps)
        if mass > bound * (1.0 + 1e-12) + 1e-300:
            bad = float(eps), mass, bound
            break
    assumptions = (AssumptionCheck(
        "mu(J_eps) <= rho(eps)", bad is None,
        "" if bad is None else
        f"violated at eps={bad[0]:.3g}: {bad[1]:.6g} > {bad[2]:.6g}"),)
    if bad is not None:
        return math.inf, assumptions, (PSI_TRUNCATION_FLAG,)
    sound_box = [True]

    def integrand(t):
        t = np.asarray(t, dtype=float)
        log_abs, _, snd = psi.eval_many(np.log1p(-t), 0)
        if not np.all(snd):
            sound_box[0] = False
        return np.exp(2.0 * log_abs) * (coefficient * alpha * np.asarray(t) ** (alpha - 1.0))

    integral, _, _ = quadrature.integrate_refined_at_zero(integrand, 1.0)
    value = math.sqrt(integral) if math.isfinite(integral) else math.inf
    flags = (PSI_TRUNCATION_FLAG,) + (() if sound_box[0] else (TAIL_UNSOUND_FLAG,))
    return value, assumptions, flags


# (mu, C, alpha): the hypothesis mu(J_eps) <= C eps^alpha holds unless the
# name says "violated"
RHO_CASES = {
    "lebesgue": (lebesgue, 1.0, 1.0),
    "powertail-equal": (lambda: PowerTailMeasure(1.0, 2.0), 1.0, 2.0),
    "powertail-alpha<1": (lambda: PowerTailMeasure(0.5, 0.6), 0.8, 0.6),
    "powertail-x0": (lambda: PowerTailMeasure(1.0, 2.0, 0.3), 1.0, 1.5),
    "powertail-steep": (lambda: PowerTailMeasure(1.0, 3.0), 1.0, 2.5),
    "atoms": (lambda: atomic([(0.3, 1.0), (0.6, 0.5), (0.9, 0.25)]), 2.5, 0.5),
    "sum-leb-atom": (lambda: SumMeasure((ScaledMeasure(0.5, lebesgue()),
                                         point_mass(0.25, 0.5))), 1.5, 1.0),
    "sum-tail-atom": (lambda: SumMeasure((PowerTailMeasure(1.0, 4.0),
                                          atomic([[0.5, 1.0]]))), 3.0, 0.8),
    "violated-scaled": (lambda: ScaledMeasure(5.0, lebesgue()), 1.0, 1.0),
    "violated-alpha": (lambda: PowerTailMeasure(1.0, 0.5), 1.0, 1.0),
    "violated-atom": (lambda: point_mass(0.999, 0.1), 0.5, 0.5),
}


class TestRhoOnPsiIntegral:
    def test_matches_old_integrand(self):
        """Values and assumptions bit for bit.  The tail-unsound flag is the
        psi verdict on the majorant: the old per-node box fired on any node
        with t < t*, which the refinement toward t = 0 always reaches, so it
        flags where the new verdict does and also where the unsound part is
        at most UNSOUND_CONTRIBUTION_RTOL of the integral."""
        flag_kept = flag_dropped = violated = 0
        for seq in SPLIT_SEQUENCES + [make_explicit([1.0])]:
            psi = seq.psi
            for name, (make_mu, c, alpha) in RHO_CASES.items():
                mu, majorant = make_mu(), PowerTailMeasure(c, alpha)
                cert = rho_certificate(seq, mu, majorant)
                value, assumptions, flags = _old_rho_certificate(seq, mu, c, alpha)
                assert cert.value == value
                assert cert.assumptions == assumptions
                assert measure_from_config(cert.params["rho"]) == majorant
                assert assumptions[0].ok == ("violated" not in name)
                if not assumptions[0].ok:
                    violated += 1
                    assert math.isinf(cert.value)
                    assert cert.flags == flags == (PSI_TRUNCATION_FLAG,)
                elif cert.flags == flags:
                    flag_kept += 1
                else:
                    # only a majorant whose density vanishes at t = 0 (the
                    # CLI's rho blocks have alpha <= 1)
                    flag_dropped += 1
                    assert alpha > 1.0
                    assert flags == (PSI_TRUNCATION_FLAG, TAIL_UNSOUND_FLAG)
                    assert cert.flags == (PSI_TRUNCATION_FLAG,)
                    assert _psi_squared_integral(majorant, psi)[1]
        assert flag_kept + flag_dropped + violated >= 70
        assert flag_kept >= 30 and violated >= 20 and flag_dropped >= 1

    @pytest.mark.parametrize("mu", [PowerTailMeasure(1.0, 2.0),
                                    PowerTailMeasure(0.7, 0.6),
                                    PowerTailMeasure(2.0, 3.0, 0.2),
                                    PowerTailMeasure(1.5, 1.0, 0.5)],
                             ids=repr)
    def test_self_majorant_is_psi_certificate(self, mu):
        for seq in SPLIT_SEQUENCES:
            rho = rho_certificate(seq, mu, mu)
            plain = psi_certificate(seq, mu)
            assert rho.assumptions[0].ok
            assert (rho.value, rho.flags) == (plain.value, plain.flags)


    @pytest.mark.parametrize("mu", [
        atomic([(0.5, 1.0), (0.9, 0.05)]),
        ScaledMeasure(0.5, lebesgue()),
        SumMeasure((ScaledMeasure(0.25, lebesgue()), point_mass(0.6, 0.3)))],
        ids=["atomic", "density", "sum"])
    def test_rho_is_psi_certificate_of_the_majorant(self, mu):
        unsound = 0
        for seq in SPLIT_SEQUENCES:
            for majorant in (PowerTailMeasure(4.0, 1.0),
                             PowerTailMeasure(4.0, 0.5)):
                rho = rho_certificate(seq, mu, majorant)
                nu = psi_certificate(seq, majorant)
                assert rho.assumptions[0].ok
                assert (rho.value, rho.flags) == (nu.value, nu.flags)
                unsound += TAIL_UNSOUND_FLAG in rho.flags
        assert unsound >= 1

class TestCertificatesExactForm:
    """psi^2 = sum_ij w_i w_j x^(l_i + l_j) with w = 1/d, and Psi = psi'(x^1/4)
    psi(x^1/4) is a sum of the powers (l_i + l_j - 1)/4 with weights
    w_i w_j l_i: both integrals are positive quadratic forms in the moments.
    Checked where the dyadic quadrature is accurate, i.e. no fractional power
    of x at x = 0: l_1 >= 1 for psi, l_1 >= 2 for Psi^2 (whose lowest power is
    l_1 - 1/2)."""

    @pytest.mark.parametrize("kind", sorted(EXACT_MOMENTS))
    @pytest.mark.parametrize("lambda1", [1.0, 2.0])
    @pytest.mark.parametrize("ratio, n", [(1.5, 1), (1.5, 8), (2.0, 4),
                                          (2.0, 16), (3.0, 12)])
    def test_psi(self, kind, lambda1, ratio, n):
        make_mu, moment = EXACT_MOMENTS[kind]
        seq = make_geometric(lambda1, ratio, n)
        psi = seq.psi
        exact = _exact_squared_norm(np.exp(psi.log_inv_d), psi.lambdas, moment)
        value = psi_certificate(seq, make_mu()).value
        assert value ** 2 == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("kind", sorted(EXACT_MOMENTS))
    @pytest.mark.parametrize("ratio, n", [(1.5, 1), (1.5, 6), (2.0, 3),
                                          (3.0, 5)])
    def test_hilbert_schmidt(self, kind, ratio, n):
        make_mu, moment = EXACT_MOMENTS[kind]
        seq = make_geometric(2.0, ratio, n)
        psi = seq.psi
        w, lam = np.exp(psi.log_inv_d), psi.lambdas
        exact = _exact_squared_norm(np.outer(w * lam, w).ravel(),
                                    0.25 * (lam[:, None] + lam[None, :] - 1.0).ravel(),
                                    moment)
        value = hilbert_schmidt_certificate(seq, make_mu()).value
        assert value == pytest.approx(exact, rel=1e-9)


MAJORIZATION = "A <= ||mu||_S B entrywise"


class TestSublinearBound:
    def test_majorization_is_a_recorded_assumption(self):
        cert = sublinear_embedding_bound(
            EmbeddingProblem(make_geometric(2.0, 2.0, 8), lebesgue(), 8))
        assert [a.name for a in cert.assumptions] == [
            "Lambda lacunary", "mu sublinear", MAJORIZATION]
        assert all(a.ok for a in cert.assumptions) and cert.comparable
        assert cert.assumptions[-1].detail.startswith("worst entry (")

    def test_under_estimated_norm_fails_the_majorization(self, monkeypatch):
        # Lebesgue has ||mu||_S = 1 and A = B; read as 1/2, A exceeds
        # ||mu||_S B most at the largest entry of B, B_88 = 256/513
        real = spectral.modulus_report
        monkeypatch.setattr(spectral, "modulus_report", lambda mu:
                            dataclasses.replace(real(mu), sublinear_norm=0.5))
        cert = sublinear_embedding_bound(
            EmbeddingProblem(make_geometric(2.0, 2.0, 8), lebesgue(), 8))
        assert cert.kind == "sublinear" and cert.value == math.inf
        assert not cert.comparable
        assert [(a.name, a.ok) for a in cert.assumptions] == [
            ("Lambda lacunary", True), ("mu sublinear", True),
            (MAJORIZATION, False)]
        assert cert.assumptions[-1].detail == (
            f"worst entry (8,8): A={256 / 513:.6g}, "
            f"||mu||_S*B={128 / 513:.6g}")

    def test_lebesgue_equality_case(self):
        seq = make_geometric(2.0, 2.0, 16)
        cert = sublinear_embedding_bound(EmbeddingProblem(seq, lebesgue(), 16))
        assert cert.comparable
        b = lebesgue_gram(seq)
        eigs = np.linalg.eigvalsh(b)
        assert cert.value == pytest.approx(math.sqrt(eigs[-1] / eigs[0]),
                                           rel=1e-10)

    def test_scaling(self):
        seq = make_geometric(2.0, 2.0, 12)
        mu = PowerTailMeasure(1.0, 2.0)
        c1 = sublinear_embedding_bound(EmbeddingProblem(seq, mu, 12))
        c2 = sublinear_embedding_bound(
            EmbeddingProblem(seq, ScaledMeasure(4.0, mu), 12))
        assert c2.value == pytest.approx(2.0 * c1.value, rel=1e-12)

    def test_dominates_op_norm(self):
        seq = make_geometric(2.0, 2.0, 16)
        for mu in (PowerTailMeasure(1.0, 2.0),
                   atomic([(0.5, 0.5), (0.75, 0.25), (0.9, 0.1)])):
            problem = EmbeddingProblem(seq, mu, 16)
            cert = sublinear_embedding_bound(problem)
            op = analyze(problem).op_norm
            assert cert.comparable and cert.value >= op - 1e-10

    def test_power_sequence_still_lacunary_at_truncation(self):
        # every finite truncation has min ratio > 1, so the assumption is
        # recorded as holding (truncation honesty: no infinite-sequence claim)
        cert = sublinear_embedding_bound(
            EmbeddingProblem(make_power(2.0, 10), lebesgue(), 10))
        assert cert.comparable

    def test_non_sublinear_not_comparable(self):
        cert = sublinear_embedding_bound(
            EmbeddingProblem(make_geometric(2.0, 2.0, 8),
                             PowerTailMeasure(1.0, 0.5), 8))
        assert not cert.comparable
        assert math.isinf(cert.value)


class TestRieszCheck:
    def test_identity(self):
        res = riesz_sequence_check(np.eye(5))
        assert res.offdiag_hs == 0.0 and res.invertible

    def test_rank_one_fails(self):
        res = riesz_sequence_check(np.ones((4, 4)))
        assert not res.invertible
        assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_requires_unit_diagonal(self):
        with pytest.raises(InvalidParameterError):
            riesz_sequence_check(2.0 * np.eye(3))

    def test_non_finite_refused(self):
        # numpy's eigvalsh reads [[nan, 0], [0, 1]] as eigenvalues (0, -0)
        g = np.eye(3)
        g[0, 1] = g[1, 0] = math.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            riesz_sequence_check(g)


class TestRestrictionInteraction:
    def test_zero_restriction_gives_zero_operator(self):
        seq = make_geometric(2.0, 2.0, 6)
        tail = restrict_tail(atomic([(0.2, 1.0)]), 4)
        rep = analyze(EmbeddingProblem(seq, tail, 6))
        assert rep.op_norm == 0.0

    def test_sublinear_norm_of_tail_shrinks(self):
        mu = PowerTailMeasure(1.0, 2.0)
        norms = [modulus_report(restrict_tail(mu, m)).sublinear_norm
                 for m in (2, 8, 32)]
        assert norms[0] > norms[1] > norms[2]


EXP_FLOOR = -746.0     # exp(x) is exactly 0 in double below this


class _PreSharingPsi(PsiEvaluator):
    """The evaluator before the shared rounds, kept as their oracle: exp
    taken only above EXP_FLOOR with the logs below it set to 0, log psi
    through the signed sum of eval_many, and t* read from one call over all
    1075 probes."""

    def _scaled_terms(self, log_x, k):
        term_logs = np.multiply.outer(self._exponents[k], log_x)
        term_logs += self._log_weights[k][:, None]
        m = term_logs.max(axis=0)
        m = np.where(np.isfinite(m), m, 0.0)
        last = term_logs[-1].copy()
        term_logs -= m
        np.exp(term_logs, out=term_logs, where=term_logs > EXP_FLOOR)
        np.maximum(term_logs, 0.0, out=term_logs)
        return term_logs, m, last

    def log_majorant(self, log_x, big=False):
        if big:
            return super().log_majorant(log_x, big)
        log_abs, _, sound = self.eval_many(log_x, 0)
        return log_abs, sound

    def _unsound_width(self, big):
        unsound = ~self.log_majorant(_PROBE_LOG_X, big)[1]
        if not unsound.any():
            return 0.0
        return min(2.0 ** (1 - int(np.argmax(unsound))), 1.0)


def _pre_sharing_integral(mu, psi, big=False):
    """_psi_squared_integral before the shared rounds: every piece's
    integrand evaluated at every node, warnings of an overflowing majorant
    silenced."""
    old = _PreSharingPsi(lambdas=psi.lambdas, log_inv_d=psi.log_inv_d)
    flat = mu.flattened()
    total = unsound_part = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if flat.has_atoms:
            log_values, sound = old.log_majorant(flat.log_positions, big)
            log_terms = flat.log_weights + 2.0 * log_values
            total += spectral._exp_or_inf(log_sum(log_terms))
            if not np.all(sound):
                unsound_part += spectral._exp_or_inf(log_sum(log_terms[~sound]))
        if flat.has_density:
            t_star = old.big_unsound_width if big else old.unsound_width
            for t_lo, t_hi, h in flat.pieces:
                def integrand(t, h=h):
                    t = np.asarray(t, dtype=float)
                    return np.exp(2.0 * old.log_majorant(np.log1p(-t), big)[0]) * h(t)
                cut = min(t_star, t_hi)
                if t_lo == 0.0:
                    v, _, u = quadrature.integrate_refined_at_zero(
                        integrand, t_hi, cut=cut)
                else:
                    v, _ = quadrature.integrate(integrand, t_lo, t_hi)
                    u = 0.0
                    if cut > t_lo:
                        u, _ = quadrature.integrate(integrand, t_lo, cut)
                total += v
                unsound_part += u
    if not math.isfinite(total):
        return math.inf, False
    return total, unsound_part <= UNSOUND_CONTRIBUTION_RTOL * max(total, 1e-300)


# two density parts of width 1, whose pieces share the first two rounds
_TWO_WIDTH_ONE = lambda: SumMeasure((ScaledMeasure(0.5, lebesgue()),
                                     PowerTailMeasure(1.0, 2.0)))
_HUGE_LAMBDA_SEQUENCES = [make_geometric(lam, 2.0, 8)
                          for lam in (1e16, 1e100, 1e200)]


class TestSharedRounds:
    """psi^2 and Psi^2 on the first two dyadic rounds are evaluated once per
    (width, majorant); the pre-sharing path is the oracle."""

    def test_values_and_flags_match_pre_sharing_path(self):
        measures = {**SPLIT_MEASURES, "two-width-one": _TWO_WIDTH_ONE,
                    "lebesgue": lebesgue,
                    # the rho majorants of the CLI (alpha <= 1) and a steeper one
                    "rho-majorant": lambda: PowerTailMeasure(2.0, 0.7),
                    "rho-majorant-1": lambda: PowerTailMeasure(1.0, 1.0),
                    "rho-majorant-steep": lambda: PowerTailMeasure(1.0, 2.5)}
        verdicts = []
        for seq in SPLIT_SEQUENCES + _HUGE_LAMBDA_SEQUENCES:
            for make_mu in measures.values():
                mu = make_mu()
                for big in (False, True):
                    value, sound = _psi_squared_integral(mu, seq.psi, big)
                    ref, ref_sound = _pre_sharing_integral(mu, seq.psi, big)
                    assert value == pytest.approx(ref, rel=1e-15, abs=0.0)
                    assert sound == ref_sound
                    verdicts.append(sound)
        assert any(verdicts) and not all(verdicts)

    @staticmethod
    def _lanes(monkeypatch):
        """Every log x that log_majorant sees, per call."""
        seen = []
        log_majorant = PsiEvaluator.log_majorant

        def counted(self, log_x, big=False):
            seen.append(np.asarray(log_x, dtype=float).ravel())
            return log_majorant(self, log_x, big)
        monkeypatch.setattr(PsiEvaluator, "log_majorant", counted)
        return seen

    def test_psi_and_rho_read_one_evaluation(self, monkeypatch):
        seq = make_geometric(1.5, 2.0, 12)
        fixed = np.log1p(-quadrature.refined_at_zero_nodes(1.0))
        assert fixed.size == 3912
        seen = self._lanes(monkeypatch)
        psi_certificate(seq, lebesgue())
        rho_certificate(seq, lebesgue(), PowerTailMeasure(1.0, 1.0))
        lanes = np.concatenate(seen)
        # each fixed node once, over both certificates
        assert np.isin(lanes, fixed).sum() == 3912
        assert seq.psi._heads.keys() == {(1.0, False)}

    def test_two_width_one_parts_read_one_evaluation(self, monkeypatch):
        seq = make_geometric(1.5, 2.0, 12)
        fixed = 0.25 * np.log1p(-quadrature.refined_at_zero_nodes(1.0))
        seen = self._lanes(monkeypatch)
        hilbert_schmidt_certificate(seq, _TWO_WIDTH_ONE())
        lanes = 0.25 * np.concatenate(seen)
        assert np.isin(lanes, fixed).sum() == 3912
        assert seq.psi._heads.keys() == {(1.0, True)}


class TestStackedTailPencils:
    """The density tails of the trend go through one stacked eigensolve,
    bit for bit the pencils they were; a tail without a density part keeps
    the factored route."""

    @pytest.mark.parametrize("mu, m_list, stacked", [
        (lebesgue(), [2, 3, 4, 8, 16], 5),
        (PowerTailMeasure(1.0, 2.0, 0.3), [2, 3, 4, 8, 16], 5),
        (SumMeasure((ScaledMeasure(0.5, lebesgue()), PowerTailMeasure(2.0, 1.5),
                     point_mass(0.9, 0.5))), [2, 3, 4, 8, 16], 5),
        # the density [0.55, 0.8] is cut away from m = 5 on
        (SumMeasure((PiecewiseDensityMeasure(np.array([0.55, 0.8]),
                                             np.array([3.0])),
                     point_mass(0.9, 0.5))), [2, 3, 5, 8], 2)],
        ids=["lebesgue", "powertail", "sum", "atom-only-tails"])
    def test_matches_restricted_pencils_in_one_eigensolve(
            self, mu, m_list, stacked, monkeypatch):
        seq = make_geometric(1.0, 2.0, 12)
        want = _restricted_trend(seq, mu, 12, m_list)
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert essential_norm_trend(seq, mu, 12, m_list) == want
        assert shapes == [(stacked, 12, 12)]


class TestHugeMass:
    # a Gramian past the double range: the spectrum and the trend are
    # refused by the measure's mass
    @pytest.mark.parametrize("mu", [
        SumMeasure((lebesgue(), point_mass(0.5, 1e308))),
        PowerTailMeasure(1e308, 2.0)], ids=["lebesgue-atom", "powertail"])
    def test_spectrum_refused_by_mass(self, mu):
        problem = EmbeddingProblem(make_geometric(1.0, 2.0, 8), mu, 8)
        with pytest.raises(NumericalSoundnessError,
                           match="mass 1e\\+308 is beyond the double assembly"):
            analyze(problem)
        with pytest.raises(NumericalSoundnessError, match="mass"):
            essential_norm_trend(problem.sequence, mu, 8, [2, 4])
