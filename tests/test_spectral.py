import math

import mpmath as mp
import numpy as np
import pytest

from muntzlab import (EmbeddingProblem, IllConditionedBasisError,
                      InvalidParameterError, PowerTailMeasure, ScaledMeasure,
                      SumMeasure, analyze, atomic, compact_support_certificate,
                      essential_norm_trend, hilbert_schmidt_certificate,
                      lebesgue, lebesgue_gram, make_explicit, make_geometric,
                      make_power, measure_gram, modulus_report, point_mass,
                      psi_certificate, restrict_tail,
                      rho_certificate, riesz_sequence_check, singular_values,
                      sublinear_embedding_bound)
from muntzlab.geometry import PsiEvaluator
from muntzlab.highprec import generalized_singular_values
from muntzlab import quadrature
from muntzlab.logdomain import log_sum
from muntzlab.measures import (PiecewiseDensityMeasure, default_epsilon_grid,
                               measure_from_config)
from muntzlab.spectral import (PSI_TRUNCATION_FLAG, TAIL_UNSOUND_FLAG,
                               UNSOUND_CONTRIBUTION_RTOL, AssumptionCheck,
                               _psi_squared_integral, _squared_majorant_logs,
                               _unsound_tail_width)


class TestMeasureGram:
    def test_rank_one_atom(self):
        g = measure_gram(make_explicit([1.0]), point_mass(0.5), 1)
        np.testing.assert_allclose(g.entries, [[0.25]])

    def test_lebesgue_matches_closed_form(self):
        seq = make_explicit([1.0, 2.0])
        a = measure_gram(seq, lebesgue(), 2)
        b = lebesgue_gram(seq)
        np.testing.assert_allclose(a.entries, b.entries, rtol=1e-14)

    def test_cross_entry(self):
        a = measure_gram(make_explicit([1.0, 2.0]), point_mass(0.5), 2)
        assert a.entries[0, 1] == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-14)

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
        assert np.array_equal(measure_gram(seq, mu).entries, full)


class TestSingularValues:
    def test_hand_computed_rank_one(self):
        s = singular_values(np.array([[0.25]]), np.array([[1 / 3]]))
        assert s[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_identity_when_equal(self):
        b = lebesgue_gram(make_geometric(2.0, 2.0, 8)).entries
        s = singular_values(b, b)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_scaled_measure(self):
        b = lebesgue_gram(make_geometric(2.0, 2.0, 6)).entries
        s = singular_values(2.25 * b, b)
        np.testing.assert_allclose(s, 1.5, atol=1e-12)

    def test_ill_conditioned_raises(self):
        seq = make_power(2.0, 32)
        b = lebesgue_gram(seq).entries
        with pytest.raises(IllConditionedBasisError):
            singular_values(b, b)

    def test_extended_precision_path(self):
        seq = make_power(2.0, 12)
        a = measure_gram(seq, point_mass(0.5), 12).entries
        b = lebesgue_gram(seq).entries
        fast = singular_values(a, b)
        slow = generalized_singular_values(a, b)
        assert slow[0] == pytest.approx(fast[0], rel=1e-6)

    def test_factored_route_matches_pencil(self):
        # analyze() takes the factored SVD route for atomic measures; the
        # leading values must agree with the generic pencil solve
        seq = make_geometric(2.0, 2.0, 10)
        mu = atomic([(0.3, 1.0), (0.55, 0.5), (0.8, 0.25), (0.95, 0.1)])
        via_analyze = analyze(EmbeddingProblem(seq, mu, 10)).singular_values
        a = measure_gram(seq, mu, 10)
        b = lebesgue_gram(seq)
        via_pencil = singular_values(a, b)
        np.testing.assert_allclose(via_analyze[:4], via_pencil[:4], rtol=1e-7)
        assert np.all(via_analyze[4:] == 0.0)


class TestAnalyze:
    def test_rank_one_report(self):
        rep = analyze(EmbeddingProblem(make_explicit([1.0]), point_mass(0.5), 1))
        assert rep.op_norm == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        for value in rep.schatten.values():
            assert value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

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
        # trend points are read as leading blocks of the one factorization
        # at N; a blocked Cholesky rounds differently from a factorization
        # at the smaller size, so agreement is close but not bitwise
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

    def test_m_list_validation(self):
        seq = make_explicit([1.0])
        with pytest.raises(InvalidParameterError):
            essential_norm_trend(seq, lebesgue(), 1, [4, 2])


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

    def test_hilbert_schmidt_powertail_finite_and_s2_converges(self):
        seq = make_geometric(2.0, 2.0, 24)
        mu = PowerTailMeasure(1.0, 3.0)
        cert = hilbert_schmidt_certificate(seq, mu)
        assert math.isfinite(cert.value)
        s2 = [analyze(EmbeddingProblem(seq, mu, n), q_set=(2.0,)).schatten[2.0]
              for n in (12, 18, 24)]
        assert (s2[2] - s2[1]) < (s2[1] - s2[0])
        assert (s2[2] - s2[1]) / s2[2] < 1e-3


def _scan_tail_width(psi, transform):
    """The dyadic scan the bisection replaced: the first unsound probe
    t = 2^-j from j = 0 on (t = 1 taken as 1 - 1e-16)."""
    t = 1.0
    for _ in range(1080):
        probe = min(t, 1.0 - 1e-16)
        if not _squared_majorant_logs(psi, math.log1p(-probe), transform)[1]:
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
    @pytest.mark.parametrize("transform", [None, "big"])
    def test_bisection_matches_scan(self, transform, monkeypatch):
        calls = []
        log_eval = PsiEvaluator.log_eval

        def counted(self, log_x, k=0):
            calls.append(log_x)
            return log_eval(self, log_x, k)

        rng = np.random.default_rng(6)
        widths = set()
        for _ in range(24):
            seq = make_geometric(float(rng.uniform(0.5, 3.0)),
                                 float(rng.uniform(1.5, 3.0)),
                                 int(rng.integers(1, 33)))
            psi = PsiEvaluator.from_sequence(seq)
            expected = _scan_tail_width(psi, transform)
            monkeypatch.setattr(PsiEvaluator, "log_eval", counted)
            calls.clear()
            assert _unsound_tail_width(psi, transform) == expected
            monkeypatch.setattr(PsiEvaluator, "log_eval", log_eval)
            # bisection over the 1075 probes; two evaluations per big probe
            assert len(calls) <= 11 * (2 if transform == "big" else 1)
            widths.add(expected)
        assert len(widths) >= 4



def _old_psi_squared_integral(mu, psi, transform=None):
    """The integral before the unsound part was read from the total's cells:
    one eval_many call per order, and (0, t*] integrated a second time."""
    flat = mu.flattened()
    total = unsound_part = 0.0
    if flat.has_atoms:
        log_terms, unsound_logs = [], []
        for log_a, log_c in zip(flat.log_positions, flat.log_weights):
            log_sq, snd = _squared_majorant_logs(psi, log_a, transform)
            log_terms.append(log_c + log_sq)
            if not snd:
                unsound_logs.append(log_c + log_sq)
        total += math.exp(log_sum(log_terms))
        if unsound_logs:
            unsound_part += math.exp(log_sum(unsound_logs))
    if flat.has_density:
        t_star = _unsound_tail_width(psi, transform)

        def values(t):
            log_x = np.log1p(-np.asarray(t, dtype=float))
            if transform == "big":
                d1, _ = psi.eval_many(0.25 * log_x, 1)
                d0, _ = psi.eval_many(0.25 * log_x, 0)
                return (d1 * d0) ** 2
            return psi.eval_many(log_x, 0)[0] ** 2

        for t_lo, t_hi, h, _singular in flat.pieces:
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
                for transform in (None, "big"):
                    value, sound = _psi_squared_integral(mu, psi, transform)
                    ref, ref_sound = _old_psi_squared_integral(mu, psi, transform)
                    assert (value, sound) == (ref, ref_sound)
                    verdicts.append(sound)
        assert len(verdicts) >= 20 and any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("name", sorted(SPLIT_MEASURES))
    def test_certificate_flags_match(self, name):
        for seq in SPLIT_SEQUENCES[::2]:
            psi = PsiEvaluator.from_sequence(seq)
            mu = SPLIT_MEASURES[name]()
            for cert, transform in ((psi_certificate(seq, mu, psi), None),
                                    (hilbert_schmidt_certificate(seq, mu, psi), "big")):
                _, ref_sound = _old_psi_squared_integral(mu, psi, transform)
                assert ("psi-tail-unsound" not in cert.flags) == ref_sound


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
        vals, snd = psi.eval_many(np.log1p(-t), 0)
        if not np.all(snd):
            sound_box[0] = False
        return vals ** 2 * (coefficient * alpha * np.asarray(t) ** (alpha - 1.0))

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
            psi = PsiEvaluator.from_sequence(seq)
            for name, (make_mu, c, alpha) in RHO_CASES.items():
                mu, majorant = make_mu(), PowerTailMeasure(c, alpha)
                cert = rho_certificate(seq, mu, majorant, psi)
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
            psi = PsiEvaluator.from_sequence(seq)
            rho = rho_certificate(seq, mu, mu, psi)
            plain = psi_certificate(seq, mu, psi)
            assert rho.assumptions[0].ok
            assert (rho.value, rho.flags) == (plain.value, plain.flags)


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
        psi = PsiEvaluator.from_sequence(seq)
        exact = _exact_squared_norm(np.exp(psi.log_inv_d), psi.lambdas, moment)
        value = psi_certificate(seq, make_mu(), psi).value
        assert value ** 2 == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("kind", sorted(EXACT_MOMENTS))
    @pytest.mark.parametrize("ratio, n", [(1.5, 1), (1.5, 6), (2.0, 3),
                                          (3.0, 5)])
    def test_hilbert_schmidt(self, kind, ratio, n):
        make_mu, moment = EXACT_MOMENTS[kind]
        seq = make_geometric(2.0, ratio, n)
        psi = PsiEvaluator.from_sequence(seq)
        w, lam = np.exp(psi.log_inv_d), psi.lambdas
        exact = _exact_squared_norm(np.outer(w * lam, w).ravel(),
                                    0.25 * (lam[:, None] + lam[None, :] - 1.0).ravel(),
                                    moment)
        value = hilbert_schmidt_certificate(seq, make_mu(), psi).value
        assert value == pytest.approx(exact, rel=1e-9)


class TestSublinearBound:
    def test_lebesgue_equality_case(self):
        seq = make_geometric(2.0, 2.0, 16)
        cert = sublinear_embedding_bound(seq, lebesgue(), 16)
        assert cert.comparable
        b = lebesgue_gram(seq).entries
        eigs = np.linalg.eigvalsh(b)
        assert cert.value == pytest.approx(math.sqrt(eigs[-1] / eigs[0]),
                                           rel=1e-10)

    def test_scaling(self):
        seq = make_geometric(2.0, 2.0, 12)
        mu = PowerTailMeasure(1.0, 2.0)
        c1 = sublinear_embedding_bound(seq, mu, 12)
        c2 = sublinear_embedding_bound(seq, ScaledMeasure(4.0, mu), 12)
        assert c2.value == pytest.approx(2.0 * c1.value, rel=1e-12)

    def test_dominates_op_norm(self):
        seq = make_geometric(2.0, 2.0, 16)
        for mu in (PowerTailMeasure(1.0, 2.0),
                   atomic([(0.5, 0.5), (0.75, 0.25), (0.9, 0.1)])):
            cert = sublinear_embedding_bound(seq, mu, 16)
            op = analyze(EmbeddingProblem(seq, mu, 16)).op_norm
            assert cert.comparable and cert.value >= op - 1e-10

    def test_power_sequence_still_lacunary_at_truncation(self):
        # every finite truncation has min ratio > 1, so the assumption is
        # recorded as holding (truncation honesty: no infinite-sequence claim)
        cert = sublinear_embedding_bound(make_power(2.0, 10), lebesgue(), 10)
        assert cert.comparable

    def test_non_sublinear_not_comparable(self):
        cert = sublinear_embedding_bound(make_geometric(2.0, 2.0, 8),
                                         PowerTailMeasure(1.0, 0.5), 8)
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
