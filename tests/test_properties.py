"""Property-based tests of the core invariants on randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muntzlab import (PowerTailMeasure, ScaledMeasure, SumMeasure, atomic,
                      classify, distances, lebesgue, make_explicit,
                      make_geometric, modulus_report, point_mass)
from muntzlab.highprec import distance_oracle

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def lambda_lists(draw, max_size=8, max_value=1000.0):
    size = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(st.lists(
        st.floats(min_value=0.05, max_value=max_value), min_size=size,
        max_size=size, unique=True))
    values = sorted(values)
    # keep exponents separated so the system is numerically distinct
    if any(b - a < 1e-3 * max(1.0, a) for a, b in zip(values, values[1:])):
        values = [v + 1.1 * i for i, v in enumerate(values)]
    return values


@st.composite
def simple_measures(draw):
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        size = draw(st.integers(min_value=1, max_value=3))
        pos = draw(st.lists(st.floats(min_value=0.05, max_value=0.95),
                            min_size=size, max_size=size, unique=True))
        wts = draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                            min_size=size, max_size=size))
        return atomic(list(zip(pos, wts)))
    if kind == 1:
        return PowerTailMeasure(draw(st.floats(min_value=0.2, max_value=3.0)),
                                draw(st.floats(min_value=0.5, max_value=3.0)))
    return ScaledMeasure(draw(st.floats(min_value=0.2, max_value=3.0)),
                         lebesgue())


class TestSequenceProperties:
    @given(lam1=st.floats(min_value=0.01, max_value=100.0),
           ratio=st.floats(min_value=1.01, max_value=10.0),
           count=st.integers(min_value=2, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_geometric_min_ratio_is_ratio(self, lam1, ratio, count):
        rep = classify(make_geometric(lam1, ratio, count))
        assert rep.min_ratio == pytest.approx(ratio, rel=1e-14)
        assert rep.max_ratio == pytest.approx(ratio, rel=1e-14)

    @given(lams=lambda_lists())
    @settings(max_examples=40, deadline=None)
    def test_distance_monotone_under_extension(self, lams):
        seq = make_explicit(lams)
        if len(seq) < 2:
            return
        big = distances(seq).d
        small = distances(seq.truncate(len(seq) - 1)).d
        assert np.all(big[:-1] <= small * (1.0 + 1e-12))

    @given(lams=lambda_lists(max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_distance_product_formula_vs_oracle(self, lams):
        table = distances(make_explicit(lams))
        n = len(lams)
        for i in (1, n):
            oracle = distance_oracle(lams, i, prec_bits=200)
            assert table.d[i - 1] == pytest.approx(oracle, rel=1e-8)


class TestMeasureProperties:
    @given(mu=simple_measures(), s=st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=60, deadline=None)
    def test_moment_additivity_and_scaling(self, mu, s):
        other = point_mass(0.5, 0.7)
        assert SumMeasure((mu, other)).moment(s) == pytest.approx(
            mu.moment(s) + other.moment(s), rel=1e-12)
        assert ScaledMeasure(2.5, mu).moment(s) == pytest.approx(
            2.5 * mu.moment(s), rel=1e-12)

    @given(mu=simple_measures(),
           s1=st.floats(min_value=0.0, max_value=20.0),
           s2=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_moment_monotone_decreasing(self, mu, s1, s2):
        lo, hi = min(s1, s2), max(s1, s2)
        if hi - lo < 1e-9:
            return
        assert mu.moment(hi) < mu.moment(lo) * (1.0 + 1e-12)

    @given(mu=simple_measures(),
           e1=st.floats(min_value=1e-6, max_value=1.0),
           e2=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_tail_mass_monotone(self, mu, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert mu.tail_mass(lo) <= mu.tail_mass(hi) + 1e-15

    @given(mu=simple_measures())
    @settings(max_examples=40, deadline=None)
    def test_sublinear_norm_dominates_ratios(self, mu):
        rep = modulus_report(mu)
        assert rep.sublinear_norm >= rep.ratios.max() * (1.0 - 1e-12)

    @given(mu=simple_measures(), s=st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=60, deadline=None)
    def test_lemma_increasing_vs_lebesgue(self, mu, s):
        # integral x^s dmu <= ||mu||_S / (s+1)
        norm = modulus_report(mu).sublinear_norm
        if not math.isfinite(norm):
            return
        assert mu.moment(s) <= norm / (s + 1.0) + 1e-12
