"""Property-based tests of the core invariants on randomized inputs."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from muntzlab import (AtomicMeasure, PiecewiseDensityMeasure,
                      PowerTailMeasure, ScaledMeasure, SumMeasure, atomic,
                      atomic_from_logs, classify, distances, lebesgue,
                      make_explicit, make_geometric, measure_from_config,
                      modulus_report, point_mass)
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
        # atoms are stored by their logs, so positions are distinct there
        pos = draw(st.lists(st.floats(min_value=0.05, max_value=0.95),
                            min_size=size, max_size=size, unique_by=math.log))
        wts = draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                            min_size=size, max_size=size))
        return atomic(list(zip(pos, wts)))
    if kind == 1:
        return PowerTailMeasure(draw(st.floats(min_value=0.2, max_value=3.0)),
                                draw(st.floats(min_value=0.5, max_value=3.0)))
    return ScaledMeasure(draw(st.floats(min_value=0.2, max_value=3.0)),
                         lebesgue())


@st.composite
def config_measures(draw, depth=2):
    """Measures a config can describe (an empty restriction cannot): atomic
    with linear atoms or with near-1 atoms given by their logs, power tails
    with x0 > 0, piecewise densities, and scaled and summed ones nested."""
    kinds = ["linear", "near-1", "powertail", "piecewise"]
    kind = draw(st.sampled_from(kinds + (["scaled", "sum"] if depth else [])))
    if kind == "linear":
        pos = draw(st.lists(st.floats(1e-3, 1.0 - 1e-9), min_size=1,
                            max_size=4, unique_by=math.log))
        wts = draw(st.lists(st.floats(1e-6, 1e3), min_size=len(pos),
                            max_size=len(pos)))
        return atomic(list(zip(pos, wts)))
    if kind == "near-1":
        log_pos = draw(st.lists(st.floats(-1e-3, -1e-300), min_size=1,
                                max_size=4, unique=True))
        log_wts = draw(st.lists(st.floats(-50.0, 50.0), min_size=len(log_pos),
                                max_size=len(log_pos)))
        return atomic_from_logs(log_pos, log_wts)
    if kind == "powertail":
        return PowerTailMeasure(draw(st.floats(1e-2, 1e2)),
                                draw(st.floats(0.05, 10.0)),
                                x0=draw(st.floats(1e-12, 0.999)))
    if kind == "piecewise":
        edges = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5,
                              unique=True))
        densities = draw(st.lists(st.floats(0.0, 10.0), min_size=len(edges) - 1,
                                  max_size=len(edges) - 1))
        assume(any(d > 0.0 for d in densities))
        return PiecewiseDensityMeasure(np.sort(edges), np.array(densities))
    if kind == "scaled":
        return ScaledMeasure(draw(st.floats(1e-3, 1e3)),
                             draw(config_measures(depth - 1)))
    return SumMeasure(tuple(draw(st.lists(config_measures(depth - 1),
                                          min_size=1, max_size=3))))


def _numbers(mu):
    """Every number ``mu`` is built from, as bytes, in a nested tuple."""
    def raw(*values):
        return np.array(values, dtype=float).tobytes()
    if isinstance(mu, AtomicMeasure):
        return ("atomic", mu.log_positions.tobytes(), mu.log_weights.tobytes())
    if isinstance(mu, PowerTailMeasure):
        return ("powertail", raw(mu.coefficient, mu.alpha, mu.x0))
    if isinstance(mu, PiecewiseDensityMeasure):
        return ("piecewise", mu.breakpoints.tobytes(), mu.densities.tobytes())
    if isinstance(mu, ScaledMeasure):
        return ("scaled", raw(mu.scale), _numbers(mu.inner))
    return ("sum", tuple(_numbers(p) for p in mu.parts))


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

    @given(mu=config_measures(),
           s=st.lists(st.floats(0.0, 1e8), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_config_round_trip_is_lossless(self, mu, s):
        config = json.dumps(mu.to_config())
        back = measure_from_config(json.loads(config))
        assert _numbers(back) == _numbers(mu)
        assert json.dumps(back.to_config()) == config
        assert back.log_moments(s).tobytes() == mu.log_moments(s).tobytes()
