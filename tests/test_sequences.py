import math

import numpy as np
import pytest

from muntzlab import (InvalidParameterError, QuasilacunarityNotWitnessedError,
                      classify, find_blocks, make_explicit, make_geometric,
                      make_power, sequence_from_config)


class TestGenerators:
    def test_geometric_paper_case(self):
        seq = make_geometric(2.0, 2.0, 5)
        np.testing.assert_allclose(seq.values, [2, 4, 8, 16, 32])

    def test_geometric_single(self):
        assert make_geometric(1.0, 3.0, 1).values.tolist() == [1.0]

    def test_geometric_fractional(self):
        np.testing.assert_allclose(make_geometric(0.5, 1.5, 3).values,
                                   [0.5, 0.75, 1.125])

    def test_geometric_rejects_ratio(self):
        with pytest.raises(InvalidParameterError):
            make_geometric(1.0, 1.0, 4)

    def test_power_paper_case(self):
        np.testing.assert_allclose(make_power(2.0, 4).values, [1, 4, 9, 16])

    def test_power_single(self):
        assert make_power(2.0, 1).values.tolist() == [1.0]

    def test_power_cubes(self):
        np.testing.assert_allclose(make_power(3.0, 3).values, [1, 8, 27])

    def test_power_rejects_muntz_divergent(self):
        with pytest.raises(InvalidParameterError):
            make_power(1.0, 4)

    def test_explicit_must_increase(self):
        with pytest.raises(InvalidParameterError):
            make_explicit([1.0, 1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            make_explicit([-1.0, 2.0])


class TestClassify:
    def test_geometric_min_ratio_exact(self):
        rep = classify(make_geometric(2.0, 2.0, 10))
        assert rep.min_ratio == pytest.approx(2.0, rel=1e-14)
        assert rep.is_lacunary(2.0)

    def test_power_ratios_decay(self):
        rep = classify(make_power(2.0, 10))
        assert rep.min_ratio == pytest.approx((10 / 9) ** 2, rel=1e-12)
        assert rep.max_ratio == pytest.approx(4.0)
        assert not rep.is_lacunary(2.3)

    def test_degenerate_single(self):
        rep = classify(make_explicit([1.0]))
        assert rep.degenerate and math.isinf(rep.min_ratio)

    def test_muntz_sum_bounded_by_zeta(self):
        previous = 0.0
        for count in (5, 10, 50, 200):
            s = classify(make_power(2.0, count)).muntz_sum
            assert s > previous
            # tail bound: zeta(2) - sum_{n<=N} 1/n^2 < 1/N
            assert s < math.pi ** 2 / 6
            assert math.pi ** 2 / 6 - s < 1.0 / count
            previous = s


class TestBlocks:
    def test_lacunary_blocks_are_singletons(self):
        block = find_blocks(make_geometric(2.0, 2.0, 8), 2.0)
        assert block.block_bound == 1
        assert block.starts == tuple(range(1, 9))

    def test_greedy_hand_run(self):
        block = find_blocks(make_explicit([1, 1.1, 1.2, 2.4, 2.5, 5.0]), 2.0)
        assert block.starts == (1, 4, 6)
        assert block.block_bound == 3

    def test_power_sequence_not_witnessed(self):
        with pytest.raises(QuasilacunarityNotWitnessedError):
            find_blocks(make_power(2.0, 10), 4.0)

    def test_block_ratio_invariant(self):
        seq = make_explicit([1, 1.05, 2.2, 2.3, 4.8, 10.0])
        block = find_blocks(seq, 2.0)
        starts = block.starts
        for a, b in zip(starts[:-1], starts[1:]):
            assert seq.values[b - 1] / seq.values[a - 1] >= 2.0


class TestConfig:
    def test_round_trip(self):
        for spec in ({"kind": "geometric", "lambda1": 2, "ratio": 2, "count": 10},
                     {"kind": "power", "exponent": 2, "count": 10},
                     {"kind": "explicit", "values": [1.0, 2.5, 7.0]}):
            seq = sequence_from_config(spec)
            again = sequence_from_config(seq.to_config())
            np.testing.assert_array_equal(seq.values, again.values)

    def test_missing_field_named(self):
        with pytest.raises(InvalidParameterError, match="ratio"):
            sequence_from_config({"kind": "geometric", "lambda1": 2, "count": 3})
