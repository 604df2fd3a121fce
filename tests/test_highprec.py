import math

import mpmath as mp
import numpy as np
import pytest

from muntzlab import InvalidParameterError, distances, make_explicit
from muntzlab.highprec import distance_oracle


def _solve_oracle(lams, prec_bits=200):
    """Every d_n of ``lams`` by an independent mpmath route, kept as the
    oracle's reference: the whole Gram as an mp.matrix, one mp.inverse, and
    d_n = (G^-1)_nn^-1/2."""
    with mp.workprec(prec_bits):
        vals = [mp.mpf(float(x)) for x in lams]
        size = len(vals)
        g = mp.matrix(size, size)
        for i in range(size):
            for j in range(size):
                g[i, j] = 1 / (vals[i] + vals[j] + 1)
        inv = mp.inverse(g)
        return [float(mp.sqrt(1 / inv[n, n])) for n in range(size)]


def _random_sequences(count=200, seed=2024):
    """Sorted exponent lists of 2..16 entries: uniform, geometric, and
    uniform with one pair at relative gap 1e-2..1e-8."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        size = int(rng.integers(2, 17))
        kind = len(out) % 3
        if kind == 0:
            lams = np.sort(rng.uniform(0.01, 50.0, size))
        elif kind == 1:
            lams = (float(rng.uniform(0.1, 3.0))
                    * float(rng.uniform(1.05, 3.0)) ** np.arange(size))
        else:
            lams = np.sort(rng.uniform(0.1, 20.0, size))
            k = int(rng.integers(0, size - 1))
            lams[k + 1] = lams[k] * (1.0 + 10.0 ** -rng.uniform(2.0, 8.0))
        lams = [float(x) for x in lams]
        if len(set(lams)) == size:
            out.append(lams)
    return out


SEQUENCES = _random_sequences()


@pytest.fixture(scope="module")
def oracle_rows():
    return [[distance_oracle(lams, n) for n in range(1, len(lams) + 1)]
            for lams in SEQUENCES]


class TestDistanceOracle:
    def test_matches_solve_reference_bit_for_bit(self, oracle_rows):
        near_equal = 0
        for lams, row in zip(SEQUENCES, oracle_rows):
            near_equal += min(np.diff(lams) / lams[:-1]) < 1e-2
            assert row == _solve_oracle(lams), lams
        assert near_equal >= 60

    def test_matches_closed_form_distances(self, oracle_rows):
        for lams, row in zip(SEQUENCES, oracle_rows):
            np.testing.assert_allclose(row, distances(make_explicit(lams)).d,
                                       rtol=1e-12, atol=0.0)

    def test_two_exponents_closed_form(self):
        # dist(x, span{x^2})^2 = 1/3 - (1/4)^2/(1/5) = 1/48
        assert distance_oracle([1.0, 2.0], 1) == pytest.approx(
            math.sqrt(1.0 / 48.0), rel=1e-15)
        assert distance_oracle([5.0], 1) == pytest.approx(
            1.0 / math.sqrt(11.0), rel=1e-15)

    @pytest.mark.parametrize("n", [0, 3])
    def test_index_outside_refused(self, n):
        with pytest.raises(InvalidParameterError, match="outside 1..2"):
            distance_oracle([1.0, 2.0], n)

    def test_equal_exponents_refused(self):
        with pytest.raises(InvalidParameterError, match="positive definite"):
            distance_oracle([1.0, 1.0], 2)

    @pytest.mark.parametrize("lams", [[-0.5, 1.0], [1.0, -2.0], [math.nan, 1.0],
                                      [1.0, math.inf], [-math.inf, 1.0]],
                             ids=["minus-half", "below", "nan", "inf", "-inf"])
    def test_exponent_outside_l2_refused(self, lams):
        # x^lambda is in L^2[0, 1] only for a finite lambda above -1/2
        with pytest.raises(InvalidParameterError, match=r"not in L\^2"):
            distance_oracle(lams, 1)

    @pytest.mark.parametrize("n", [1.5, True, "1", None, math.nan])
    def test_index_not_whole_refused(self, n):
        with pytest.raises(InvalidParameterError, match="not a whole number"):
            distance_oracle([1.0, 2.0], n)

    def test_whole_index_of_any_type(self):
        want = distance_oracle([1.0, 2.0], 2)
        assert distance_oracle([1.0, 2.0], 2.0) == want
        assert distance_oracle([1.0, 2.0], np.int64(2)) == want

    @pytest.mark.parametrize("lams", [[1.0, 1.0 + 1e-9],
                                      [0.5, 1.0, 1.0 + 1e-8, 3.0]])
    def test_prec_bits(self, lams):
        # a near-equal pair is refused at single and double precision, and
        # 200 bits already give the double that 300 bits give
        for bits in (24, 53):
            for n in range(1, len(lams) + 1):
                with pytest.raises(InvalidParameterError,
                                   match=f"positive definite at {bits} bits"):
                    distance_oracle(lams, n, prec_bits=bits)
        for n in range(1, len(lams) + 1):
            assert (distance_oracle(lams, n, prec_bits=200)
                    == distance_oracle(lams, n, prec_bits=300))
