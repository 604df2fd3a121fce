import math

import mpmath as mp
import numpy as np
import pytest

from muntzlab import InvalidParameterError, distances, make_explicit
from muntzlab.highprec import distance_oracle


def _solve_oracle(lams, n, prec_bits=200):
    """The oracle before the one-factorization rewrite, kept as its
    reference: the whole Gram as an mp.matrix, (G^-1)_nn from
    cholesky_solve against e_n, and d_n = (G^-1)_nn^-1/2."""
    lams = list(lams)
    with mp.workprec(prec_bits):
        vals = [mp.mpf(float(x)) for x in lams]
        size = len(vals)
        g = mp.matrix(size, size)
        for i in range(size):
            for j in range(size):
                g[i, j] = 1 / (vals[i] + vals[j] + 1)
        e = mp.matrix([mp.mpf(1) if i == n - 1 else mp.mpf(0)
                       for i in range(size)])
        y = mp.cholesky_solve(g, e)
        return float(mp.sqrt(1 / y[n - 1]))


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
            assert row == [_solve_oracle(lams, n)
                           for n in range(1, len(lams) + 1)], lams
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
