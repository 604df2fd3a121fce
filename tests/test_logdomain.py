import math

import numpy as np
import pytest
from scipy.special import logsumexp

from muntzlab.logdomain import log_sum


class TestLogSum:
    def test_empty_and_all_minus_inf(self):
        assert log_sum([]) == -math.inf == logsumexp(np.array([]))
        assert log_sum([-math.inf, -math.inf]) == -math.inf
        np.testing.assert_array_equal(log_sum(np.zeros((3, 0)), axis=-1),
                                      np.full(3, -math.inf))
        np.testing.assert_array_equal(
            log_sum(np.full((2, 3), -math.inf), axis=0), np.full(3, -math.inf))

    def test_float_over_every_term(self):
        value = log_sum(np.array([[1.0, 2.0], [3.0, -4.0]]))
        assert type(value) is float
        assert value == logsumexp(np.array([[1.0, 2.0], [3.0, -4.0]]))

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_matches_scipy(self, axis):
        # wide ranges, -inf entries and tied maxima
        rng = np.random.default_rng(7)
        for scale in (1.0, 30.0, 800.0):
            terms = rng.normal(size=(6, 5)) * scale
            terms[rng.random(terms.shape) < 0.2] = -math.inf
            terms[:, 2] = terms[:, 1]
            terms[4] = -math.inf
            got = log_sum(terms, axis=axis)
            want = logsumexp(terms, axis=axis)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
