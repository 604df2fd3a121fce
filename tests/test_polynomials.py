import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muntzlab import (InvalidParameterError, MuntzPolynomial, make_explicit,
                      make_geometric, polynomials, suites)
from muntzlab.polynomials import SUP_GRID, sorted_distinct


def _exp_outer(exponents, x):
    """x**e by exp(outer(e, log x)), with 0 * -inf read as 0 (x**0 = 1),
    the evaluation the sup norms were defined by before the grid tables."""
    with np.errstate(divide="ignore"):
        log_x = np.where(x > 0.0, np.log(x), -np.inf)
    with np.errstate(invalid="ignore"):
        log_terms = np.outer(exponents, log_x)
    log_terms[np.isnan(log_terms)] = 0.0
    return np.exp(log_terms)


def _in_order(coefficients, table):
    """sum_k c_k table[k], the terms added in the order of k, as the
    evaluation adds them: the sum of one point reads the same alone or
    inside an array, which a BLAS product does not promise."""
    out = coefficients[0] * table[0]
    for c, row in zip(coefficients[1:], table[1:]):
        out = out + c * row
    return out


def _random_sequences():
    """Sequences with lambda_1 < 1, = 1 and > 1."""
    rng = np.random.default_rng(2026)
    for first in (rng.uniform(0.05, 0.95), 1.0, rng.uniform(1.05, 4.0)):
        for count in (1, 3, 7):
            steps = rng.uniform(0.2, 3.0, size=count - 1)
            yield make_explicit(np.concatenate([[first], first + np.cumsum(steps)]))


class TestSortedDistinct:
    def test_grid_is_np_unique_of_its_points(self):
        points = np.concatenate([
            0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                            polynomials.SUP_GRID_SIZE))),
            1.0 - 2.0 ** -np.arange(1, 48, dtype=float), [0.0, 1.0]])
        assert SUP_GRID.tobytes() == np.unique(points).tobytes()
        assert SUP_GRID.size < points.size     # the duplicates are dropped

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, 0.75]),
                    max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_np_unique(self, values):
        values = np.array(values, dtype=float)
        got = sorted_distinct(values)
        assert got.dtype == np.float64
        assert got.tobytes() == np.unique(values).tobytes()


class TestSupNorms:
    def test_sup_norms_bit_identical_to_evaluation(self):
        rng = np.random.default_rng(7)
        for seq in _random_sequences():
            grid = SUP_GRID[SUP_GRID > 0.0] if seq[0] < 1.0 else SUP_GRID
            for _ in range(5):
                f = MuntzPolynomial(seq, rng.standard_normal(len(seq)))
                vals = np.abs(f(SUP_GRID))
                assert np.array_equal(
                    vals, np.abs(_in_order(f.coefficients,
                                           _exp_outer(seq.values, SUP_GRID))))
                k = int(np.argmax(vals))
                assert f.sup_norm() == (vals[k], SUP_GRID[k], True)
                dvals = np.abs(f.derivative(grid))
                assert np.array_equal(dvals, np.abs(_in_order(
                    f.coefficients * seq.values,
                    _exp_outer(seq.values - 1.0, grid))))
                k = int(np.argmax(dvals))
                assert f.derivative_sup_norm() == (dvals[k], grid[k], True)

    def test_tables_read_only_and_built_once(self, monkeypatch):
        seq = make_geometric(0.5, 2.0, 4)
        calls = []
        powers = polynomials.powers
        monkeypatch.setattr(polynomials, "powers", lambda e, log_x: (
            calls.append(len(log_x)) or powers(e, log_x)))
        rng = np.random.default_rng(3)
        for _ in range(3):
            f = MuntzPolynomial(seq, rng.standard_normal(4))
            f.sup_norm()
            f.derivative_sup_norm()
        assert calls == [SUP_GRID.size, SUP_GRID.size - 1]
        for table in (seq.sup_powers, seq.sup_derivative_powers):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_inequality_suite_builds_the_grid_tables_once(self, monkeypatch):
        # the suite behind ``check inequalities --instances 4``: one sequence
        big = []
        powers = polynomials.powers

        def spy(exponents, log_x):
            if len(log_x) >= SUP_GRID.size - 1:
                big.append(len(log_x))
            return powers(exponents, log_x)

        monkeypatch.setattr(polynomials, "powers", spy)
        assert suites.inequality_suite(instances=4, seed=20240901).ok
        assert big == [SUP_GRID.size, SUP_GRID.size]


class TestDerivativeAtZero:
    @pytest.mark.parametrize("coefficients, expected", [
        ((0.0, 1.0), 0.0), ((1.0, 0.0), np.inf), ((-1.0, 1.0), -np.inf)])
    def test_zero_terms_add_nothing(self, coefficients, expected):
        f = MuntzPolynomial(make_explicit([0.5, 2.0]), np.array(coefficients))
        assert f.derivative(0.0) == expected

    def test_finite_values_unchanged(self):
        # every point where the unmasked sum is finite reads as it did
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
        for seq in _random_sequences():
            coeffs = rng.standard_normal(len(seq))
            coeffs[rng.uniform(size=len(seq)) < 0.4] = 0.0
            f = MuntzPolynomial(seq, coeffs)
            with np.errstate(invalid="ignore"):
                old = _in_order(coeffs * seq.values,
                                _exp_outer(seq.values - 1.0, x))
            finite = np.isfinite(old)
            assert np.array_equal(f.derivative(x)[finite], old[finite])


class TestDomain:
    F = MuntzPolynomial(make_explicit([1.0, 2.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("x", [np.nan, -0.5, 1.5, -np.inf, np.inf])
    def test_outside_unit_interval_refused(self, x):
        # NaN and negative x read as x = 0 before: f(nan) = 0, f'(nan) = 1
        with pytest.raises(InvalidParameterError):
            self.F(x)
        with pytest.raises(InvalidParameterError):
            self.F.derivative(x)
        with pytest.raises(InvalidParameterError):
            self.F(np.array([0.25, x]))

    def test_in_range_values_unchanged(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([[0.0, 1.0, 5e-324], rng.uniform(0.0, 1.0, 200)])
        for seq in _random_sequences():
            f = MuntzPolynomial(seq, rng.standard_normal(len(seq)))
            assert np.array_equal(f(x), _in_order(f.coefficients,
                                                  _exp_outer(seq.values, x)))
            for v in x[:8]:
                assert f(float(v)) == _in_order(
                    f.coefficients, _exp_outer(seq.values, np.array([v])))[0]
                assert f.derivative(float(v)) == f.derivative(np.array([v]))[0]


class TestBatchIndependence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 12),
           points=st.integers(2, 64))
    def test_scalar_reads_its_array_entry(self, seed, count, points):
        # a BLAS product rounds one column differently from many, so f(x)
        # and f(xs)[i] could differ in the last bit
        rng = np.random.default_rng(seed)
        first = rng.uniform(0.05, 4.0)
        seq = make_explicit(first + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.2, 3.0, count - 1))]))
        f = MuntzPolynomial(seq, rng.standard_normal(count))
        xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, points)])
        values = f(xs)
        with np.errstate(invalid="ignore"):
            slopes = f.derivative(xs)
        for i, x in enumerate(xs.tolist()):
            assert f(x) == values[i]
            with np.errstate(invalid="ignore"):
                slope = f.derivative(x)
            assert slope == slopes[i] or (np.isnan(slope) and np.isnan(slopes[i]))
