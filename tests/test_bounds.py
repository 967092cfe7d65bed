import math

import numpy as np
import pytest

from oclust.bounds import (
    LowerBoundInputs,
    fano_zero_query_hellinger,
    fano_zero_query_kl,
    lb_error_prob,
    lb_query_budget,
)
from oclust.divergence import bernoulli, hellinger2, symmetric_kl


def sparse_bernoulli(a_prime: float, n: int):
    return bernoulli(a_prime * math.log(n) / n)


class TestLemma1:
    def test_zero_budget_zero_divergence(self):
        for k in (20, 100, 1000):
            inputs = LowerBoundInputs(n=4 * k, k=k, a=4, q_budget=0.0, h=0.0)
            assert lb_error_prob(inputs) == pytest.approx(1.0 - 2.0 / k)
            assert lb_error_prob(inputs) >= 0.9

    def test_nonincreasing_in_budget(self):
        values = []
        for q in np.linspace(0.0, 5000.0, 100):
            inputs = LowerBoundInputs(n=800, k=40, a=20, q_budget=float(q), h=0.05)
            values.append(lb_error_prob(inputs))
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_theorem_regime_keeps_constant_error(self):
        # a = floor(1/(9 h^2)), Q = a k^2 / 72 at k = 1000; with h^2 = 0.03
        # the floor slack leaves a clear sixth-ish of error probability
        # (frozen evaluation: 0.20146...)
        h2 = 0.03
        a = math.floor(1.0 / (9.0 * h2))
        k = 1000
        inputs = LowerBoundInputs(
            n=a * k, k=k, a=a, q_budget=a * k * k / 72.0, h=math.sqrt(h2)
        )
        value = lb_error_prob(inputs)
        assert value == pytest.approx(0.20146348246661383, abs=1e-12)
        assert value >= 0.15

    def test_clamped_to_unit_interval(self):
        inputs = LowerBoundInputs(n=200, k=2, a=100, q_budget=1e9, h=1.0)
        assert lb_error_prob(inputs) == 0.0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            lb_error_prob(LowerBoundInputs(n=5, k=1, a=5, q_budget=0.0, h=0.1))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            LowerBoundInputs(n=9, k=2, a=4, q_budget=0.0, h=0.1)  # n != a k
        with pytest.raises(ValueError):
            LowerBoundInputs(n=8, k=2, a=4, q_budget=0.0, h=1.5)

    @pytest.mark.parametrize("q_budget", [math.nan, math.inf, -1.0])
    def test_query_budget_must_be_finite_and_nonnegative(self, q_budget):
        with pytest.raises(ValueError, match="query budget"):
            LowerBoundInputs(n=12, k=4, a=3, q_budget=q_budget, h=0.1)


class TestQueryBudget:
    def test_perfect_side_information(self):
        assert lb_query_budget(100, 10, 1.0) == min(1000, 100)

    def test_useless_side_information(self):
        assert lb_query_budget(100, 10, 0.0) == 1000.0

    def test_crossover_arithmetic(self):
        assert lb_query_budget(10**4, 10, math.sqrt(0.01)) == pytest.approx(10**4)


class TestFanoKl:
    def test_equal_distributions_leave_log2_slack(self):
        f = bernoulli(0.3)
        n, k = 10**6, 20
        hypotheses = (n * n / 2.0) * (1.0 - 1.0 / k)
        want = 1.0 - math.log(2.0) / math.log(hypotheses)
        assert fano_zero_query_kl(n, k, f, f) == pytest.approx(want, abs=1e-12)

    def test_sparse_regime_positive(self):
        n = 10**6
        fp, fm = sparse_bernoulli(4, n), sparse_bernoulli(1, n)
        value = fano_zero_query_kl(n, 20, fp, fm)
        assert value == pytest.approx(0.760511, abs=1e-4)
        assert value > 0.0
        # the usual sparse-regime shortcut agrees within 15 percent
        shortcut = 1.0 - (4 - 1) * math.log(4 / 1) / 20
        assert value == pytest.approx(shortcut, rel=0.15)

    def test_wide_separation_clamps_to_zero(self):
        n = 10**6
        fp, fm = sparse_bernoulli(40, n), sparse_bernoulli(1, n)
        assert fano_zero_query_kl(n, 5, fp, fm) == 0.0

    def test_nonincreasing_in_divergence(self):
        n, k = 10**5, 10
        values, deltas = [], []
        for a_prime in np.linspace(1.0, 30.0, 30):
            fp = sparse_bernoulli(float(a_prime), n)
            fm = sparse_bernoulli(1.0, n)
            deltas.append(symmetric_kl(fp, fm))
            values.append(fano_zero_query_kl(n, k, fp, fm))
        assert all(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:]))
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_infinite_divergence_clamps(self):
        assert fano_zero_query_kl(100, 4, bernoulli(1.0), bernoulli(0.0)) == 0.0

    def test_approx_mode(self):
        n = 10**6
        fp, fm = sparse_bernoulli(4, n), sparse_bernoulli(1, n)
        exact = fano_zero_query_kl(n, 20, fp, fm, mode="exact")
        approx = fano_zero_query_kl(n, 20, fp, fm, mode="approx")
        assert approx == pytest.approx(exact, rel=0.15)
        with pytest.raises(ValueError):
            fano_zero_query_kl(n, 20, fp, fm, mode="bogus")


class TestFanoHellinger:
    def test_boundary_identical(self):
        f = bernoulli(0.4)
        for n, k in [(100, 10), (10**6, 20)]:
            want = (1.0 - math.sqrt(k / n)) ** 2
            assert fano_zero_query_hellinger(n, k, f, f) == want

    def test_boundary_disjoint(self):
        assert fano_zero_query_hellinger(100, 10, bernoulli(1.0), bernoulli(0.0)) == 0.0

    def test_sparse_regime_positive(self):
        # sqrt(4) - sqrt(1) = 1 < sqrt(20/2), so the bound must be positive
        n = 10**6
        fp, fm = sparse_bernoulli(4, n), sparse_bernoulli(1, n)
        value = fano_zero_query_hellinger(n, 20, fp, fm)
        assert value == pytest.approx(0.246714, abs=1e-4)
        assert value > 0.0

    def test_approx_mode_close_in_sparse_regime(self):
        n = 10**6
        fp, fm = sparse_bernoulli(4, n), sparse_bernoulli(1, n)
        exact = fano_zero_query_hellinger(n, 20, fp, fm, mode="exact")
        approx = fano_zero_query_hellinger(n, 20, fp, fm, mode="approx")
        assert approx == pytest.approx(exact, rel=0.01)

    def test_values_stay_in_unit_interval(self, rng):
        from conftest import random_distribution

        for _ in range(200):
            q = int(rng.integers(2, 6))
            f = random_distribution(rng, q)
            g = random_distribution(rng, q)
            n = int(rng.integers(10, 10**6))
            k = int(rng.integers(2, min(n, 50)))
            for fn in (fano_zero_query_hellinger, fano_zero_query_kl):
                v = fn(n, k, f, g)
                assert 0.0 <= v <= 1.0
