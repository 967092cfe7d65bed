import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_distribution
from highprec import dec_hellinger2, dec_kl
from oclust.divergence import (
    Distribution,
    Support,
    bernoulli,
    from_text,
    hellinger,
    hellinger2,
    kl,
    symmetric_kl,
    to_text,
)


def product_distribution(f: Distribution, g: Distribution) -> Distribution:
    """Joint pmf of an independent pair, over a synthetic product support.

    Product support points are the flat indices 0..q_f*q_g-1; only the
    probability structure matters for divergence identities.
    """
    probs = np.outer(f.probs_array, g.probs_array).ravel()
    return Distribution(Support(tuple(range(f.q * g.q))), probs)


class TestSupportAndDistribution:
    def test_support_needs_two_points(self):
        with pytest.raises(ValueError):
            Support((1.0,))

    def test_support_strictly_increasing(self):
        with pytest.raises(ValueError):
            Support((0.0, 0.0))
        with pytest.raises(ValueError):
            Support((1.0, 0.5))

    def test_probs_must_sum_to_one(self):
        s = Support((0.0, 1.0))
        with pytest.raises(ValueError):
            Distribution(s, (0.5, 0.499))
        with pytest.raises(ValueError):
            Distribution(s, (-0.1, 1.1))

    def test_support_values_must_be_finite(self):
        for bad in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                Support(bad)

    def test_probs_must_be_finite(self):
        s = Support((0.0, 1.0))
        for bad in ((math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0), (0.5, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                Distribution(s, bad)

    def test_text_rejects_non_finite(self):
        for text in ("0:nan,1:nan", "0:0.5,1:nan", "0:inf,1:0", "0:0.5,inf:0.5", "nan:0.5,1:0.5"):
            with pytest.raises(ValueError, match="finite"):
                from_text(text)

    def test_distribution_is_immutable(self):
        d = bernoulli(0.3)
        with pytest.raises(AttributeError):
            d.probs = (1.0, 0.0)

    def test_text_round_trip(self):
        d = from_text("0:0.3,1:0.7")
        assert d.support == Support((0.0, 1.0))
        assert d.probs[1] == 0.7
        assert hellinger2(d, bernoulli(0.7)) < 1e-15
        assert from_text(to_text(d)) == d
        # non-integer support values survive the round trip exactly
        d2 = Distribution(Support((0.25, 0.5, 2.0)), (0.2, 0.3, 0.5))
        assert from_text(to_text(d2)) == d2

    def test_text_parse_errors(self):
        with pytest.raises(ValueError):
            from_text("0:0.3,oops")
        with pytest.raises(ValueError):
            from_text("0=1")


class TestHellinger:
    def test_identical_is_zero(self):
        f = bernoulli(0.3)
        assert hellinger2(f, f) == 0.0
        assert hellinger(f, f) == 0.0

    def test_disjoint_is_one(self):
        assert hellinger2(bernoulli(1.0), bernoulli(0.0)) == 1.0
        assert hellinger(bernoulli(1.0), bernoulli(0.0)) == 1.0

    def test_half_vs_tenth_matches_high_precision(self):
        # 0.5 * ((sqrt .5 - sqrt .1)^2 + (sqrt .5 - sqrt .9)^2), frozen from
        # the Decimal oracle
        got = hellinger2(bernoulli(0.5), bernoulli(0.1))
        assert got == pytest.approx(0.10557280900008412, abs=1e-15)
        ref = float(dec_hellinger2((0.5, 0.5), (0.9, 0.1)))
        assert abs(got - ref) <= 1e-12

    def test_sqrt_consistency(self, rng):
        for _ in range(200):
            q = int(rng.integers(2, 9))
            f, g = random_distribution(rng, q), random_distribution(rng, q)
            assert abs(hellinger(f, g) ** 2 - hellinger2(f, g)) <= 1e-12

    def test_support_mismatch(self):
        f = bernoulli(0.5)
        g = Distribution(Support((0.0, 2.0)), (0.5, 0.5))
        with pytest.raises(ValueError, match="support mismatch"):
            hellinger2(f, g)

    def test_symmetry_and_range(self, rng):
        for _ in range(1000):
            q = int(rng.integers(2, 9))
            f, g = random_distribution(rng, q), random_distribution(rng, q)
            h2 = hellinger2(f, g)
            assert 0.0 <= h2 <= 1.0
            assert h2 == hellinger2(g, f)
        assert hellinger2(f, f) == 0.0

    def test_triangle_inequality(self, rng):
        # holds for hellinger, not hellinger2
        for _ in range(1000):
            q = int(rng.integers(2, 9))
            f = random_distribution(rng, q)
            g = random_distribution(rng, q)
            m = random_distribution(rng, q)
            assert hellinger(f, g) <= hellinger(f, m) + hellinger(m, g) + 1e-9

    def test_tensorization_identity(self, rng):
        # 1 - H^2(P1 x P2 || Q1 x Q2) == (1 - H^2(P1||Q1)) (1 - H^2(P2||Q2))
        for _ in range(200):
            q1, q2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            p1, q1d = random_distribution(rng, q1), random_distribution(rng, q1)
            p2, q2d = random_distribution(rng, q2), random_distribution(rng, q2)
            lhs = 1.0 - hellinger2(
                product_distribution(p1, p2), product_distribution(q1d, q2d)
            )
            rhs = (1.0 - hellinger2(p1, q1d)) * (1.0 - hellinger2(p2, q2d))
            assert abs(lhs - rhs) <= 1e-12


class TestKl:
    def test_identical_is_zero(self):
        f = bernoulli(0.42)
        assert kl(f, f) == 0.0
        assert symmetric_kl(f, f) == 0.0

    def test_absolute_continuity_failure(self):
        assert kl(bernoulli(0.5), bernoulli(0.0)) == math.inf

    def test_half_vs_quarter_closed_form(self):
        got = kl(bernoulli(0.5), bernoulli(0.25))
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert abs(got - float(dec_kl((0.5, 0.5), (0.75, 0.25)))) <= 1e-12

    def test_kl_dominates_twice_hellinger2(self, rng):
        for _ in range(1000):
            q = int(rng.integers(2, 9))
            f, g = random_distribution(rng, q), random_distribution(rng, q)
            assert kl(f, g) >= 2.0 * hellinger2(f, g) - 1e-12

    def test_symmetric_kl_is_symmetric(self, rng):
        for _ in range(300):
            q = int(rng.integers(2, 9))
            f, g = random_distribution(rng, q), random_distribution(rng, q)
            assert symmetric_kl(f, g) == symmetric_kl(g, f)

    def test_sparse_bernoulli_approximation(self):
        # for Bern(a' log n / n) vs Bern(b' log n / n) the symmetrized KL is
        # close to (a'-b') (log n / n) log(a'/b')
        n, a, b = 10**6, 4.0, 1.0
        f = bernoulli(a * math.log(n) / n)
        g = bernoulli(b * math.log(n) / n)
        approx = (a - b) * (math.log(n) / n) * math.log(a / b)
        assert symmetric_kl(f, g) == pytest.approx(approx, rel=0.10)


@given(st.integers(2, 8), st.integers(0, 2**31), st.integers(0, 2**31))
def test_hellinger2_properties_hypothesis(q, s1, s2):
    rng = np.random.default_rng((s1, s2))
    f = random_distribution(rng, q)
    g = random_distribution(rng, q)
    h2 = hellinger2(f, g)
    assert 0.0 <= h2 <= 1.0
    assert h2 == hellinger2(g, f)
    if f == g:
        assert h2 == 0.0
    assert kl(f, g) >= 0.0


def _left_to_right(f, g) -> float:
    """Squared Hellinger divergence summed left to right, one rounding per
    operation."""
    s = 0.0
    for a, b in zip(f.probs, g.probs):
        d = math.sqrt(a) - math.sqrt(b)
        s = s + d * d
    return min(max(0.5 * s, 0.0), 1.0)


def _fused_pair(x: float, y: float) -> float:
    """fma(y, y, x * x): y * y + x * x with one rounding after the add, what
    a BLAS two-term dot product may compute."""
    return float(Fraction(x * x) + Fraction(y) * Fraction(y))


class TestLeftToRight:
    def test_binary_pairs_bit_for_bit_including_fused_cases(self, rng):
        fused_differs = 0
        for _ in range(3000):
            f, g = bernoulli(float(rng.random())), bernoulli(float(rng.random()))
            d0, d1 = (math.sqrt(a) - math.sqrt(b) for a, b in zip(f.probs, g.probs))
            fused_differs += _fused_pair(d0, d1) != d0 * d0 + d1 * d1
            assert hellinger2(f, g) == _left_to_right(f, g)
        # the case a fused multiply-add would round differently is common
        assert fused_differs > 100

    @pytest.mark.parametrize("q", [3, 5, 8])
    def test_wider_supports_bit_for_bit(self, rng, q):
        for _ in range(500):
            f, g = random_distribution(rng, q), random_distribution(rng, q)
            assert hellinger2(f, g) == _left_to_right(f, g)
