import math
from unittest import mock

import numpy as np
import pytest
from estimation_reference import (
    inter_dist,
    intra_dist,
    membership,
    p_minus,
    p_plus,
    pooled_estimates,
    value_planes as gathered_value_planes,
)
from hypothesis import example, given
from hypothesis import strategies as st
from triangle import pair_index

from oclust.divergence import (
    Distribution,
    Support,
    bernoulli,
    from_text,
    hellinger,
    hellinger2,
    hellinger2_probs,
)
from oclust import estimation
from oclust.estimation import (
    Constants,
    membership_scores,
    estimates_from_counts,
    hellinger2_counts,
    hellinger2_rows,
    threshold_from_h,
    value_planes,
)
from oclust.instance import Balanced, ExplicitSizes, SideInfo, generate
from oclust.oracle import Oracle
from oclust.solver_mc import phase1

BIN = Support((0.0, 1.0))


def hand_side(n: int, pairs: dict[tuple[int, int], int]) -> SideInfo:
    tri = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    for (u, v), val in pairs.items():
        tri[pair_index(u, v, n)] = val
    return SideInfo(n, BIN, tri)


class TestConstants:
    def test_defaults(self):
        c = Constants()
        assert c.c == 118.0 and c.c_prime == 3.0
        assert c.b == pytest.approx(math.sqrt(118.0 / 3.0))
        assert c.b > 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Constants(c=100.0, c_prime=3.0)  # c < 36 c'
        with pytest.raises(ValueError):
            Constants(c_prime=2.0)
        with pytest.raises(ValueError):
            Constants(scale=0.0)

    def test_non_finite_rejected(self):
        for kwargs in (
            {"c": math.nan},
            {"c": math.inf, "c_prime": math.inf},
            {"c": math.inf},
            {"c_prime": math.nan},
            {"scale": math.inf},
            {"scale": math.nan},
        ):
            with pytest.raises(ValueError, match="finite"):
                Constants(**kwargs)

    def test_scale_only_touches_size_thresholds(self):
        a, b = Constants(), Constants(scale=0.01)
        assert a.b == b.b
        assert b.effective_c == pytest.approx(1.18)


class TestInterDist:
    def test_single_member_point_mass(self):
        side = hand_side(3, {(0, 2): 1})
        assert inter_dist(2, [0], side).probs == (0.0, 1.0)

    def test_all_equal_point_mass(self):
        side = hand_side(4, {})  # all zeros
        assert inter_dist(3, [0, 1, 2], side).probs == (1.0, 0.0)

    def test_hand_counted_five_member_cluster(self):
        # v=5 against C={0..4} with entries (1,1,0,1,0) -> (0.4, 0.6)
        side = hand_side(6, {(0, 5): 1, (1, 5): 1, (3, 5): 1})
        d = inter_dist(5, [0, 1, 2, 3, 4], side)
        assert d.probs == (0.4, 0.6)

    def test_member_vertex_rejected(self):
        side = hand_side(3, {})
        with pytest.raises(ValueError):
            inter_dist(1, [0, 1], side)
        with pytest.raises(ValueError):
            inter_dist(1, [], side)


class TestIntraDist:
    def test_pair_cluster_point_mass(self):
        side = hand_side(3, {(0, 1): 1})
        assert intra_dist([0, 1], side).probs == (0.0, 1.0)

    def test_all_equal_point_mass(self):
        side = hand_side(4, {})
        assert intra_dist([0, 1, 2, 3], side).probs == (1.0, 0.0)

    def test_hand_counted_four_clique(self):
        # pair values (01,02,03,12,13,23) = (1,1,1,0,0,1) -> (1/3, 2/3)
        side = hand_side(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (2, 3): 1})
        d = intra_dist([0, 1, 2, 3], side)
        assert d.probs_array == pytest.approx([1 / 3, 2 / 3], abs=1e-15)

    def test_needs_two_members(self):
        side = hand_side(3, {})
        with pytest.raises(ValueError):
            intra_dist([0], side)


class TestMembership:
    def test_zero_when_inter_matches_intra(self):
        side = hand_side(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert membership(2, [0, 1], side) == 0.0

    def test_minus_one_when_disjoint(self):
        side = hand_side(3, {(0, 1): 1})
        assert membership(2, [0, 1], side) == -1.0

    def test_composed_hand_value(self):
        # the two hand counts composed through hellinger2, frozen from the
        # Decimal oracle: -H^2((0.4, 0.6) || (1/3, 2/3))
        inter = Distribution(BIN, (0.4, 0.6))
        intra = Distribution(BIN, (1 / 3, 2 / 3))
        assert -hellinger2(inter, intra) == pytest.approx(
            -0.0023960962962133928, abs=1e-15
        )

    def test_matches_definition_on_real_cluster(self):
        side = hand_side(6, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (2, 3): 1, (1, 5): 1})
        got = membership(5, [0, 1, 2, 3], side)
        want = -hellinger2(inter_dist(5, [0, 1, 2, 3], side), intra_dist([0, 1, 2, 3], side))
        assert got == want

    def test_permutation_invariance(self, rng):
        inst = generate(50, Balanced(3), bernoulli(0.8), bernoulli(0.2), seed=8)
        members = list(range(1, 20))
        base = membership(30, members, inst.side)
        for _ in range(5):
            rng.shuffle(members)
            assert membership(30, members, inst.side) == base

    def test_vectorized_scores_match_scalar(self):
        for fp, fm in [
            ("0:0.3,1:0.7", "0:0.7,1:0.3"),
            ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2"),
            ("0:0.5,1:0.5,2:0,3:0,4:0", "0:0,1:0.1,2:0.3,3:0.3,4:0.3"),
        ]:
            inst = generate(60, Balanced(4), from_text(fp), from_text(fm), seed=12)
            for members in inst.truth:
                pool = np.array([v for v in range(60) if v not in members])
                fast = membership_scores(pool, members, inst.side)
                slow = [membership(int(v), members, inst.side) for v in pool]
                assert fast.tolist() == slow, (fp, members)

    def test_vectorized_scores_need_two_members(self):
        side = hand_side(4, {(0, 1): 1})
        with pytest.raises(ValueError, match="at least 2 members"):
            membership_scores(np.array([1, 2]), [0], side)


class TestInterCounts:
    """The row-block gather against the cell-by-cell np.ix_ form it replaced."""

    @staticmethod
    def reference(pool, members, side):
        sub = side.dense()[np.ix_(pool, members)]
        out = np.empty((pool.shape[0], side.q), dtype=np.float64)
        for i in range(side.q):
            out[:, i] = (sub == i).sum(axis=1)
        return out

    @pytest.mark.parametrize(
        "pmfs",
        [("0:0.1,1:0.9", "0:0.9,1:0.1"), ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")],
        ids=["q2", "q3"],
    )
    # 1 cell: one member row per step; 7 * 90: steps of seven member rows
    @pytest.mark.parametrize("cells", [1, 7 * 90, 1 << 20])
    def test_matches_ix_gather(self, monkeypatch, pmfs, cells):
        monkeypatch.setattr(estimation, "_GATHER_CELLS", cells)
        inst = generate(90, Balanced(4), from_text(pmfs[0]), from_text(pmfs[1]), seed=13)
        rng = np.random.default_rng(5)
        perm = rng.permutation(90)
        cases = [
            (perm[:60], perm[60:70]),  # more pool than members
            (perm[:10], perm[10:80]),  # more members than pool
            (perm[:30], perm[30:60]),  # equal sizes
            (perm[:0], perm[:25]),  # empty pool
            (perm[:40], perm[40:41]),  # single member
            (perm[:1], perm[1:2]),
            (perm[:20], perm[:0]),  # empty member set
        ]
        for pool, members in cases:
            got = value_planes(inst.side.dense(), inst.q, pool, members)
            want = self.reference(pool, members, inst.side)
            assert got.shape == (inst.q, pool.size) and got.dtype == np.int32
            assert np.array_equal(got.T, want)


@st.composite
def _planes_cases(draw):
    """A W (uint16 when q > 256), a pool, a member set and a cell budget."""
    q = draw(st.sampled_from((2, 3, 5, 300)))
    n = draw(st.integers(2, 40))
    tri = draw(st.lists(st.integers(0, q - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    side = SideInfo(n, Support(tuple(range(q))), np.array(tri, dtype=np.uint8 if q <= 256 else np.uint16))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    cut = draw(st.integers(0, n))
    members = perm[cut : cut + draw(st.integers(0, n - cut))]
    # 1 cell: one member row per step; 3n cells: steps of three rows
    cells = draw(st.sampled_from((1, 3 * n, 1 << 20)))
    return side, perm[:cut], members, cells


@given(_planes_cases())
def test_value_planes_match_the_column_gather(case):
    side, pool, members, cells = case
    with mock.patch.object(estimation, "_GATHER_CELLS", cells):
        got = value_planes(side.dense(), side.q, pool, members)
    assert got.dtype == np.int32
    assert np.array_equal(got, gathered_value_planes(side.dense(), side.q, pool, members))


def _tally_pmf(rng, q, pairs):
    """A pmf of exact count ratios, zeros included, as intra pmfs are."""
    return rng.multinomial(pairs, rng.dirichlet(np.full(q, 0.3))) / pairs


class TestHellinger2Rows:
    """The plane kernel against pure-Python hellinger2_probs, row by row."""

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_rows_bit_for_bit(self, q):
        rng = np.random.default_rng(q)
        for total in (1, 2, 7, 60):
            rows = rng.multinomial(total, rng.dirichlet(np.full(q, 0.4)), size=400)
            rows[:q] = total * np.eye(q, dtype=rows.dtype)  # point masses
            refs = [np.eye(q)[0], np.eye(q)[-1], np.full(q, 1 / q)]
            refs += [_tally_pmf(rng, q, pairs) for pairs in (1, 3, 21, 1770)]
            for p in refs:
                got = hellinger2_rows(np.ascontiguousarray(rows.T), total, p[:, None])
                want = [hellinger2_probs([c / total for c in row], p.tolist()) for row in rows.tolist()]
                assert got.tolist() == want

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_per_row_totals_and_pmfs(self, q):
        # LV's batches: one total and one reference pmf per step, shared by
        # the step's rows
        rng = np.random.default_rng(10 + q)
        sizes = np.arange(2, 14)
        rows = np.stack([rng.multinomial(s, rng.dirichlet(np.full(q, 0.4)), size=50) for s in sizes])
        refs = np.stack([_tally_pmf(rng, q, s * (s - 1) // 2) for s in sizes])
        got = hellinger2_rows(np.moveaxis(rows, -1, 0), sizes[:, None], refs.T[:, :, None])
        assert got.shape == (sizes.size, 50)
        for t, s in enumerate(sizes.tolist()):
            want = [hellinger2_probs([c / s for c in row], refs[t].tolist()) for row in rows[t].tolist()]
            assert got[t].tolist() == want


@st.composite
def _count_rows(draw):
    """Count rows over q values with one total, as planes (q, rows): random
    rows plus every point mass (counts of 0 and of ``total``), and a
    reference pmf of pair-count ratios that may miss a value."""
    q = draw(st.sampled_from((2, 3, 5)))
    total = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.multinomial(total, rng.dirichlet(np.full(q, 0.5)), size=draw(st.integers(0, 30)))
    rows = np.concatenate([total * np.eye(q, dtype=np.int64), rows])
    pairs = total * (total - 1) // 2
    weights = rng.dirichlet(np.full(q, 0.5))
    if draw(st.booleans()):
        weights[draw(st.integers(0, q - 1))] = 0.0
        weights /= weights.sum()
    p = rng.multinomial(pairs, weights) / pairs
    return np.ascontiguousarray(rows.T).astype(np.int32), total, p


class TestHellinger2Counts:
    """The count-indexed table against the plane kernel and the scalar
    definitions, compared bit for bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(_count_rows())
    def test_table_matches_rows_kernel_and_scalar(self, case):
        planes, total, p = case
        got = hellinger2_counts(planes[1:], total, p)
        assert np.array_equal(got, hellinger2_rows(planes, total, p[:, None]))
        want = [hellinger2_probs([c / total for c in row], p.tolist()) for row in planes.T.tolist()]
        assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.sampled_from((2, 3, 5)), st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
    @example(q=5, size=2, seed=0, drop=False)  # one intra pair: most of p_c is zero
    def test_membership_scores_match_scalar_membership(self, q, size, seed, drop):
        # members 0..size-1; pool vertex size + a holds value a toward every
        # member (counts of 0 and of size), the rest are random
        rng = np.random.default_rng(seed)
        n = size + q + 6
        tri = rng.integers(0, q, size=n * (n - 1) // 2).astype(np.uint8)
        for a in range(q):
            for u in range(size):
                tri[pair_index(u, size + a, n)] = a
        if drop:  # the cluster's pairs never take value 0
            for u in range(size):
                for v in range(u + 1, size):
                    tri[pair_index(u, v, n)] = max(1, tri[pair_index(u, v, n)])
        side = SideInfo(n, Support(tuple(range(q))), tri)
        members, pool = np.arange(size), np.arange(size, n)
        got = membership_scores(pool, members, side)
        want = [membership(int(v), members, side) for v in pool]
        assert np.array_equal(got, want)


class TestThreshold:
    def test_boundary_h_equals_one(self):
        consts = Constants()
        n = 2000  # large enough that the cap at n stays inactive
        assert threshold_from_h(1.0, consts, n) == math.ceil(118.0 * math.log(n))

    def test_nonincreasing_in_h(self):
        consts = Constants(scale=0.1)
        hs = np.linspace(0.05, 1.0, 40)
        ms = [threshold_from_h(float(h), consts, 5000) for h in hs]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_capped_at_n(self):
        assert threshold_from_h(0.01, Constants(), 100) == 100

    def test_unbounded_cases(self):
        assert threshold_from_h(0.0, Constants(), 100) is None
        assert threshold_from_h(None, Constants(), 100) is None


class TestPooledEstimates:
    def test_single_pair_cluster(self):
        side = hand_side(4, {(0, 1): 1})
        est = pooled_estimates([[0, 1]], side, Constants(), n=4)
        assert p_plus(est, side.support) is not None and p_plus(est, side.support).probs == (0.0, 1.0)
        assert p_minus(est, side.support) is None
        assert est.m_threshold is None

    def test_two_singletons(self):
        side = hand_side(4, {(0, 1): 1})
        est = pooled_estimates([[0], [1]], side, Constants(), n=4)
        assert p_plus(est, side.support) is None
        assert p_minus(est, side.support) is not None and p_minus(est, side.support).probs == (0.0, 1.0)
        assert est.m_threshold is None

    def test_pool_counts(self):
        side = hand_side(5, {(0, 1): 1, (2, 3): 1, (0, 2): 1})
        est = pooled_estimates([[0, 1], [2, 3]], side, Constants(), n=5)
        assert est.n_intra_pairs == 2
        assert est.n_inter_pairs == 4
        assert p_plus(est, side.support).probs == (0.0, 1.0)
        assert p_minus(est, side.support).probs == (0.75, 0.25)

    def test_estimates_track_truth_after_phase1(self):
        fp, fm = bernoulli(0.8), bernoulli(0.2)
        inst = generate(1000, Balanced(4), fp, fm, seed=17)
        consts = Constants(scale=0.025)
        state = phase1(inst.side, Oracle(inst.labels), consts, np.random.default_rng(17))
        est = pooled_estimates(state.clustering.members, inst.side, consts, inst.n)
        assert est.h == pytest.approx(hellinger(fp, fm), abs=0.1)


class TestEstimatesFromCounts:
    CASES = [
        ((1, 3), (7, 5), BIN),
        ((0, 4), (9, 0), BIN),
        ((2, 3, 5), (5, 3, 2), Support((0.0, 1.0, 2.0))),
        ((17, 0, 41, 3, 999), (5, 5, 1, 0, 12), Support((0.0, 1.0, 2.0, 3.0, 4.0))),
    ]

    @pytest.mark.parametrize("intra, inter, support", CASES)
    def test_h_is_the_hellinger_of_the_pmfs(self, intra, inter, support):
        n_intra, n_inter = sum(intra), sum(inter)
        est = estimates_from_counts(
            np.array(intra), list(inter), n_intra, n_inter, support, Constants(), 1000
        )
        # h is the Hellinger divergence of the count ratios' distributions
        assert p_plus(est, support) == Distribution(support, np.array(intra) / n_intra)
        assert p_minus(est, support) == Distribution(support, np.array(inter) / n_inter)
        assert est.h == hellinger(p_plus(est, support), p_minus(est, support))
        assert est.m_threshold == threshold_from_h(est.h, Constants(), 1000)
        assert est.intra_counts == intra and est.inter_counts == inter

    def test_no_pairs_no_pmf(self):
        est = estimates_from_counts([0, 0], [2, 1], 0, 3, BIN, Constants(), 10)
        assert p_plus(est, BIN) is None and est.h is None and est.m_threshold is None
        assert p_minus(est, BIN).probs == (2 / 3, 1 / 3)

    @pytest.mark.parametrize(
        "intra, n_intra",
        [([2, 1], 4), ([-1, 5], 4), ([1, 1, 2], 4), ([4], 4), ([0, 0], 1)],
        ids=["short-sum", "negative", "too-many", "too-few", "pairs-without-counts"],
    )
    def test_counts_must_be_an_exact_tally(self, intra, n_intra):
        with pytest.raises(ValueError, match="intra counts"):
            estimates_from_counts(intra, [1, 1], n_intra, 2, BIN, Constants(), 10)


class TestConcentration:
    def test_misordering_is_rare_at_the_sanov_size(self):
        # clusters of size ceil(32 ln n / H^2) at n = 1200 for
        # Bern(0.9)/Bern(0.1); small-trial version of the acceptance gate
        fp, fm = bernoulli(0.9), bernoulli(0.1)
        n_ref = 1200
        m = math.ceil(32.0 * math.log(n_ref) / hellinger2(fp, fm))
        trials, bad = 200, 0
        for t in range(trials):
            inst = generate(
                2 * m + 1, ExplicitSizes((m + 1, m)), fp, fm, seed=9000 + t
            )
            own = list(range(1, m + 1))
            other = list(range(m + 1, 2 * m + 1))
            if membership(0, other, inst.side) >= membership(0, own, inst.side):
                bad += 1
        assert bad / trials <= 0.01
