import math
from statistics import median

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from lv_reference import check_every_round, lv_events, lv_trace, reference_lv

from oclust import solver_lv
from oclust.clustering import partition_equal
from oclust.divergence import Distribution, Support, bernoulli, from_text, hellinger2
from oclust.instance import Balanced, ExplicitSizes, generate
from oclust.solver_lv import run_baseline, run_lv

WELL_SEPARATED = (bernoulli(0.8), bernoulli(0.2))
USELESS = (bernoulli(0.5), bernoulli(0.5))


def cells():
    for n in (40, 120):
        for k in (1, 3, 7):
            for fp, fm in (WELL_SEPARATED, USELESS):
                yield n, k, fp, fm


class TestBaseline:
    def test_single_element(self):
        inst = generate(1, Balanced(1), *WELL_SEPARATED, seed=0)
        _, report = run_baseline(inst, seed=0)
        assert report.queries == 0 and report.exact

    def test_single_cluster_exact_count(self):
        for n in (2, 17, 100):
            inst = generate(n, Balanced(1), *USELESS, seed=n)
            _, report = run_baseline(inst, seed=1)
            assert report.queries == n - 1

    def test_exact_and_capped_everywhere(self):
        for n, k, fp, fm in cells():
            inst = generate(n, Balanced(k), fp, fm, seed=n * 31 + k)
            state, report = run_baseline(inst, seed=5)
            assert report.exact
            assert report.queries <= n * k
            assert partition_equal(state.blocks(), inst.labels)


class TestLasVegas:
    def test_exact_on_every_cell_and_seed(self):
        for n, k, fp, fm in cells():
            for seed in range(3):
                inst = generate(n, Balanced(k), fp, fm, seed=1000 + seed)
                state, report = run_lv(inst, seed=seed)
                assert report.exact
                assert report.queries <= n * k
                assert partition_equal(state.blocks(), inst.labels)

    def test_exact_with_singleton_clusters(self):
        inst = generate(30, ExplicitSizes((26, 1, 1, 1, 1)), *WELL_SEPARATED, seed=3)
        _, report = run_lv(inst, seed=0)
        assert report.exact

    def test_useless_side_information_stays_exact(self):
        inst = generate(150, Balanced(5), *USELESS, seed=77)
        _, report = run_lv(inst, seed=0)
        assert report.exact
        assert report.queries <= 150 * 5

    def test_cached_scores_match_recomputation(self, monkeypatch):
        # the staleness-aware cache is revalidated around every placement step
        check_every_round(monkeypatch)
        inst = generate(90, Balanced(4), bernoulli(0.9), bernoulli(0.1), seed=6)
        _, report = run_lv(inst, seed=0)
        assert report.exact

    def test_beats_baseline_with_good_side_information(self):
        fp, fm = bernoulli(0.9), bernoulli(0.1)
        lv_q, bl_q = [], []
        for seed in range(5):
            inst = generate(800, Balanced(8), fp, fm, seed=400 + seed)
            _, rb = run_baseline(inst, seed)
            _, rl = run_lv(inst, seed)
            lv_q.append(rl.queries)
            bl_q.append(rb.queries)
        assert median(lv_q) <= 0.5 * median(bl_q)

    def test_placements_fast_once_cluster_is_large(self):
        # desk surrogate: once a true cluster's recovered portion exceeds
        # 2 * ceil(32 ln n / H^2), placements of its vertices rarely need
        # more than 1 + ceil(log2 n) queries
        fp, fm = bernoulli(0.9), bernoulli(0.1)
        n = 3000
        inst = generate(n, ExplicitSizes((2500, 250, 250)), fp, fm, seed=13)
        trace = lv_trace(inst)
        m2 = 2 * math.ceil(32.0 * math.log(n) / hellinger2(fp, fm))
        budget = 1 + math.ceil(math.log2(n))
        late = [(v, used) for v, used, recovered in trace if recovered >= m2]
        assert len(late) >= 1000
        slow = sum(1 for _, used in late if used > budget)
        assert slow / len(late) <= 0.01

    def test_deterministic_given_instance(self):
        inst = generate(200, Balanced(4), bernoulli(0.8), bernoulli(0.2), seed=2)
        _, r1 = run_lv(inst, seed=9)
        _, r2 = run_lv(inst, seed=9)
        assert r1.queries == r2.queries


# ---------------------------------------------------------------------------
# batched placement: identical to the round-by-round reference


def _pmf(weights) -> Distribution:
    w = np.asarray(weights, dtype=float)
    return Distribution(Support(tuple(range(w.size))), w / w.sum())


@st.composite
def lv_instances(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    weights = st.lists(st.integers(0, 6), min_size=q, max_size=q).filter(any)
    fp = _pmf(draw(weights))
    fm = fp if draw(st.booleans()) else _pmf(draw(weights))  # useless: many ties
    n = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(("one", "balanced", "singletons")))
    if kind == "one":
        spec = Balanced(1)
    elif kind == "balanced":
        spec = Balanced(draw(st.integers(1, min(n, 8))))
    else:
        big = draw(st.integers(1, n))
        spec = ExplicitSizes((big,) + (1,) * (n - big))
    return generate(n, spec, fp, fm, seed=draw(st.integers(0, 2**16)))


@given(lv_instances())
def test_batched_lv_matches_reference(inst):
    assert lv_events(inst) == reference_lv(inst)


@pytest.mark.parametrize(
    "n, spec, dists",
    [
        (300, Balanced(3), ("0:0.1,1:0.9", "0:0.9,1:0.1")),
        (300, ExplicitSizes((150, 60, 30) + (1,) * 60), ("0:0.1,1:0.9", "0:0.9,1:0.1")),
        (240, Balanced(4), ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")),
        (200, Balanced(2), ("0:0.1,1:0.1,2:0.2,3:0.2,4:0.4", "0:0.4,1:0.2,2:0.2,3:0.1,4:0.1")),
    ],
)
def test_larger_instances_match_reference(n, spec, dists):
    inst = generate(n, spec, *(from_text(t) for t in dists), seed=n)
    assert lv_events(inst) == reference_lv(inst)


def _spy_commits(monkeypatch) -> list:
    """Record the number of placements of every committed batch."""
    sizes = []
    commit = solver_lv.LvState._commit

    def spy(self, c, placed, *args):
        sizes.append(placed.size)
        return commit(self, c, placed, *args)

    monkeypatch.setattr(solver_lv.LvState, "_commit", spy)
    return sizes


def test_strong_instance_commits_multi_step_batches(monkeypatch):
    sizes = _spy_commits(monkeypatch)
    inst = generate(1000, Balanced(5), bernoulli(0.9), bernoulli(0.1), seed=4)
    run_lv(inst, 0)
    assert max(sizes) > 1
    assert sum(sizes) > inst.n // 2  # most placements are batched


def test_paranoid_checks_after_every_batch(monkeypatch):
    events = []
    check_every_round(monkeypatch, log=events)
    sizes = _spy_commits(monkeypatch)
    commit = solver_lv.LvState._commit
    monkeypatch.setattr(
        solver_lv.LvState, "_commit", lambda *a: (commit(*a), events.append("commit"))
    )
    inst = generate(200, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=6)
    _, report = run_lv(inst, 0)
    assert report.exact and max(sizes) > 1
    after = [events[i + 1] for i, e in enumerate(events) if e == "commit"]
    assert after == ["check"] * len(after)


def test_traces_identical_at_every_cell_budget(monkeypatch):
    inst = generate(400, ExplicitSizes((200, 100, 50, 20) + (1,) * 30), bernoulli(0.85),
                    bernoulli(0.15), seed=8)
    expected = lv_events(inst)
    sizes = _spy_commits(monkeypatch)
    # 1: no batch fits; then the least budget in which the minimum batch
    # fits over the whole pool, and a budget far past the default
    for cells in (1, (solver_lv._MIN_BATCH + 1) * inst.q * inst.n, 1 << 22):
        monkeypatch.setattr(solver_lv, "_BATCH_CELLS", cells)
        sizes.clear()
        assert lv_events(inst) == expected
        assert (max(sizes, default=0) > 1) == (cells > 1)
