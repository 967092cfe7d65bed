import copy
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np
import pytest
from estimation_reference import p_minus, p_plus, pooled_estimates
from hypothesis import given, settings
from hypothesis import strategies as st
from mc_reference import mc_events, reference_mc

from oclust import solver_mc
from oclust.clustering import partition_equal
from oclust.divergence import Distribution, Support, bernoulli, from_text, hellinger
from oclust.estimation import Constants
from oclust.instance import Balanced, ExplicitSizes, Skewed, generate
from oclust.oracle import Oracle
from oclust.solver_mc import McState, phase1, phase2_loop, phase3_process, run_mc

WEAK3 = (from_text("0:0.2,1:0.3,2:0.5"), from_text("0:0.5,1:0.3,2:0.2"))
STRONG = (bernoulli(0.9), bernoulli(0.1))


def mc_parts(inst, consts, seed):
    oracle = Oracle(inst.labels)
    rng = np.random.default_rng(seed)
    state = phase1(inst.side, oracle, consts, rng)
    return oracle, state


class TestPhase1:
    def test_single_cluster_one_query_per_vertex(self):
        # k=1 with default constants: the stop size exceeds n, so phase 1
        # exhausts the pool, one query per vertex after the first
        inst = generate(50, Balanced(1), bernoulli(0.5), bernoulli(0.5), seed=0)
        oracle, state = mc_parts(inst, Constants(), seed=1)
        assert state.clustering.num_unclustered == 0
        assert oracle.count == 49

    def test_exhaustion_path_is_exact(self):
        inst = generate(60, Balanced(4), bernoulli(0.6), bernoulli(0.4), seed=1)
        oracle, state = mc_parts(inst, Constants(), seed=2)
        assert state.clustering.num_unclustered == 0
        assert partition_equal(state.clustering.blocks(), inst.labels)
        assert oracle.count <= 60 * 4

    def test_stops_exactly_at_target(self):
        # scale chosen so scale*C*log n = 29.995 -> target 30
        inst = generate(1000, Balanced(4), bernoulli(0.9), bernoulli(0.1), seed=4)
        consts = Constants(scale=0.0368)
        target = math.ceil(consts.effective_c * math.log(1000))
        assert target == 30
        oracle, state = mc_parts(inst, consts, seed=3)
        assert state.clustering.max_size() == 30
        assert oracle.count <= inst.k * state.vertices_phase["phase1"]

    def test_query_bound_observation(self):
        for seed in range(5):
            inst = generate(500, Balanced(5), bernoulli(0.8), bernoulli(0.2), seed=seed)
            consts = Constants(scale=0.03)
            oracle, state = mc_parts(inst, consts, seed=seed)
            assert state.q_phase["phase1"] <= inst.k * state.vertices_phase["phase1"]


class TestPhase2:
    def test_zero_queries_when_threshold_met_at_entry(self):
        # Bern(1)/Bern(0) gives h_hat = 1 exactly, so the threshold equals the
        # phase-1 stop size and is already satisfied
        inst = generate(400, Balanced(4), bernoulli(1.0), bernoulli(0.0), seed=7)
        consts = Constants(scale=0.02)
        oracle, state = mc_parts(inst, consts, seed=5)
        before = oracle.count
        state = phase2_loop(state, Oracle(inst.labels), consts)
        # fresh oracle proves no queries were needed; state must flip to grow
        assert state.phase == "grow"
        assert state.q_phase["phase2"] == 0
        assert oracle.count == before

    def test_single_cluster_keeps_querying(self):
        # while only one cluster exists p_minus is unavailable, so the loop
        # must keep clustering vertices instead of stopping
        inst = generate(80, ExplicitSizes((40, 40)), bernoulli(0.9), bernoulli(0.1), seed=2)
        consts = Constants(scale=0.01)
        oracle = Oracle(inst.labels)
        rng = np.random.default_rng(0)
        state = phase1(inst.side, oracle, consts, rng)
        state = phase2_loop(state, oracle, consts)
        if state.phase == "grow":
            assert state.clustering.num_clusters >= 2

    def test_exit_sizes_stay_near_threshold(self):
        # phase 2 should stop soon after some cluster crosses the threshold:
        # clustered vertices stay below 3 k m
        fp, fm = bernoulli(0.9), bernoulli(0.1)
        consts = Constants(scale=0.02676)  # tuned for m around 60 at n=2000
        ok = 0
        seeds = range(50)
        for seed in seeds:
            inst = generate(2000, Balanced(5), fp, fm, seed=3000 + seed)
            oracle = Oracle(inst.labels)
            state = phase1(inst.side, oracle, consts, np.random.default_rng(seed))
            state = phase2_loop(state, oracle, consts)
            assert state.phase == "grow"
            m = state.estimates.m_threshold
            grown = [
                state.clustering.size(c)
                for c in range(state.clustering.num_clusters)
                if c not in state.grown_done
            ]
            clustered = inst.n - state.clustering.num_unclustered
            if max(grown) >= m and clustered <= 3 * inst.k * m:
                ok += 1
        assert ok >= 0.95 * len(seeds)


class TestPhase3:
    def test_free_inclusion_with_perfect_side_information(self):
        inst = generate(200, Balanced(4), bernoulli(1.0), bernoulli(0.0), seed=9)
        consts = Constants(scale=0.05)
        oracle = Oracle(inst.labels)
        state = phase1(inst.side, oracle, consts, np.random.default_rng(1))
        state = phase2_loop(state, oracle, consts)
        assert state.phase == "grow"
        grown_sizes = {
            c: state.clustering.size(c) for c in range(state.clustering.num_clusters)
        }
        cid = max(grown_sizes, key=lambda c: (grown_sizes[c], -c))
        before = oracle.count
        state = phase3_process(state, oracle, consts)
        # every unclustered member of the grown cluster's block joins free
        # (membership 0 with h = 1), vertices of other blocks stay untouched
        assert oracle.count == before
        assert state.grown_done == {cid}
        done_label = inst.labels[state.clustering.members[cid][0]]
        for v in np.flatnonzero(state.clustering.label_of == -1):
            assert inst.labels[v] != done_label
        for v in state.clustering.members[cid]:
            assert inst.labels[v] == done_label

    def test_misassignment_free_runs_at_desk_scale(self):
        # full pipeline on a moderately separated instance
        fp, fm = bernoulli(0.85), bernoulli(0.15)
        exact = 0
        seeds = range(50)
        for seed in seeds:
            inst = generate(1000, Balanced(4), fp, fm, seed=4000 + seed)
            _, report = run_mc(inst, Constants(scale=0.025), seed)
            exact += report.exact
        assert exact >= 0.90 * len(seeds)


class TestRunMc:
    def test_single_element(self):
        inst = generate(1, Balanced(1), bernoulli(0.5), bernoulli(0.5), seed=0)
        state, report = run_mc(inst, Constants(), seed=0)
        assert report.queries == 0 and report.exact
        assert state.num_clusters == 1

    def test_identical_distributions_disable_free_inclusion(self):
        for seed in range(20):
            inst = generate(
                300, Balanced(1 + seed % 4), bernoulli(0.5), bernoulli(0.5), seed=seed
            )
            _, report = run_mc(inst, Constants(scale=0.05), seed)
            assert report.exact
            assert report.extras["side_placements"] == 0
            assert report.queries <= inst.n * inst.k

    def test_queried_placements_are_always_safe(self):
        for fp, fm, scale in [
            (bernoulli(0.9), bernoulli(0.1), 0.02),
            (bernoulli(0.6), bernoulli(0.4), 0.01),
        ]:
            inst = generate(500, Balanced(5), fp, fm, seed=31)
            events = []
            clustering, _ = run_mc(inst, Constants(scale=scale), 2, events=events.append)
            placed = [e for e in events if e["event"] == "place"]
            assert sorted(e["v"] for e in placed) == list(range(inst.n))
            for e in placed:
                v, cid = e["v"], e["cluster"]
                assert clustering.label_of[v] == cid
                if e["how"] == "query":
                    rep_labels = {inst.labels[u] for u in clustering.members[cid] if u != v}
                    assert inst.labels[v] in rep_labels

    def test_no_mergeable_output_clusters(self):
        # post-hoc audit on small instances: no two output clusters contain
        # elements of the same truth block
        for seed in range(20):
            inst = generate(300, Balanced(4), bernoulli(0.9), bernoulli(0.1), seed=seed)
            state, report = run_mc(inst, Constants(scale=0.03), seed)
            seen: dict[int, int] = {}
            for cid, members in enumerate(state.members):
                for lbl in {int(inst.labels[v]) for v in members}:
                    assert seen.setdefault(lbl, cid) == cid
            assert report.exact

    def test_incremental_counts_match_pure_recompute(self, monkeypatch):
        # at every refresh of a run, the incremental counts give exactly the
        # estimates of a from-scratch recount over the clusters so far; the
        # free cases also compare refreshes that follow phase-3 batch joins
        refresh = McState.refresh_estimates
        seen = []

        def checked_refresh(state, consts):
            incr = refresh(state, consts)
            pure = pooled_estimates(state.clustering.members, state.side, consts, state.side.n)
            assert incr == pure
            seen.append(state.n_clustered)
            return incr

        monkeypatch.setattr(McState, "refresh_estimates", checked_refresh)
        for fp, fm, scale, free in [
            (bernoulli(0.8), bernoulli(0.2), 0.03, False),
            (bernoulli(0.8), bernoulli(0.2), 0.01, True),
            (*WEAK3, 0.003, True),
        ]:
            inst = generate(400, Balanced(4), fp, fm, seed=6)
            seen.clear()
            _, report = run_mc(inst, Constants(scale=scale), 3)
            assert (report.extras["side_placements"] > 0) == free
            assert len(seen) > 2 and seen[-1] == inst.n

    def test_refresh_h_is_the_hellinger_of_its_estimates(self, monkeypatch):
        refresh = McState.refresh_estimates
        seen = []

        def spy(state, consts):
            seen.append(refresh(state, consts))
            return seen[-1]

        monkeypatch.setattr(McState, "refresh_estimates", spy)
        for fp, fm in [(bernoulli(0.8), bernoulli(0.2)), WEAK3]:
            seen.clear()
            run_mc(generate(400, Balanced(4), fp, fm, seed=6), Constants(scale=0.01), 3)
            assert sum(est.h is not None for est in seen) > 20
            for est in seen:
                if est.h is not None:
                    assert est.h == hellinger(p_plus(est, fp.support), p_minus(est, fp.support))

    @pytest.mark.parametrize(
        "n, spec, dists, seed, h_hex",
        [
            # the first three end one bit higher where h is a BLAS dot
            # product that fuses its multiply and add
            (500, Balanced(10), STRONG, 2, "0x1.448bff970dff8p-1"),
            (2000, Skewed(10, 4.0), WEAK3, 1, "0x1.0a7675269894ep-2"),
            (2000, Skewed(10, 4.0), WEAK3, 2, "0x1.095f5841c9d89p-2"),
            (1000, Balanced(10), STRONG, 0, "0x1.42bbd3b22e37bp-1"),
        ],
    )
    def test_h_final_pinned(self, n, spec, dists, seed, h_hex):
        # the last estimate, to the last bit: the same on every CPU
        inst = generate(n, spec, *dists, seed=1000 * n + seed)
        _, report = run_mc(inst, Constants(scale=0.02), seed)
        assert report.extras["h_final"].hex() == h_hex

    def test_band_modes_both_run(self):
        inst = generate(400, Balanced(4), bernoulli(0.9), bernoulli(0.1), seed=8)
        for band in ("lemma", "text"):
            _, report = run_mc(inst, Constants(scale=0.03), 1, band=band)
            assert report.constants["band"] == band
            assert report.exact
        # an unknown band fails before the first query, also at the default
        # scale, where phase 3 never runs
        for consts in (Constants(scale=0.03), Constants()):
            events = []
            with pytest.raises(ValueError, match="band"):
                run_mc(inst, consts, 1, band="bogus", events=events.append)
            assert events == []

    def test_report_phases_sum_to_total(self):
        inst = generate(600, Balanced(5), bernoulli(0.9), bernoulli(0.1), seed=10)
        _, report = run_mc(inst, Constants(scale=0.02), 4)
        assert report.queries == report.q_phase1 + report.q_phase2 + report.q_phase3
        assert report.constants["scale"] == 0.02
        assert report.extras["vertices_phase1"] >= 1


def _placed_state(inst, seed, n_placed):
    """A McState with a random prefix of vertices placed by their truth
    labels (singletons and joins), and the rest in random order."""
    order = np.random.default_rng(seed).permutation(inst.n).tolist()
    state = McState(inst.side, np.random.default_rng(seed))
    cid_of = {}
    for v in order[:n_placed]:
        label = int(inst.labels[v])
        if label in cid_of:
            state.join(v, cid_of[label], "query")
        else:
            cid_of[label] = state.open_singleton(v, "seed")
    return state, np.array(order[n_placed:], dtype=np.int64)


class TestJoinBatch:
    CASES = {
        "binary": lambda: generate(90, Balanced(3), bernoulli(0.8), bernoulli(0.3), seed=1),
        "weak3": lambda: generate(90, Balanced(4), *WEAK3, seed=2),
        "singletons": lambda: generate(
            90, ExplicitSizes((40, 1, 1, 20, 1, 27)), *WEAK3, seed=3
        ),
        "k1": lambda: generate(60, Balanced(1), bernoulli(0.7), bernoulli(0.4), seed=4),
    }

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_sequential_joins(self, monkeypatch, case, rows):
        inst = self.CASES[case]()
        if rows is not None:
            monkeypatch.setattr(solver_mc, "_JOIN_CELLS", rows * inst.n)
        for n_placed in (1, 25):
            base, rest = _placed_state(inst, seed=n_placed, n_placed=n_placed)
            sizes = [base.clustering.size(c) for c in range(base.clustering.num_clusters)]
            # the largest cluster and the smallest (a singleton when there is one)
            for cid in {int(np.argmax(sizes)), int(np.argmin(sizes))}:
                vs = rest[: 2 * len(rest) // 3]
                seq, batch = copy.deepcopy(base), copy.deepcopy(base)
                for v in vs.tolist():
                    seq.join(v, cid, "side")
                batch.join_batch(vs, cid, "side")
                assert np.array_equal(batch.intra_counts, seq.intra_counts)
                assert np.array_equal(batch.inter_counts, seq.inter_counts)
                assert batch.n_intra == seq.n_intra
                assert batch.n_inter == seq.n_inter
                assert batch.n_clustered == seq.n_clustered
                assert np.array_equal(batch.clustered, seq.clustered)
                assert batch.clustering.members == seq.clustering.members
                assert batch.placement == seq.placement

    def test_empty_batch_changes_nothing(self):
        inst = self.CASES["binary"]()
        state, _ = _placed_state(inst, seed=0, n_placed=10)
        before = copy.deepcopy(state)
        state.join_batch(np.array([], dtype=np.int64), 0, "side")
        assert np.array_equal(state.intra_counts, before.intra_counts)
        assert np.array_equal(state.inter_counts, before.inter_counts)
        assert (state.n_intra, state.n_inter, state.n_clustered) == (
            before.n_intra,
            before.n_inter,
            before.n_clustered,
        )


# ---------------------------------------------------------------------------
# incremental state: identical to the round-by-round reference


def _pmf(weights) -> Distribution:
    w = np.asarray(weights, dtype=float)
    return Distribution(Support(tuple(range(w.size))), w / w.sum())


@st.composite
def mc_cases(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    weights = st.lists(st.integers(0, 6), min_size=q, max_size=q).filter(any)
    wp = draw(weights)
    # useless (h = 0), mirrored (well separated, so phase 3 includes for free) or any
    wm = draw(st.sampled_from(("same", "mirror", "other")))
    wm = wp if wm == "same" else wp[::-1] if wm == "mirror" else draw(weights)
    fp, fm = _pmf(wp), _pmf(wm)
    n = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(("one", "balanced", "singletons")))
    if kind == "one":
        spec = Balanced(1)
    elif kind == "balanced":
        spec = Balanced(draw(st.integers(1, min(n, 6))))
    else:
        big = draw(st.integers(1, n))
        spec = ExplicitSizes((big,) + (1,) * (n - big))
    inst = generate(n, spec, fp, fm, seed=draw(st.integers(0, 2**16)))
    consts = Constants(scale=draw(st.sampled_from((0.0005, 0.001, 0.003, 0.01))))
    return inst, consts, draw(st.integers(0, 2**16)), draw(st.sampled_from(solver_mc.BAND_MODES))


@settings(max_examples=200)
@given(mc_cases())
def test_mc_matches_reference(case):
    assert mc_events(*case) == reference_mc(*case)


@pytest.mark.parametrize(
    "n, spec, dists, scale",
    [
        (300, Balanced(3), ("0:0.1,1:0.9", "0:0.9,1:0.1"), 0.01),
        (300, ExplicitSizes((150, 60, 30) + (1,) * 60), ("0:0.1,1:0.9", "0:0.9,1:0.1"), 0.005),
        (240, Balanced(4), ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2"), 0.003),
        (200, Balanced(2), ("0:0.1,1:0.1,2:0.2,3:0.2,4:0.4", "0:0.4,1:0.2,2:0.2,3:0.1,4:0.1"), 0.005),
    ],
)
@pytest.mark.parametrize("band", solver_mc.BAND_MODES)
def test_larger_instances_match_reference(n, spec, dists, scale, band):
    inst = generate(n, spec, *(from_text(t) for t in dists), seed=n)
    events = mc_events(inst, Constants(scale=scale), 5, band)
    assert any(e.get("how") == "side" for e in events)
    assert events == reference_mc(inst, Constants(scale=scale), 5, band)


# Each snippet breaks one guarantee on purpose and must still raise under -O,
# with a message containing its key.
_BROKEN = {
    "do not sum": """
import oclust.solver_mc as mc
process = mc.phase3_process
def leaky(state, *args, **kwargs):
    state = process(state, *args, **kwargs)
    state.q_phase["phase3"] += 1
    return state
mc.phase3_process = leaky
mc.run_mc(generate(300, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=1), Constants(scale=0.03), 0)
""",
    "must recover the exact partition": """
from oclust.clustering import ClusteringState
from oclust.oracle import Oracle
from oclust.report import finish
inst = generate(20, Balanced(2), bernoulli(0.9), bernoulli(0.1), seed=0)
state = ClusteringState(inst.n)
state.new_cluster(0)
for v in range(1, inst.n):
    state.add(v, 0)
finish("lv", inst, 0, Oracle(inst.labels), state, 0.0)
""",
    "queries on vertex": """
import oclust.solver_lv as lv
class Chatty(lv.Oracle):
    __slots__ = ()
    @property
    def count(self):
        return 3 * super().count
lv.Oracle = Chatty
lv.run_baseline(generate(30, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=0), 0)
""",
    "more than n * k": """
import oclust.solver_lv as lv
class Overcharged(lv.Oracle):
    __slots__ = ()
    @property
    def count(self):
        return super().count + self.n * self.n
lv.Oracle = Overcharged
lv.run_lv(generate(30, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=0), 0)
""",
}


def test_invariants_survive_optimize_flag():
    # one interpreter under -O runs every snippet; the leading assert proves
    # that asserts are really stripped
    lines = [
        "assert False, 'asserts are on'",
        "from oclust import Balanced, Constants, InvariantError, bernoulli, generate",
    ]
    for body in _BROKEN.values():
        lines.append("try:")
        lines += [f"    {line}" for line in body.strip().splitlines()]
        lines += ["except InvariantError as exc:", "    print(exc)"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", "\n".join(lines)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    got = out.stdout.splitlines()
    assert len(got) == len(_BROKEN)
    for fragment, message in zip(_BROKEN, got):
        assert fragment in message
