import io

import numpy as np
import pytest

from oclust.divergence import bernoulli
from oclust.estimation import Constants
from oclust.harness import ALGOS, SOLVERS
from oclust.instance import Balanced, generate
from oclust.oracle import Oracle, csv_query_logger
from oclust.solver_lv import run_baseline

LABELS = np.array([0, 0, 1, 1, 2])


def test_answers_follow_truth():
    o = Oracle(LABELS)
    assert o.query(0, 1) == 1
    assert o.query(0, 2) == -1
    assert o.query(4, 3) == -1


def test_memoization_and_symmetry():
    o = Oracle(LABELS)
    assert o.count == 0
    a = o.query(1, 0)
    b = o.query(0, 1)
    assert a == b == 1
    assert o.count == 1


def test_three_distinct_two_repeats():
    o = Oracle(LABELS)
    o.query(0, 1)
    o.query(0, 2)
    o.query(2, 3)
    o.query(1, 0)
    o.query(3, 2)
    assert o.count == 3


def test_self_query_and_range_errors():
    o = Oracle(LABELS)
    with pytest.raises(ValueError, match="self query"):
        o.query(2, 2)
    with pytest.raises(ValueError):
        o.query(0, 5)
    with pytest.raises(ValueError):
        o.query(-1, 0)


def test_count_monotone_under_repeats():
    o = Oracle(LABELS)
    counts = []
    for _ in range(3):
        o.query(0, 1)
        o.query(0, 3)
        counts.append(o.count)
    assert counts == [2, 2, 2]


def test_transitive_consistency_brute_force():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 6, size=50)
    o = Oracle(labels)
    ans = {}
    for u in range(50):
        for v in range(u + 1, 50):
            ans[(u, v)] = o.query(u, v)

    def a(u, v):
        return ans[(u, v) if u < v else (v, u)]

    for u in range(50):
        for v in range(u + 1, 50):
            for w in range(v + 1, 50):
                if a(u, v) == 1 and a(v, w) == 1:
                    assert a(u, w) == 1


def test_baseline_single_cluster_uses_n_minus_one_queries():
    inst = generate(100, Balanced(1), bernoulli(0.5), bernoulli(0.5), seed=0)
    _, report = run_baseline(inst, seed=3)
    assert report.queries == 99


def test_query_log_stream():
    buf = io.StringIO()
    log = csv_query_logger(buf)
    o = Oracle(LABELS, log)
    o.query(0, 1)
    log({"event": "place", "v": 1, "cluster": 0, "queries": 1})  # not a query: skipped
    o.query(0, 2)
    o.query(1, 0)  # repeat: must not be logged again
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,u,v,answer"
    assert lines[1:] == ["1,0,1,1", "2,0,2,-1"]


def test_query_events_carry_plain_ints():
    events = []
    o = Oracle(LABELS, events.append)
    o.query(np.int64(3), np.int32(2))
    o.query(2, 3)  # repeat: no event
    o.query(4, 0)
    assert events == [
        {"event": "query", "step": 1, "u": 3, "v": 2, "answer": 1},
        {"event": "query", "step": 2, "u": 4, "v": 0, "answer": -1},
    ]
    assert all(type(x) in (int, str) for e in events for x in e.values())


@pytest.mark.parametrize("algo", ALGOS)
def test_event_stream_explains_the_run(algo):
    # every charged pair, then each vertex's place event right after the
    # queries about it; the stream alone rebuilds the query count and the
    # clustering
    inst = generate(300, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=3)
    events = []
    clustering, report = SOLVERS[algo](inst, 1, Constants(scale=0.02), "lemma", events.append)
    pending, placed = [], []
    for e in events:
        assert all(type(x) in (int, str) for x in e.values())
        if e["event"] == "query":
            u, v = e["u"], e["v"]
            assert e["answer"] == (1 if inst.labels[u] == inst.labels[v] else -1)
            pending.append(e)
            continue
        assert e["event"] == "place"
        assert e["queries"] == len(pending)
        assert all(e["v"] in (q["u"], q["v"]) for q in pending)
        assert clustering.label_of[e["v"]] == e["cluster"]
        pending = []
        placed.append(e)
    assert pending == []
    steps = [e["step"] for e in events if e["event"] == "query"]
    assert steps == list(range(1, report.queries + 1))
    assert sorted(e["v"] for e in placed) == list(range(inst.n))
    if algo == "mc":
        hows = [e["how"] for e in placed]
        assert set(hows) <= {"query", "side", "seed"}
        assert hows.count("side") == report.extras["side_placements"] > 0
    else:
        assert all("how" not in e for e in placed)
