import io
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle_reference import ReferenceOracle

from oclust import solver_lv, solver_mc
from oclust.divergence import bernoulli
from oclust.estimation import Constants
from oclust.harness import ALGOS, SOLVERS
from oclust.instance import Balanced, Skewed, generate
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


def test_first_match_charges_the_prefix_up_to_the_first_hit():
    events = []
    o = Oracle(LABELS, events.append)
    assert o.first_match(2, [0, 4, 3, 1]) == 2
    assert o.count == 3
    assert [(e["u"], e["v"], e["answer"]) for e in events] == [(2, 0, -1), (2, 4, -1), (2, 3, 1)]
    assert o.first_match(3, [4, 2]) == 1  # (3, 4) is new, (3, 2) a repeat
    assert o.count == 4 and [e["step"] for e in events] == [1, 2, 3, 4]
    assert o.first_match(4, [0, 2]) is None
    assert o.first_match(4, []) is None
    assert o.count == 5


def test_first_match_error_mid_list_keeps_earlier_charges():
    o = Oracle(LABELS)
    with pytest.raises(ValueError, match="self query"):
        o.first_match(0, [2, 3, 0, 1])
    assert o.count == 2
    with pytest.raises(ValueError, match=r"out of range: \(4, 5\)"):
        o.first_match(4, [2, 5, 0])
    assert o.count == 3
    with pytest.raises(ValueError, match="out of range"):
        o.first_match(7, [0])
    assert o.first_match(7, []) is None  # nothing is asked
    assert o.count == 3


def test_first_match_asks_through_a_replaced_query(monkeypatch):
    # a wrapper set on the class, as a tracer installs one, sees every ask
    asked = []
    own = Oracle.query

    def wrapped(self, u, v):
        asked.append((u, v))
        return own(self, u, v)

    monkeypatch.setattr(Oracle, "query", wrapped)
    events = []
    o = Oracle(LABELS, events.append)
    assert o.first_match(2, [0, 4, 3, 1]) == 2
    assert asked == [(2, 0), (2, 4), (2, 3)]
    assert o.count == 3 and [e["step"] for e in events] == [1, 2, 3]
    with pytest.raises(ValueError, match="self query"):
        o.first_match(0, [4, 0])
    assert asked[3:] == [(0, 4), (0, 0)] and o.count == 4


_ID_TYPES = (int, np.int32, np.int64)


@st.composite
def _oracle_script(draw):
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # ids from -1 to n: mostly valid, sometimes out of range
    ident = st.builds(lambda t, x: t(x), st.sampled_from(_ID_TYPES), st.integers(-1, n))
    ask = st.one_of(
        st.tuples(st.just("query"), ident, ident),
        st.tuples(st.just("first_match"), ident, st.lists(ident, max_size=n + 2)),
    )
    return labels, draw(st.lists(ask, max_size=40))


def _outcome(call):
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


@given(_oracle_script())
def test_oracle_matches_the_dict_memo_reference(script):
    labels, asks = script
    got_events, ref_events = [], []
    oracle = Oracle(np.array(labels), got_events.append)
    ref = ReferenceOracle(np.array(labels), ref_events.append)
    for name, v, arg in asks:
        got = _outcome(lambda: getattr(oracle, name)(v, arg))
        assert got == _outcome(lambda: getattr(ref, name)(v, arg))
        assert oracle.count == ref.count
    assert got_events == ref_events
    assert all(type(x) in (int, str) for e in got_events for x in e.values())


def test_keys_of_int32_ids_near_a_large_n_do_not_wrap():
    n = 50_000
    labels = np.arange(n) % 7
    oracle, ref = Oracle(labels), ReferenceOracle(labels)
    top = np.int32(n - 1)
    pairs = [(top, np.int32(n - 2)), (np.int32(n - 8), top), (top, np.int32(0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a wrapping int32 product warns
        for u, v in pairs:
            assert oracle.query(u, v) == ref.query(u, v)
        reps = np.arange(n - 14, n - 1, dtype=np.int32)
        assert oracle.first_match(top, reps) == ref.first_match(top, reps) == 6
    assert oracle.count == ref.count == 9
    keys = {int(u) * n + int(v) for u, v in ref._memo}  # u < v
    assert oracle._charged == keys


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


class _CountingOracle(Oracle):
    """Counts every pair a solver asks, repeats included: ``first_match``
    makes each of its asks through the overriding ``query``."""

    __slots__ = ("asks",)

    def __init__(self, labels, events=None):
        super().__init__(labels, events)
        self.asks = 0

    def query(self, u, v):
        self.asks += 1
        return super().query(u, v)


@pytest.mark.parametrize(
    "spec", [Balanced(4), Skewed(5, 6.0), Balanced(1), Balanced(60)], ids=repr
)
@pytest.mark.parametrize("algo", ALGOS)
def test_no_solver_asks_a_pair_twice(algo, spec, monkeypatch):
    inst = generate(60, spec, bernoulli(0.9), bernoulli(0.1), seed=5)
    oracles = []

    def make(labels, events=None):
        oracles.append(_CountingOracle(labels, events))
        return oracles[-1]

    for mod in (solver_lv, solver_mc):
        monkeypatch.setattr(mod, "Oracle", make)
    _, report = SOLVERS[algo](inst, 2, Constants(scale=0.02), "lemma")
    (oracle,) = oracles
    assert oracle.asks == oracle.count == report.queries > 0
