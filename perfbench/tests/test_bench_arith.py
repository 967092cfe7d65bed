"""The benchmark's own arithmetic: the tail-percentile rule, self time,
golden comparison, and the metric names it promises in BENCHMARK.json."""

import json

import numpy as np
import pytest

import run
import tracer
from stats import golden_mismatches, nearest_rank, partition_digest, tail_percentile
from tracer import Span, Tracer, self_times
from workloads import OpResult


# -- percentiles ---------------------------------------------------------------


def test_nearest_rank_counts_samples_beyond():
    assert nearest_rank(list(range(1, 101)), 90) == (90, 10)
    assert nearest_rank([5.0], 50) == (5.0, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    samples = list(np.random.default_rng(count).random(count))
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert sum(x > value for x in samples) >= 10


# -- self time -----------------------------------------------------------------


def _spans(*rows):
    return [Span(i, name, lo, hi, parent, "op") for i, (name, lo, hi, parent) in enumerate(rows)]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0), ("b", 5.0, 9.0, 0), ("a1", 2.0, 3.0, 1))
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})
    # the self times of a tree add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 2.0, 6.0, 0), ("b", 4.0, 8.0, 0), ("c", 9.0, 12.0, 0))
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_ops_and_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = (Box.outer, Box.inner)
    tr = Tracer()
    tr.wrap(Box, "outer", "outer")
    tr.wrap(Box, "inner", "inner", after=lambda args, result, token: tr.counters.update(seen=result))
    with tr.op("op1"):
        assert Box().outer() == 42
    tr.restore()
    assert (Box.outer, Box.inner) == original
    root, outer, inner = tr.spans
    assert (outer.parent, inner.parent) == (root.sid, outer.sid)
    assert {s.op for s in tr.spans} == {"op1"}
    assert tr.counters["seen"] == 41
    totals = tr.totals()
    assert totals["inner"][2] == 1


# -- golden comparison and op accounting ---------------------------------------


def test_golden_mismatches():
    gold = {"lv": {"queries": 10, "partition": "ab"}, "mc#0": {"queries": 3}}
    assert golden_mismatches(gold, {"lv": {"queries": 10, "partition": "ab"}, "mc#0": {"queries": 3}}) == set()
    assert golden_mismatches(gold, {"lv": {"queries": 11, "partition": "ab"}, "mc#0": {"queries": 3}}) == {"lv"}
    assert golden_mismatches(gold, {"lv": gold["lv"]}) == {"mc#0"}
    assert golden_mismatches(gold, {**gold, "extra": {}}) == {"extra"}


def test_partition_digest_ignores_order():
    assert partition_digest([(3, 1), (2,), ()]) == partition_digest([[2], [1, 3]])
    assert partition_digest([(1, 2), (3,)]) != partition_digest([(1,), (2, 3)])


def _round(records, failures=()):
    ops = [OpResult(name, "lv", 1.0, rec, list(failures) if name == "b" else []) for name, rec in records.items()]
    return ops, [], 1.0


def test_check_ops_counts_golden_drift_and_check_failures():
    setup = {"failures": [], "record": {"fingerprint": "f"}}
    golden = {"w": {"setup": {"fingerprint": "f"}, "a": {"q": 1}, "b": {"q": 2}}}
    good = _round({"a": {"q": 1}, "b": {"q": 2}})
    assert run.check_ops("w", run.DEFAULT_SEED, setup, [good, good], golden) == (False, [[], []])
    # another seed skips the golden record but still compares rounds
    drift = _round({"a": {"q": 9}, "b": {"q": 2}})
    assert run.check_ops("w", run.DEFAULT_SEED + 1, setup, [good, drift], golden) == (False, [[], ["a"]])
    assert run.check_ops("w", run.DEFAULT_SEED, setup, [drift], golden) == (False, [["a"]])
    broken = _round({"a": {"q": 1}, "b": {"q": 2}}, failures=["not exact"])
    assert run.check_ops("w", run.DEFAULT_SEED + 1, setup, [broken], golden) == (False, [["b"]])
    moved = {"failures": [], "record": {"fingerprint": "g"}}
    assert run.check_ops("w", run.DEFAULT_SEED, moved, [good], golden) == (True, [[]])


# -- the metric names BENCHMARK.json promises ----------------------------------


def test_declared_units_match_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert {w["name"] for w in doc["workloads"]} <= set(run.NAMES)


def test_traced_solves_produce_every_declared_per_layer_metric():
    from oclust import harness, instance, solver_lv, solver_mc
    from oclust.divergence import from_text
    from oclust.estimation import Constants

    originals = {(m, a): getattr(m, a) for m, a in [(instance, "generate"), (solver_lv, "run_lv"), (harness, "run_mc")]}
    tr = Tracer()
    tracer.install(tr)
    try:
        with tr.op("tiny"):
            inst = instance.generate(60, instance.Balanced(3), from_text("0:0.1,1:0.9"), from_text("0:0.9,1:0.1"), 3)
            reports = [
                solver_lv.run_lv(inst, 1)[1].to_dict(),
                solver_lv.run_baseline(inst, 1)[1].to_dict(),
                solver_mc.run_mc(inst, Constants(scale=0.05), 1)[1].to_dict(),
            ]
    finally:
        tr.restore()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    layers, bases = tracer.layer_metrics(tr, reports)
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in doc["per_layer"]} <= set(layers)
    assert layers["oracle.queries"] == layers["oracle.calls"] == sum(r["queries"] for r in reports)
    assert layers["instance.pairs"] == 60 * 59 // 2
    assert bases["solver_lv.queries_per_vertex"] == {"num": reports[0]["queries"], "den": 60}
