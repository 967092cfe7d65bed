"""Spans around the calls into each oclust layer, recorded from outside the
package.

A :class:`Tracer` replaces named attributes (module functions or class
methods, at the name the caller resolves) with timing wrappers, keeps every
span in memory, and restores the original attributes on :meth:`restore`.
:class:`NullTracer` has the same surface and records nothing, so the untraced
benchmark path pays one no-op context manager per op.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import resource
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(self, sid, name, start, end, parent, op):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.op = parent, op

    @property
    def dur(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children are clipped to the parent interval and overlapping children are
    merged, so the result never double-counts and never goes negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.dur - covered
    return out


def maxrss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds a span-recording wrapper adds to one call, timed on a no-op.

    Multiplied by the spans a round recorded, this estimates the tracing
    overhead without comparing two rounds, which host drift swamps.
    """

    class Probe:
        def noop(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    bare = time.perf_counter() - t0
    Tracer().wrap(Probe, "noop", "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


class NullTracer:
    def op(self, name):
        return contextlib.nullcontext()

    def restore(self):
        pass


class Tracer:
    """In-memory span recorder plus per-boundary counters.

    Single-threaded by design: the benchmark runs every solver in-process
    with ``OCL_THREADS=1``, so a plain stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, name):
        """Root span of one benchmark operation; its spans share the op id."""
        self._op = name
        span = Span(len(self.spans), "op", time.perf_counter(), None, None, name)
        self.spans.append(span)
        self._stack.append(span.sid)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(args, result, token)``; both feed counters.
        """
        original = getattr(owner, attr)
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            sid = len(spans)
            span = Span(sid, name, 0.0, None, stack[-1] if stack else None, tracer._op)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every wrapped attribute back; raises if one cannot be."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- aggregation ---------------------------------------------------------

    def totals(self):
        """Per span name: [inclusive seconds, self seconds, calls]."""
        selfs = self_times(self.spans)
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for s in self.spans:
            row = out[s.name]
            row[0] += s.dur
            row[1] += selfs[s.sid]
            row[2] += 1
        return out

    def write(self, path: Path) -> None:
        """Gzipped JSON lines, one span each: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on.

    Each name is patched where its caller looks it up: the benchmark calls
    the module attributes of ``instance``, the solvers and ``harness``; the
    solvers import ``membership_scores``, ``hellinger2_rows`` and the
    partition checks into their own namespaces; the sweep harness imports
    ``generate`` and the solvers into its own.
    """
    from oclust import harness, instance, oracle, solver_lv, solver_mc

    c = tracer.counters

    def before_generate(args):
        n = args[0]
        c["instance.pairs"] += n * (n - 1) // 2
        return maxrss_mb()

    def after_generate(args, result, rss_before):
        if "instance.generate_peak_mb" not in c:
            c["instance.generate_peak_mb"] = maxrss_mb() - rss_before

    def after_query(args, result, count_before):
        if args[0].count == count_before:
            c["oracle.memo_hits"] += 1

    def score_cells(args):
        c["estimation.score_cells"] += len(args[0]) * len(args[1])

    def stale(args):
        lv, cid = args
        if lv.scored_at[cid] != lv.clustering.size(cid):
            c["solver_lv.score_recomputes"] += 1

    def resident_w(args, dense, token):
        side = args[0]
        c["instance.w_bytes"] = max(c["instance.w_bytes"], side.tri.nbytes + dense.nbytes)

    def emitted(args, written, token):
        c["harness.emit_bytes"] += sum(p.stat().st_size for p in written.values())

    gen = dict(before=before_generate, after=after_generate)
    for mod in (instance, harness):
        tracer.wrap(mod, "generate", "instance.generate", **gen)
    tracer.wrap(instance, "save", "instance.save")
    tracer.wrap(instance, "load", "instance.load")
    tracer.wrap(instance.SideInfo, "dense", "instance.dense", after=resident_w)
    tracer.wrap(instance.Instance, "fingerprint", "instance.fingerprint")
    tracer.wrap(
        oracle.Oracle, "query", "oracle.query",
        before=lambda args: args[0].count, after=after_query,
    )
    for mod in (solver_lv, harness):
        tracer.wrap(mod, "run_lv", "solver_lv.run_lv")
        tracer.wrap(mod, "run_baseline", "solver_lv.run_baseline")
    for mod in (solver_mc, harness):
        tracer.wrap(mod, "run_mc", "solver_mc.run_mc")
    tracer.wrap(solver_mc, "phase1", "solver_mc.phase1")
    tracer.wrap(solver_mc, "phase2_loop", "solver_mc.phase2")
    tracer.wrap(solver_mc, "phase3_process", "solver_mc.phase3")
    tracer.wrap(solver_mc, "membership_scores", "estimation.membership_scores", before=score_cells)
    tracer.wrap(solver_mc.McState, "join", "solver_mc.join")
    tracer.wrap(solver_mc.McState, "refresh_estimates", "solver_mc.refresh")
    tracer.wrap(solver_mc.McState, "open_singleton", "solver_mc.singleton")
    tracer.wrap(solver_lv.LvState, "fresh_scores", "solver_lv.fresh_scores", before=stale)
    tracer.wrap(solver_lv.LvState, "join", "solver_lv.join")
    tracer.wrap(solver_lv, "hellinger2_rows", "estimation.hellinger2_rows")
    for mod in (solver_lv, solver_mc):
        tracer.wrap(mod, "partition_equal", "clustering.verify")
        tracer.wrap(mod, "misassigned_count", "clustering.verify")
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "aggregate", "harness.aggregate")
    tracer.wrap(harness, "emit", "harness.emit", after=emitted)


def layer_metrics(tracer: Tracer, reports: list[dict], file_bytes: int | None = None):
    """Per-layer figures of one traced run, and the base of every ratio.

    ``*_s`` figures are inclusive span seconds unless named ``self``; counts
    come from span counts, the wrapper counters, or the reports. The
    ``instance.save/load`` and ``harness`` figures exist only on workloads
    that exercise those calls.
    """
    tot = tracer.totals()
    c = tracer.counters
    secs = lambda name: tot[name][0] if name in tot else 0.0
    self_secs = lambda name: tot[name][1] if name in tot else 0.0
    calls = lambda name: tot[name][2] if name in tot else 0
    bases = {}

    def ratio(key, num, den):
        bases[key] = {"num": num, "den": den}
        return num / den if den else 0.0

    mc = [r for r in reports if r["algo"] == "mc"]
    lv = [r for r in reports if r["algo"] == "lv"]
    m = {
        "instance.generate_s": secs("instance.generate"),
        "instance.generate_calls": calls("instance.generate"),
        "instance.generate_peak_mb": c["instance.generate_peak_mb"],
        "instance.pairs": c["instance.pairs"],
        "instance.dense_s": secs("instance.dense"),
        "instance.dense_calls": calls("instance.dense"),
        "instance.w_bytes": c["instance.w_bytes"],
        "instance.fingerprint_s": secs("instance.fingerprint"),
        "instance.fingerprint_calls": calls("instance.fingerprint"),
        "oracle.queries": sum(r["queries"] for r in reports),
        "oracle.calls": calls("oracle.query"),
        "oracle.memo_hit_ratio": ratio(
            "oracle.memo_hit_ratio", c["oracle.memo_hits"], calls("oracle.query")
        ),
        "oracle.query_s": secs("oracle.query"),
        "estimation.membership_scores_calls": calls("estimation.membership_scores"),
        "estimation.membership_scores_s": secs("estimation.membership_scores"),
        "estimation.score_cells": c["estimation.score_cells"],
        "estimation.hellinger2_rows_calls": calls("estimation.hellinger2_rows"),
        "estimation.hellinger2_rows_s": secs("estimation.hellinger2_rows"),
        "solver_mc.phase1_s": secs("solver_mc.phase1"),
        "solver_mc.phase2_s": secs("solver_mc.phase2"),
        "solver_mc.phase3_s": secs("solver_mc.phase3"),
        "solver_mc.refresh_s": secs("solver_mc.refresh"),
        "solver_mc.refresh_calls": calls("solver_mc.refresh"),
        "solver_mc.join_s": secs("solver_mc.join"),
        "solver_mc.join_calls": calls("solver_mc.join"),
        "solver_mc.singleton_calls": calls("solver_mc.singleton"),
        "solver_mc.q_phase1": sum(r["q_phase1"] for r in mc),
        "solver_mc.q_phase2": sum(r["q_phase2"] for r in mc),
        "solver_mc.q_phase3": sum(r["q_phase3"] for r in mc),
        "solver_mc.free_ratio": ratio(
            "solver_mc.free_ratio",
            sum(r["extras"]["side_placements"] for r in mc),
            sum(r["n"] for r in mc),
        ),
        "solver_mc.waiting_total": sum(r["extras"]["waiting_total"] for r in mc),
        "solver_lv.run_s": secs("solver_lv.run_lv"),
        "solver_lv.rank_self_s": self_secs("solver_lv.run_lv"),
        "solver_lv.fresh_scores_s": secs("solver_lv.fresh_scores"),
        "solver_lv.fresh_scores_calls": calls("solver_lv.fresh_scores"),
        "solver_lv.score_recomputes": c["solver_lv.score_recomputes"],
        "solver_lv.score_cache_hit_ratio": ratio(
            "solver_lv.score_cache_hit_ratio",
            calls("solver_lv.fresh_scores") - c["solver_lv.score_recomputes"],
            calls("solver_lv.fresh_scores"),
        ),
        "solver_lv.join_s": secs("solver_lv.join"),
        "solver_lv.join_calls": calls("solver_lv.join"),
        "solver_lv.queries_per_vertex": ratio(
            "solver_lv.queries_per_vertex",
            sum(r["queries"] for r in lv),
            sum(r["n"] for r in lv),
        ),
        "solver_lv.baseline_s": secs("solver_lv.run_baseline"),
        "clustering.verify_s": secs("clustering.verify"),
        "clustering.verify_calls": calls("clustering.verify"),
    }
    if "instance.save" in tot:
        m["instance.save_s"] = secs("instance.save")
        m["instance.load_s"] = secs("instance.load")
        m["instance.file_bytes"] = file_bytes
    if "harness.run_experiment" in tot:
        m["harness.run_experiment_s"] = secs("harness.run_experiment")
        m["harness.tasks"] = len(reports)
        m["harness.generate_per_instance"] = ratio(
            "harness.generate_per_instance",
            calls("instance.generate"),
            len({r["fingerprint"] for r in reports}),
        )
        m["harness.aggregate_s"] = secs("harness.aggregate")
        m["harness.emit_s"] = secs("harness.emit")
        m["harness.emit_bytes"] = c["harness.emit_bytes"]
    return m, bases
