"""A round-by-round reference for ``run_lv``, with no cache and no batches.

Every round rescores every rankable cluster (size >= 2) over the whole
unclustered pool with :func:`membership_scores`, gives each vertex the first
maximum in size order, selects the smallest order index and then the lowest
vertex id, and applies the documented query schedule: the best cluster, one
best-membership cluster per dyadic size group of the larger clusters, every
cluster not yet tried, and a singleton last.

It sends the event stream ``run_lv`` sends to its sink: the oracle's
``query`` events and one ``place`` event per vertex.

:func:`check_every_round` checks ``LvState``'s whole cache against a
from-scratch recomputation around every placement step of a run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from oclust import solver_lv
from oclust.clustering import InvariantError
from oclust.estimation import membership_scores
from oclust.oracle import Oracle
from oclust.solver_lv import run_lv


def lv_events(instance) -> list:
    """Every event ``run_lv`` sends its sink, in order; the run must be exact."""
    events: list = []
    _, report = run_lv(instance, 0, events=events.append)
    assert report.exact
    return events


def lv_trace(instance) -> list:
    """LV's per-placement ``(v, queries, recovered)`` tuples, rebuilt from its
    ``place`` events; ``recovered`` counts the vertices of v's truth cluster
    placed before v."""
    recovered: Counter = Counter()
    trace = []
    for e in lv_events(instance):
        if e["event"] == "place":
            label = int(instance.labels[e["v"]])
            trace.append((e["v"], e["queries"], recovered[label]))
            recovered[label] += 1
    return trace


def reference_lv(instance) -> list:
    """The events ``run_lv`` sends to its sink."""
    members: list[list[int]] = []
    unclustered = set(range(instance.n))
    events: list = []
    oracle = Oracle(instance.labels, events.append)
    while unclustered:
        order = sorted(range(len(members)), key=lambda c: (-len(members[c]), c))
        rankable = [c for c in order if len(members[c]) >= 2]
        pool = np.array(sorted(unclustered))
        if rankable:
            scores = np.array([membership_scores(pool, members[c], instance.side) for c in rankable])
            best = scores.argmax(axis=0)  # an index into order: rankable is its prefix
            j = int(best.min())
            i = int(np.flatnonzero(best == j)[0])
            v, v_scores = int(pool[i]), scores[:, i]
            schedule = [order[j]] + _group_picks(members, order, j, v_scores)
        else:
            v, schedule = int(pool[0]), []
        schedule += [c for c in order if c not in schedule]
        used = 0
        for c in schedule:
            used += 1
            if oracle.query(v, min(members[c])) == 1:
                members[c].append(v)
                break
        else:
            c = len(members)
            members.append([v])
        unclustered.remove(v)
        events.append({"event": "place", "v": v, "cluster": c, "queries": used})
    return events


def _group_picks(members, order, j, v_scores) -> list[int]:
    """The best-membership cluster of each dyadic size group among
    ``order[:j]``, group i holding sizes in (s1 / 2^i, s1 / 2^(i-1)]."""
    s1 = len(members[order[0]])
    groups: dict[int, list[int]] = {}
    for idx in range(j):
        groups.setdefault((s1 // len(members[order[idx]])).bit_length(), []).append(idx)
    # the highest score wins, then the earlier cluster
    return [order[max(groups[i], key=lambda t: (v_scores[t], -t))] for i in sorted(groups)]


def check_every_round(monkeypatch, log=None) -> None:
    """Run :func:`check_cache` before and after every placement step of the
    LV runs that follow: each ``LvState.place_run`` (a first query, or a
    batch it commits) and each ``_place`` (a sweep, or the schedule after a
    miss). That covers every round boundary, every committed batch and the
    final state. Each check appends ``"check"`` to ``log``, if given."""

    def check(lv) -> None:
        if log is not None:
            log.append("check")
        check_cache(lv)

    def checked(step, lv_of):
        def run(*args, **kwargs):
            lv = lv_of(args)
            check(lv)
            result = step(*args, **kwargs)
            check(lv)
            return result

        return run

    monkeypatch.setattr(
        solver_lv.LvState, "place_run", checked(solver_lv.LvState.place_run, lambda a: a[0])
    )
    monkeypatch.setattr(solver_lv, "_place", checked(solver_lv._place, lambda a: a[3]))


def check_cache(lv) -> None:
    """Raise InvariantError unless the pool and every cached score and best
    cluster of ``lv``, an ``LvState``, equal a from-scratch recomputation
    exactly."""
    clustering = lv.clustering
    pool = lv.ids[: lv.m]
    if not (
        np.array_equal(np.sort(pool), np.flatnonzero(clustering.label_of == -1))
        and np.array_equal(lv.slot[pool], np.arange(lv.m))
    ):
        raise InvariantError("LV pool slots disagree with the clustering")
    expected = sorted(range(clustering.num_clusters), key=lambda c: (-clustering.size(c), c))
    if lv.order != expected or lv.rankable() != [c for c in expected if clustering.size(c) >= 2]:
        raise InvariantError("LV cluster order is stale")
    ranked = lv.rankable()
    if not ranked:
        return
    cached = lv.scores[ranked, : lv.m]
    for c, col in zip(ranked, cached):
        ref = membership_scores(pool, clustering.members[c], lv.side)
        if not np.array_equal(col, ref):
            raise InvariantError(f"LV cached scores of cluster {c} are stale")
    t = np.argmax(cached, axis=0)
    if not (
        np.array_equal(np.array(ranked)[t], lv.best[: lv.m])
        and np.array_equal(cached[t, np.arange(lv.m)], lv.best_score[: lv.m])
    ):
        raise InvariantError("LV cached best clusters are stale")
