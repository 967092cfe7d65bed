"""A round-by-round reference for ``run_mc``, with no incremental state.

Every step rebuilds what ``run_mc`` keeps up to date: the pooled estimates
from a recount of every pair of clustered vertices (:func:`pooled_estimates`),
the poll order by sorting the clusters by (-size, id), and the largest
unprocessed cluster by a scan over all of them. Phase 3 scores the sorted
pool against the grown cluster with :func:`membership_scores` and adds each
free inclusion one vertex at a time.

It sends the event stream ``run_mc`` sends to its sink: the oracle's
``query`` events and one ``place`` event per vertex.
"""

from __future__ import annotations

import math

import numpy as np
from estimation_reference import pooled_estimates

from oclust.estimation import membership_scores
from oclust.oracle import Oracle
from oclust.solver_mc import run_mc


def mc_events(instance, consts, seed, band="lemma") -> list:
    """Every event ``run_mc`` sends its sink, in order."""
    events: list = []
    run_mc(instance, consts, seed, band=band, events=events.append)
    return events


def reference_mc(instance, consts, seed, band="lemma") -> list:
    """The events ``run_mc`` sends to its sink."""
    n, side = instance.n, instance.side
    events: list = []
    oracle = Oracle(instance.labels, events.append)
    rng = np.random.default_rng(seed)
    pool = list(range(n))  # unclustered ids; removal moves the last id into the gap
    members: list[list[int]] = []
    done: set[int] = set()
    charged = 0

    def take(i: int) -> int:
        v = pool[i]
        pool[i] = pool[-1]
        pool.pop()
        return v

    def place(v: int, c: int, how: str) -> None:
        nonlocal charged
        queries = oracle.count - charged
        events.append({"event": "place", "v": v, "cluster": c, "queries": queries, "how": how})
        charged = oracle.count

    def by_query(v: int, first=None) -> None:
        order = sorted(range(len(members)), key=lambda c: (-len(members[c]), c))
        if first is not None:
            order.remove(first)
            order.insert(0, first)
        for c in order:
            if oracle.query(v, min(members[c])) == 1:
                members[c].append(v)
                place(v, c, "query")
                return
        members.append([v])
        place(v, len(members) - 1, "seed")

    target = max(1, math.ceil(consts.effective_c * math.log(max(n, 2))))
    while pool and max(map(len, members), default=0) < target:
        by_query(take(int(rng.integers(len(pool)))))

    while True:
        # phase 2: re-estimate, stop at a grown unprocessed cluster
        while True:
            est = pooled_estimates(members, side, consts, n)
            m = est.m_threshold
            grown = [
                c
                for c in range(len(members))
                if c not in done and m is not None and len(members[c]) >= m
            ]
            if grown:
                break
            if not pool:
                return events
            by_query(take(int(rng.integers(len(pool)))))

        # phase 3 on the largest grown cluster, ties to the older one
        cid = min(grown, key=lambda c: (-len(members[c]), c))
        h, logn = est.h, math.log(max(n, 2))
        if band == "lemma":
            center, wobble = h / consts.b, 2.0 * h * h / (consts.b * math.sqrt(logn))
        else:
            center, wobble = 4.0 * h / consts.c, 2.0 * h * h / (consts.c * math.sqrt(logn))
        t_in, t_wait = center - wobble, center + wobble
        pool_ids = np.array(sorted(pool), dtype=np.int64)
        if len(members[cid]) < 2:
            include, waiting = [], pool_ids.tolist()
        else:
            scores = membership_scores(pool_ids, members[cid], side)
            if t_in <= 0.0:
                include, waiting = [], pool_ids[scores >= -t_wait].tolist()
            else:
                include = pool_ids[scores >= -t_in].tolist()
                waiting = pool_ids[(scores >= -t_wait) & (scores < -t_in)].tolist()
        for v in include:
            take(pool.index(v))
        for v in include:
            members[cid].append(v)
            place(v, cid, "side")
        for v in waiting:
            take(pool.index(v))
            by_query(v, first=cid)
        done.add(cid)
