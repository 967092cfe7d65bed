"""A round-by-round reference for ``run_lv``, with no cache and no batches.

Every round rescores every rankable cluster (size >= 2) over the whole
unclustered pool with :func:`membership_scores`, gives each vertex the first
maximum in size order, selects the smallest order index and then the lowest
vertex id, and applies the documented query schedule: the best cluster, one
best-membership cluster per dyadic size group of the larger clusters, every
cluster not yet tried, and a singleton last.
"""

from __future__ import annotations

import numpy as np

from oclust.estimation import membership_scores
from oclust.oracle import Oracle


def reference_lv(instance) -> tuple[list, list]:
    """The trace ``run_lv`` would collect, and the oracle's query log."""
    labels = instance.labels
    members: list[list[int]] = []
    unclustered = set(range(instance.n))
    log: list = []
    oracle = Oracle(labels, log=lambda *row: log.append(row))
    recovered = np.zeros(instance.k, dtype=np.int64)
    trace: list = []
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
            members.append([v])
        unclustered.remove(v)
        trace.append((v, used, int(recovered[labels[v]])))
        recovered[labels[v]] += 1
    return trace, log


def _group_picks(members, order, j, v_scores) -> list[int]:
    """The best-membership cluster of each dyadic size group among
    ``order[:j]``, group i holding sizes in (s1 / 2^i, s1 / 2^(i-1)]."""
    s1 = len(members[order[0]])
    groups: dict[int, list[int]] = {}
    for idx in range(j):
        groups.setdefault((s1 // len(members[order[idx]])).bit_length(), []).append(idx)
    # the highest score wins, then the earlier cluster
    return [order[max(groups[i], key=lambda t: (v_scores[t], -t))] for i in sorted(groups)]
