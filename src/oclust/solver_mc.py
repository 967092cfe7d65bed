"""The parameter-free three-phase Monte Carlo solver.

Phase 1 seeds clusters by querying random vertices until one cluster reaches
ceil(scale * C * log n). Phase 2 alternates re-estimating the pooled
empirical distributions (and the size threshold they imply) with clustering
one more random vertex by queries. Phase 3 processes each grown cluster:
vertices whose membership clears the upper band join for free, vertices in
the uncertainty band are resolved by queries, and the cluster is then
retired. Control returns to phase 2 until every vertex is placed.

The per-step work is incremental. The state keeps the pooled pair-value
counts, and each re-estimate computes h from them with a few scalar
operations, summed left to right, so its bits do not depend on the CPU's
BLAS kernel (:func:`~oclust.estimation.estimates_from_counts`). The clusters
are kept in (-size, id) order as they grow: a vertex is polled in that order,
and the largest cluster phase 3 has not processed is the first such one in
it.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

# misassigned_count and partition_equal stay importable here for perfbench/tracer.py
from .clustering import ClusteringState, misassigned_count, partition_equal, promote
from .estimation import Constants, Estimates, estimates_from_counts, membership_scores
from .instance import Instance, SideInfo
from .oracle import EventSink, Oracle
from .report import RunReport, finish

BAND_MODES = ("lemma", "text")

# Cells of W read per step of McState.join_batch: the step's rows of the
# dense matrix, and every gather and compare made from them, stay under the
# 4 MiB from which numpy asks for transparent huge pages (see
# instance._GENERATE_CHUNK), so peak memory does not depend on the batch.
_JOIN_CELLS = 1 << 20


class _Pool:
    """Unclustered ids with O(1) uniform pop and O(1) targeted removal."""

    def __init__(self, ids):
        self.items = list(ids)
        self.pos = {v: i for i, v in enumerate(self.items)}

    def __len__(self):
        return len(self.items)

    def pop_random(self, rng) -> int:
        i = int(rng.integers(len(self.items)))
        return self._pop_at(i)

    def remove(self, v: int) -> None:
        self._pop_at(self.pos[v])

    def _pop_at(self, i: int) -> int:
        items = self.items
        v = items[i]
        last = items.pop()
        if last != v:
            items[i] = last
            self.pos[last] = i
        del self.pos[v]
        return v

    def snapshot(self) -> np.ndarray:
        return np.array(sorted(self.items), dtype=np.int64)


class McState:
    """Mutable run state: the partial clustering, current estimates, and the
    set of clusters already processed in phase 3.

    ``intra_counts`` and ``inter_counts`` count the side-information values
    of every within-cluster and every cross-cluster pair of clustered
    vertices, over ``n_intra`` and ``n_inter`` pairs. :meth:`join` and
    :meth:`open_singleton` add one vertex's pairs with the vertices
    clustered before it. :meth:`join_batch` adds a whole phase-3 inclusion
    set to one cluster with the same integer counts, a block of whole rows
    of W at a time: each block is counted against the cluster's members and
    against the other clusters' members, plus the pairs inside the block;
    values a >= 1 are counted by comparison and value 0 is the rest of the
    pair total.

    ``order`` holds the cluster ids by (-size, id), the order in which a
    vertex is polled; a new cluster goes to its end and a cluster that grew
    moves forward (:func:`~oclust.clustering.promote`), so no placement
    sorts the clusters.

    Each placement sends the oracle's event sink, if any, ``{"event":
    "place", "v", "cluster", "queries", "how"}``. MC only asks about the
    vertex it places next, so ``queries`` is the charge since the last one.
    """

    def __init__(self, side: SideInfo, rng: np.random.Generator, oracle: Optional[Oracle] = None):
        self.side = side
        self.clustering = ClusteringState(side.n)
        self.phase = "init"
        self.estimates: Optional[Estimates] = None
        self.grown_done: set[int] = set()
        self.order: list[int] = []  # cluster ids by (-size, id)
        self.pos: list[int] = []  # cluster id -> index in order
        self.rng = rng
        self.pool = _Pool(range(side.n))
        self.dense = side.dense()
        self.q = side.q
        # pooled pair-value counts over everything clustered so far
        self.intra_counts = np.zeros(side.q, dtype=np.int64)
        self.inter_counts = np.zeros(side.q, dtype=np.int64)
        self.n_intra = 0
        self.n_inter = 0
        # every clustered vertex in placement order: the live prefix [:n_clustered]
        self.clustered = np.empty(side.n, dtype=np.int64)
        self.n_clustered = 0
        # bookkeeping for reports and invariants
        self.placement = ["?"] * side.n
        self.q_phase = {"phase1": 0, "phase2": 0, "phase3": 0}
        self.vertices_phase = {"phase1": 0, "phase2": 0}
        self.waiting_total = 0
        self.oracle = oracle
        self.events = oracle.events if oracle is not None else None
        self.charged = 0  # oracle count at the previous placement event

    def join(self, v: int, cid: int, how: str) -> None:
        members = self.clustering.members[cid]
        row = self.dense[v]
        cnt_c = np.bincount(row[members], minlength=self.q)
        cnt_all = np.bincount(row[self.clustered[: self.n_clustered]], minlength=self.q)
        self.intra_counts += cnt_c
        self.inter_counts += cnt_all - cnt_c
        self.n_intra += len(members)
        self.n_inter += self.n_clustered - len(members)
        self.clustering.add(v, cid)
        promote(self.order, self.pos, self.clustering.size, cid)
        self._mark_clustered(v, how)

    def join_batch(self, vs: np.ndarray, cid: int, how: str) -> None:
        """Join ``vs`` to cluster ``cid`` in order; the counts equal those of
        one :meth:`join` per vertex."""
        clustering = self.clustering
        prefix = self.clustered[: self.n_clustered]
        # the batch only grows cid, so the other clusters' members stay fixed
        others = prefix[clustering.label_of[prefix] != cid]
        step = max(1, _JOIN_CELLS // self.dense.shape[1])
        for lo in range(0, len(vs), step):
            chunk = vs[lo : lo + step]
            r = len(chunk)
            rows = self.dense[chunk]
            members = np.asarray(clustering.members[cid], dtype=np.int64)
            # the chunk's own square is symmetric with a zero diagonal, so
            # each pair inside the chunk shows up twice among values a >= 1
            intra = self._nonzero_counts(rows[:, members])
            intra += self._nonzero_counts(rows[:, chunk]) // 2
            pairs = r * len(members) + r * (r - 1) // 2
            intra[0] = pairs - intra.sum()
            self.intra_counts += intra
            self.n_intra += pairs
            inter = self._nonzero_counts(rows[:, others])
            inter[0] = r * len(others) - inter.sum()
            self.inter_counts += inter
            self.n_inter += r * len(others)
            for v in chunk.tolist():
                clustering.add(v, cid)
                self._mark_clustered(v, how)
        promote(self.order, self.pos, clustering.size, cid)

    def _nonzero_counts(self, block: np.ndarray) -> np.ndarray:
        """Counts of each value a >= 1 in ``block``; entry 0 is left 0."""
        out = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            out[a] = np.count_nonzero(block == a)
        return out

    def open_singleton(self, v: int, how: str) -> int:
        self.inter_counts += np.bincount(
            self.dense[v, self.clustered[: self.n_clustered]], minlength=self.q
        )
        self.n_inter += self.n_clustered
        cid = self.clustering.new_cluster(v)
        # size 1 and the highest id: last in the order
        self.pos.append(len(self.order))
        self.order.append(cid)
        self._mark_clustered(v, how)
        return cid

    def _mark_clustered(self, v: int, how: str) -> None:
        self.clustered[self.n_clustered] = v
        self.n_clustered += 1
        self.placement[v] = how
        if self.events is not None:
            charged = self.oracle.count
            cid = int(self.clustering.label_of[v])
            queries = charged - self.charged
            self.events({"event": "place", "v": v, "cluster": cid, "queries": queries, "how": how})
            self.charged = charged

    def refresh_estimates(self, consts: Constants) -> Estimates:
        self.estimates = estimates_from_counts(
            self.intra_counts,
            self.inter_counts,
            self.n_intra,
            self.n_inter,
            self.side.support,
            consts,
            self.side.n,
        )
        return self.estimates

    def grown_cluster(self, m: Optional[int]) -> Optional[int]:
        """The largest cluster phase 3 has not processed (ties to the older
        one) if it has at least ``m`` members; else None."""
        if m is not None:
            for c in self.order:
                if c not in self.grown_done:
                    return c if self.clustering.size(c) >= m else None
        return None


def _place_by_query(
    state: McState, v: int, oracle: Oracle, first: Optional[int] = None
) -> int:
    """One query per existing cluster, ``first`` first and then by decreasing
    size (ties by creation id); stop at the first +1, else open a singleton."""
    reps = state.clustering.min_member
    if first is not None and oracle.query(v, reps[first]) == 1:
        state.join(v, first, "query")
        return first
    order = state.order
    if first is not None:
        order = [cid for cid in order if cid != first]
    j = oracle.first_match(v, map(reps.__getitem__, order))
    if j is None:
        return state.open_singleton(v, "seed")
    cid = order[j]
    state.join(v, cid, "query")
    return cid


def phase1(
    side: SideInfo,
    oracle: Oracle,
    consts: Constants,
    rng: np.random.Generator,
) -> McState:
    """Query random vertices until one cluster reaches ceil(scale*C*log n).

    If the pool runs out first the clustering is already complete and exact.
    """
    state = McState(side, rng, oracle)
    target = max(1, math.ceil(consts.effective_c * math.log(max(side.n, 2))))
    before = oracle.count
    size = state.clustering.size
    # the largest cluster leads the size order
    while len(state.pool) and (not state.order or size(state.order[0]) < target):
        v = state.pool.pop_random(rng)
        _place_by_query(state, v, oracle)
        state.vertices_phase["phase1"] += 1
    state.q_phase["phase1"] = oracle.count - before
    state.phase = "iterate"
    return state


def phase2_loop(state: McState, oracle: Oracle, consts: Constants) -> McState:
    """Alternate pooled re-estimation with clustering one more random vertex.

    Exits with ``state.phase == "grow"`` as soon as a not-yet-processed
    cluster reaches the current threshold (zero queries if that already
    holds on entry), or ``"done"`` when every vertex is clustered.
    """
    before = oracle.count
    while True:
        m = state.refresh_estimates(consts).m_threshold
        if state.grown_cluster(m) is not None:
            state.phase = "grow"
            break
        if not len(state.pool):
            state.phase = "done"
            break
        v = state.pool.pop_random(state.rng)
        _place_by_query(state, v, oracle)
        state.vertices_phase["phase2"] += 1
    state.q_phase["phase2"] += oracle.count - before
    return state


def phase3_process(
    state: McState,
    oracle: Oracle,
    consts: Constants,
    band: str = "lemma",
) -> McState:
    """Process the largest grown cluster with the estimates frozen at entry.

    3A: memberships at or above -(h/B - 2h^2/(B sqrt(log n))) join with zero
    queries. 3B: memberships inside the two-sided band go to Waiting and are
    resolved by one query per existing cluster, the grown cluster first.
    If the lower cut is nonpositive (tiny n) or the cluster is too small to
    have an intra distribution, free inclusion is disabled and every
    candidate is resolved by queries. The cluster is then retired.
    """
    if band not in BAND_MODES:
        raise ValueError(f"band must be one of {BAND_MODES}")
    before = oracle.count
    est = state.estimates
    cid = state.grown_cluster(est.m_threshold if est else None)
    if cid is None:
        raise ValueError("phase 3 needs a grown, unprocessed cluster")

    h = est.h
    logn = math.log(max(state.side.n, 2))
    if band == "lemma":
        center, wobble = h / consts.b, 2.0 * h * h / (consts.b * math.sqrt(logn))
    else:
        center, wobble = 4.0 * h / consts.c, 2.0 * h * h / (consts.c * math.sqrt(logn))
    t_in, t_wait = center - wobble, center + wobble

    pool_ids = state.pool.snapshot()
    if state.clustering.size(cid) < 2:
        include = np.array([], dtype=np.int64)
        waiting = pool_ids
    else:
        scores = membership_scores(pool_ids, state.clustering.members[cid], state.side)
        if t_in <= 0.0:
            include = np.array([], dtype=np.int64)
            waiting = pool_ids[scores >= -t_wait]
        else:
            include = pool_ids[scores >= -t_in]
            waiting = pool_ids[(scores >= -t_wait) & (scores < -t_in)]

    for v in include.tolist():
        state.pool.remove(v)
    state.join_batch(include, cid, "side")
    for v in waiting.tolist():
        state.pool.remove(v)
        _place_by_query(state, v, oracle, first=cid)
    state.waiting_total += len(waiting)
    state.grown_done.add(cid)
    state.q_phase["phase3"] += oracle.count - before
    state.phase = "iterate"
    return state


def run_mc(
    instance: Instance,
    consts: Constants = Constants(),
    seed: int = 0,
    band: str = "lemma",
    events: Optional[EventSink] = None,
) -> tuple[ClusteringState, RunReport]:
    """:func:`solve_mc` on ``instance``, checked and reported with its
    phase split.

    ``events``, when given, receives the oracle's ``query`` events and one
    ``place`` event per vertex (see :class:`McState`).
    """
    t0 = time.perf_counter()
    oracle = Oracle(instance.labels, events)
    state = solve_mc(instance.side, oracle, consts, seed, band)
    est = state.estimates
    report = finish(
        "mc",
        instance,
        seed,
        oracle,
        state.clustering,
        t0,
        exact_required=False,
        phases=state.q_phase,
        constants={**consts.as_dict(), "band": band},
        extras={
            # MC never closes a cluster, so it never held more than it output
            "max_clusters_seen": state.clustering.num_clusters,
            "vertices_phase1": state.vertices_phase["phase1"],
            "vertices_phase2": state.vertices_phase["phase2"],
            "waiting_total": state.waiting_total,
            "side_placements": state.placement.count("side"),
            "h_final": est.h if est else None,
            "m_final": est.m_threshold if est else None,
        },
    )
    return state.clustering, report


def solve_mc(
    side: SideInfo,
    oracle: Oracle,
    consts: Constants = Constants(),
    seed: int = 0,
    band: str = "lemma",
) -> McState:
    """Run the three phases until every vertex is clustered; the state holds
    the clustering and the query accounting."""
    if band not in BAND_MODES:
        raise ValueError(f"band must be one of {BAND_MODES}")
    rng = np.random.default_rng(seed)
    state = phase1(side, oracle, consts, rng)
    guard = 0
    while True:
        state = phase2_loop(state, oracle, consts)
        if state.phase == "done":
            return state
        state = phase3_process(state, oracle, consts, band=band)
        guard += 1
        if guard > 2 * side.n + 4:
            raise RuntimeError("phase loop failed to terminate")
