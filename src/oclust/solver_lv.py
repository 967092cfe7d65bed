"""Always-exact solvers: the membership-guided Las Vegas algorithm and the
no-side-information baseline.

Both place a vertex in a cluster only on a +1 answer and open a singleton
only after querying every existing cluster, so the output always equals the
ground truth and per-vertex queries never exceed the number of clusters.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .clustering import ClusteringState, InvariantError, misassigned_count, partition_equal
from .estimation import hellinger2_rows, membership_scores
from .instance import Instance
from .oracle import Oracle, QueryLogger
from .report import RunReport


def run_baseline(
    instance: Instance,
    seed: int,
    query_log: Optional[QueryLogger] = None,
) -> tuple[ClusteringState, RunReport]:
    """One query per existing cluster, new cluster on all-negative answers.

    Processes vertices in seeded-random order; exact by construction and
    uses at most nk queries (exactly n-1 when k == 1).
    """
    t0 = time.perf_counter()
    n = instance.n
    oracle = Oracle(instance.labels, log=query_log)
    state = ClusteringState(n)
    rng = np.random.default_rng(seed)
    kmax = max(instance.k, 1)
    for v in rng.permutation(n):
        v = int(v)
        before = oracle.count
        placed = False
        for cid in range(state.num_clusters):
            if oracle.query(v, state.min_member[cid]) == 1:
                state.add(v, cid)
                placed = True
                break
        if not placed:
            state.new_cluster(v)
        if oracle.count - before > kmax:
            raise InvariantError(f"baseline used more than k = {kmax} queries on vertex {v}")
    return state, _exact_report(
        "baseline", instance, seed, oracle, state, t0, {}
    )


class LvState:
    """Clusters in nonincreasing size order plus an incremental ranking of
    the unclustered pool.

    Unclustered vertices live in a compact pool: slots ``0..m-1`` of
    ``ids``, with ``slot`` mapping a vertex back to its slot; placing a
    vertex swap-removes it, moving the last slot's rows into its place.
    Every per-vertex array is indexed by slot and only the live prefix
    ``[:m]`` is ever read.

    Cache invariant, holding between rounds for every live slot i:

    - ``inter[c, :, i]`` counts the side-information values between vertex
      ``ids[i]`` and the members of cluster c (every cluster, ranked or not),
      stored one value plane per row so that scoring reads whole planes;
    - ``scores[c, i]`` is its membership in c, for every rankable cluster c
      (size >= 2), as :func:`hellinger2_rows` computes it; only the pool rows
      are scored, and a cluster is rescored only when it grew
      (``scored_at[c]`` is the size it was scored at);
    - ``best[i]`` is the first maximum of ``scores[:, i]`` over the rankable
      clusters taken in size order, so on equal scores the earlier cluster
      in ``order`` (the larger one, then the older one) wins; ``best_score``
      holds that maximum.

    When cluster c grows, rows whose cached best is another cluster b only
    compare c against b: the others' scores and relative order are
    unchanged. Rows whose cached best was c itself are re-ranked by a full
    argmax in size order.
    """

    def __init__(self, instance: Instance):
        n, q = instance.n, instance.q
        self.n = n
        self.q = q
        self.dense = instance.side.dense()
        self.clustering = ClusteringState(n)
        self.m = n  # live pool slots
        self.ids = np.arange(n)  # slot -> unclustered vertex
        self.slot = np.arange(n)  # vertex -> slot, while unclustered
        cap = 4  # cluster capacity of the arrays below, doubled on demand
        self.inter = np.zeros((cap, q, n))  # cluster x value x slot counts
        self.scores = np.empty((cap, n))  # cluster x slot membership
        self.best = np.full(n, -1)  # slot -> cached best rankable cluster
        self.best_score = np.full(n, -np.inf)
        self.intra: list[np.ndarray] = []  # per cluster: (q,) pair value counts
        self.scored_at: list[int] = []  # cluster size when it was last scored
        self.order: list[int] = []  # cluster ids by (-size, id)
        self.pos = np.zeros(cap, dtype=np.int64)  # cluster id -> index in order
        self.num_rankable = 0  # clusters of size >= 2: a prefix of order

    def rankable(self) -> list[int]:
        return self.order[: self.num_rankable]

    def join(self, v: int, cid: int) -> None:
        # v's pool counts toward cid are the pairs it adds inside cid; read
        # them before _remove reuses v's slot
        self.intra[cid] += self.inter[cid, :, self.slot[v]]
        self._remove(v)
        self._count(v, cid)
        self.clustering.add(v, cid)
        self._promote(cid)
        if self.clustering.size(cid) == 2:
            self.num_rankable += 1
        self._rerank(cid)

    def open_singleton(self, v: int) -> int:
        cid = self.clustering.new_cluster(v)
        if cid == self.inter.shape[0]:
            self.inter = np.concatenate([self.inter, np.zeros_like(self.inter)])
            self.scores = np.concatenate([self.scores, np.empty_like(self.scores)])
            self.pos = np.concatenate([self.pos, np.zeros_like(self.pos)])
        self.intra.append(np.zeros(self.q))
        self.scored_at.append(1)
        self.pos[cid] = len(self.order)
        self.order.append(cid)
        self._remove(v)
        self._count(v, cid)
        return cid

    def fresh_scores(self, cid: int) -> np.ndarray:
        """Membership of every pool vertex in ``cid``, rescored if it grew."""
        size = self.clustering.size(cid)
        m = self.m
        if self.scored_at[cid] != size:
            pairs = size * (size - 1) / 2
            p_c = self.intra[cid] / pairs
            counts = self.inter[cid, :, :m].T
            if self.q > 2:
                # from three values up, einsum's per-row summation order
                # follows the memory layout, so score a row-major copy as the
                # (n, q) row-major counts always were; a two-term sum rounds
                # the same in either order
                counts = np.ascontiguousarray(counts)
            self.scores[cid, :m] = -hellinger2_rows(counts, p_c)
            self.scored_at[cid] = size
        return self.scores[cid, :m]

    def _remove(self, v: int) -> None:
        """Swap-remove v from the pool."""
        i, last = self.slot[v], self.m - 1
        if i != last:
            u = self.ids[last]
            self.ids[i] = u
            self.slot[u] = i
            c = self.clustering.num_clusters
            self.inter[:c, :, i] = self.inter[:c, :, last]
            self.scores[:c, i] = self.scores[:c, last]
            self.best[i] = self.best[last]
            self.best_score[i] = self.best_score[last]
        self.m = last

    def _count(self, v: int, cid: int) -> None:
        """Add the pairs (pool vertex, v) to the pool's counts toward cid."""
        m = self.m
        cells = self.inter[cid].reshape(-1)  # value a, slot i at a * n + i
        vals = self.dense[v, self.ids[:m]].astype(np.int64)
        cells[vals * self.n + np.arange(m)] += 1.0

    def _promote(self, cid: int) -> None:
        """Move a cluster that just grew forward to its place in the order."""
        order, pos, size = self.order, self.pos, self.clustering.size
        key = (-size(cid), cid)
        i = int(pos[cid])
        while i > 0 and (-size(order[i - 1]), order[i - 1]) > key:
            order[i] = order[i - 1]
            pos[order[i]] = i
            i -= 1
        order[i] = cid
        pos[cid] = i

    def _rerank(self, cid: int) -> None:
        """Restore the best-cluster cache after cluster cid grew."""
        col = self.fresh_scores(cid)
        m = self.m
        best, best_score = self.best[:m], self.best_score[:m]
        stale = np.flatnonzero(best == cid)
        # rows that never had a rankable cluster hold -inf, so cid wins there
        wins = col > best_score
        ties = np.flatnonzero(col == best_score)
        if ties.size:
            wins[ties] = self.pos[cid] < self.pos[best[ties]]
        np.putmask(best, wins, cid)
        np.maximum(best_score, col, out=best_score)  # a tie keeps the same value
        if stale.size:
            ranked = np.array(self.rankable())
            sub = self.scores[:, stale][ranked]
            t = np.argmax(sub, axis=0)  # first max: larger cluster wins ties
            best[stale] = ranked[t]
            best_score[stale] = sub[t, np.arange(stale.size)]


def run_lv(
    instance: Instance,
    seed: int,
    query_log: Optional[QueryLogger] = None,
    trace: Optional[list] = None,
    paranoid: bool = False,
) -> tuple[ClusteringState, RunReport]:
    """Las Vegas clustering: always exact, side information only steers which
    cluster gets queried first.

    Each round finds the smallest index j (in nonincreasing size order) such
    that some unclustered vertex has its best membership at cluster j, and
    queries the lowest such vertex id against j; on a miss it works through
    dyadic size groups of the larger clusters (best-membership pick per
    group) and then exhausts the remaining clusters. Best memberships come
    from the cache :class:`LvState` keeps: after each placement only the pool
    rows of the one cluster that grew are rescored, and a full argmax runs
    only for the vertices whose cached best was that cluster; ties go to the
    earlier cluster in size order. ``trace``, when given, collects
    per-placement tuples (v, queries_used, recovered_true_cluster_size).
    ``paranoid`` checks the whole cache against a from-scratch
    :func:`membership_scores` on every round (tests only).
    """
    t0 = time.perf_counter()
    oracle = Oracle(instance.labels, log=query_log)
    lv = LvState(instance)
    # recovered-size accounting per true cluster, for trace consumers
    recovered = np.zeros(instance.k, dtype=np.int64)

    while lv.m > 0:
        pool = lv.ids[: lv.m]
        order = list(lv.order)
        if paranoid:
            _check_cache(lv, instance)
        if lv.num_rankable == 0:
            v = int(pool.min())
            used = _resolve_by_sweep(v, order, oracle, lv)
        else:
            # smallest order index j among the cached bests, then the
            # lowest vertex id achieving it
            j, v = divmod(int((lv.pos[lv.best[: lv.m]] * lv.n + pool).min()), lv.n)
            rankable = lv.rankable()
            v_scores = lv.scores[rankable, lv.slot[v]]
            used = _resolve_ranked(v, j, order, rankable, v_scores, oracle, lv)
        if trace is not None:
            trace.append((v, used, int(recovered[instance.labels[v]])))
        recovered[instance.labels[v]] += 1

    report = _exact_report("lv", instance, seed, oracle, lv.clustering, t0, {})
    return lv.clustering, report


def _check_cache(lv: LvState, instance: Instance) -> None:
    """Raise InvariantError unless the pool and every cached score and best
    cluster match a from-scratch recomputation."""
    clustering = lv.clustering
    pool = lv.ids[: lv.m]
    if not (
        np.array_equal(np.sort(pool), clustering.unclustered())
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
        ref = membership_scores(pool, clustering.members[c], instance.side)
        if not np.allclose(col, ref, atol=1e-12):
            raise InvariantError(f"LV cached scores of cluster {c} are stale")
    t = np.argmax(cached, axis=0)
    if not (
        np.array_equal(np.array(ranked)[t], lv.best[: lv.m])
        and np.array_equal(cached[t, np.arange(lv.m)], lv.best_score[: lv.m])
    ):
        raise InvariantError("LV cached best clusters are stale")


def _resolve_ranked(
    v: int,
    j: int,
    order: list[int],
    rankable: list[int],
    v_scores: np.ndarray,
    oracle: Oracle,
    lv: LvState,
) -> int:
    """Query schedule for a membership-ranked vertex; returns queries used."""
    clustering = lv.clustering
    tried: set[int] = set()

    def ask(cid: int) -> bool:
        tried.add(cid)
        if oracle.query(v, clustering.min_member[cid]) == 1:
            lv.join(v, cid)
            return True
        return False

    used = 1
    if ask(order[j]):
        return used

    # dyadic size groups over the larger clusters order[0..j-1]: group i holds
    # sizes in (s1/2^i, s1/2^(i-1)]; probe the best-membership cluster of each
    if j > 0:
        s1 = clustering.size(order[0])
        groups: dict[int, list[int]] = {}
        for idx in range(j):
            i = (s1 // clustering.size(order[idx])).bit_length()
            groups.setdefault(i, []).append(idx)
        for i in sorted(groups):
            idx = max(groups[i], key=lambda t: (v_scores[t], -t))
            used += 1
            if ask(order[idx]):
                return used

    # still unresolved: sweep every untried cluster, then open a singleton
    for cid in order:
        if cid in tried:
            continue
        used += 1
        if ask(cid):
            return used
    lv.open_singleton(v)
    return used


def _resolve_by_sweep(v: int, order: list[int], oracle: Oracle, lv: LvState) -> int:
    """No cluster is big enough to rank; fall back to a plain sweep."""
    used = 0
    for cid in order:
        used += 1
        if oracle.query(v, lv.clustering.min_member[cid]) == 1:
            lv.join(v, cid)
            return used
    lv.open_singleton(v)
    return used


def _exact_report(
    algo: str,
    instance: Instance,
    seed: int,
    oracle: Oracle,
    state: ClusteringState,
    t0: float,
    constants: dict,
) -> RunReport:
    blocks = state.blocks()
    exact = partition_equal(blocks, instance.labels)
    if not exact:
        raise InvariantError(f"{algo} must recover the exact partition")
    if oracle.count > instance.n * max(instance.k, 1):
        raise InvariantError(f"{algo} used {oracle.count} queries, more than n * k")
    mis = misassigned_count(blocks, instance.labels)
    return RunReport(
        algo=algo,
        fingerprint=instance.fingerprint(),
        n=instance.n,
        k=instance.k,
        seed=seed,
        queries=oracle.count,
        exact=exact,
        misassigned=mis,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        constants=constants,
        extras={"clusters_out": state.num_clusters},
    )
