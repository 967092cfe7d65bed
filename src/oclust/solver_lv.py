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

# misassigned_count and partition_equal stay importable here for perfbench/tracer.py
from .clustering import ClusteringState, InvariantError, misassigned_count, partition_equal, promote
from .estimation import hellinger2_counts, hellinger2_rows, value_totals
from .instance import Instance, SideInfo
from .oracle import EventSink, Oracle
from .report import RunReport, finish


def run_baseline(
    instance: Instance,
    seed: int,
    events: Optional[EventSink] = None,
) -> tuple[ClusteringState, RunReport]:
    """:func:`solve_baseline` on ``instance``, checked and reported.

    ``events`` receives the events :func:`run_lv` documents.
    """
    t0 = time.perf_counter()
    oracle = Oracle(instance.labels, events)
    state = solve_baseline(oracle, seed)
    return state, finish("baseline", instance, seed, oracle, state, t0)


def solve_baseline(oracle: Oracle, seed: int) -> ClusteringState:
    """One query per existing cluster, new cluster on all-negative answers.

    Processes the oracle's ``n`` vertices in seeded-random order; exact by
    construction, each vertex asks at most the clusters open before it
    (exactly n-1 queries in all when k == 1).
    """
    state = ClusteringState(oracle.n)
    reps = state.min_member  # each cluster's representative, by cluster id
    rng = np.random.default_rng(seed)
    for v in rng.permutation(oracle.n).tolist():
        before, open_before = oracle.count, len(reps)
        cid = oracle.first_match(v, reps)
        if cid is None:
            cid = state.new_cluster(v)
        else:
            state.add(v, cid)
        used = oracle.count - before
        if used > open_before:
            raise InvariantError(
                f"baseline asked {used} queries on vertex {v} with {open_before} clusters open"
            )
        _emit_place(oracle, v, cid, used)
    return state


# Cells of the largest temporary a batch of speculative placements builds:
# 128 KB of float64. Larger batches gained no speed and raised peak RSS
_BATCH_CELLS = 1 << 14
# Fewest steps a batch guesses: shorter batches cost more than they save
_MIN_BATCH = 4


class LvState:
    """Clusters in nonincreasing size order plus an incremental ranking of
    the unclustered pool.

    Unclustered vertices live in a compact pool: slots ``0..m-1`` of
    ``ids``, with ``slot`` mapping a vertex back to its slot; placing a
    vertex swap-removes it, moving the last slot's rows into its place.
    Every per-vertex array is indexed by slot and only the live prefix
    ``[:m]`` is ever read.

    Cache invariant, holding between rounds for every live slot i:

    - ``inter[c, a - 1, i]`` counts the members of cluster c (every cluster,
      ranked or not) whose side-information value with vertex ``ids[i]`` is
      a, for a = 1..q-1, as int32 planes; value 0's count is the cluster size
      minus their sum;
    - ``scores[c, i]`` is its membership in c, for every rankable cluster c
      (size >= 2), bit for bit :func:`~oclust.estimation.membership_scores`;
      only the pool rows are scored, and a cluster is rescored only when it
      grew (``scored_at[c]`` is the size it was scored at);
    - ``best[i]`` is the first maximum of ``scores[:, i]`` over the rankable
      clusters taken in size order, so on equal scores the earlier cluster
      in ``order`` (the larger one, then the older one) wins; ``best_score``
      holds that maximum.

    When cluster c grows by one vertex (:meth:`join`), rows whose cached best
    is another cluster b only compare c against b: the others' scores and
    relative order are unchanged. Rows whose cached best was c itself are
    re-ranked by a full argmax in size order. A run of placements into one
    cluster can instead be committed at once (:meth:`place_run`).
    """

    def __init__(self, side: SideInfo):
        n, q = side.n, side.q
        self.n = n
        self.q = q
        self.side = side
        self.dense = side.dense()
        self.clustering = ClusteringState(n)
        self.m = n  # live pool slots
        self.ids = np.arange(n)  # slot -> unclustered vertex
        self.slot = np.arange(n)  # vertex -> slot, while unclustered
        cap = 4  # cluster capacity of the arrays below, doubled on demand
        self.inter = np.zeros((cap, q - 1, n), dtype=np.int32)  # cluster x value x slot
        self.scores = np.empty((cap, n))  # cluster x slot membership
        self.best = np.full(n, -1)  # slot -> cached best rankable cluster
        self.best_score = np.full(n, -np.inf)
        self.intra: list[np.ndarray] = []  # per cluster: (q,) pair value counts
        self.scored_at: list[int] = []  # cluster size when it was last scored
        self.order: list[int] = []  # cluster ids by (-size, id)
        self.pos = np.zeros(cap, dtype=np.int64)  # cluster id -> index in order
        self.num_rankable = 0  # clusters of size >= 2: a prefix of order
        # steps the next batch guesses: doubled after a batch commits all of
        # its steps, cut to the steps committed after one that does not, and
        # one more after each single-step first-query hit
        self.batch = 0

    def rankable(self) -> list[int]:
        return self.order[: self.num_rankable]

    def join(self, v: int, cid: int) -> None:
        # v's counts toward cid are the pairs it adds inside cid; read them
        # before _remove reuses v's slot
        row = self.inter[cid, :, self.slot[v]]
        self.intra[cid][1:] += row
        self.intra[cid][0] += self.clustering.size(cid) - row.sum()
        self._remove(v)
        self._count(v, cid)
        self.clustering.add(v, cid)
        promote(self.order, self.pos, self.clustering.size, cid)
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
        if self.scored_at[cid] != self.clustering.size(cid):
            self._rescore(cid)
        return self.scores[cid, : self.m]

    def place_run(self, j: int, v: int, oracle: Oracle) -> Optional[int]:
        """Ask the selected vertex v about cluster ``order[j]`` first and, while
        the answers are +1, go on placing the vertices the following rounds
        select into that cluster. Returns the vertex whose first query
        missed, or None when none missed.

        When at least ``_MIN_BATCH`` steps fit, the run is guessed and checked
        in one batch (:meth:`_guess`); otherwise v alone takes a single step.
        """
        c = self.order[j]
        guess = self._guess(c)
        if guess is None:
            if oracle.query(v, self.clustering.min_member[c]) != 1:
                return v
            self.join(v, c)
            _emit_place(oracle, v, c, 1)
            self.batch += 1
            return None
        g, verified, other, other_score, tau, intra = guess
        rep = self.clustering.min_member[c]
        steps, missed = 0, None
        for u in g[:verified].tolist():
            if oracle.query(u, rep) != 1:
                missed = u
                break
            # placed now, committed with the batch's verified prefix below
            _emit_place(oracle, u, c, 1)
            steps += 1
            rep = min(rep, u)
        self.batch = 2 * g.size if steps == g.size else steps
        if steps:
            self._commit(c, g[:steps], other, other_score, tau, intra[steps])
        return missed

    def _guess(self, c: int) -> Optional[tuple]:
        """Guess the next rounds' selections and check them in one pass.

        Called when the round's selection is (j, v) with ``order[j] == c``.
        The guess: while every query hits, the following rounds place the
        lowest-id pool vertices whose cached best is c, in id order, and
        nothing else changes but c. Step t (c has grown by t) is verified
        when the selection the sequential rounds would make there is the
        guessed vertex with best cluster c, assuming steps 0..t-1 placed
        their guesses. Only c's scores move, so every row's best is c or its
        first-max cluster among the others, which this computes once.

        Returns None when fewer than ``_MIN_BATCH`` steps fit in the cell
        budget or have candidates; else the guessed vertices, the length of
        the verified prefix, each row's best other cluster, its score and the
        step from which c precedes it in size order, and c's intra-cluster
        counts before each step.
        """
        if self.batch < _MIN_BATCH:
            return None
        m, q = self.m, self.q
        ids, best = self.ids[:m], self.best[:m]
        cand = np.flatnonzero(best == c)
        steps = min(self.batch, cand.size)
        if steps < _MIN_BATCH:
            return None
        g = np.sort(ids[cand])[:steps]
        # every row up to the last guess is watched (see below); if they alone
        # leave no room for _MIN_BATCH steps, the budget check below fails too
        if (_MIN_BATCH + 1) * q * np.count_nonzero(ids <= g[-1]) > _BATCH_CELLS:
            return None
        clustering = self.clustering
        s0 = clustering.size(c)
        # rows whose best is not c rank c after it at every step; for rows of
        # c, c precedes its rival o from step tau = |o| - |c| + (o < c) on
        other = best.copy()
        other_score = self.best_score[:m].copy()
        tau = np.zeros(m, dtype=np.int64)
        rivals = np.array([r for r in self.rankable() if r != c], dtype=np.int64)
        if rivals.size:
            sub = self.scores[rivals[:, None], cand]
            pick = sub.argmax(axis=0)  # first max in size order
            other[cand] = rivals[pick]
            other_score[cand] = sub[pick, np.arange(cand.size)]
            sizes = np.array([clustering.size(r) for r in rivals])
            tau[cand] = sizes[pick] - s0 + (rivals[pick] < c)
        else:
            other_score[cand] = -np.inf
        # rows that can break the guess: every row up to the last guess (a
        # lower id whose best turns to c is selected first) and rows of c that
        # a cluster preceding c can take back; no other row can
        rows = np.flatnonzero((ids <= g[-1]) | (tau > 0))
        steps = min(steps, _BATCH_CELLS // (rows.size * q) - 1)
        if steps < _MIN_BATCH:
            return None
        g = g[:steps]
        at = np.searchsorted(rows, self.slot[g])  # guessed rows within rows
        size = s0 + np.arange(steps + 1)

        # c's counts toward the watched rows before each step 0..steps, one
        # plane per value
        cnt = np.empty((q, steps + 1, rows.size))
        cnt[1:, 0] = self.inter[c][:, rows]
        vals = self.dense[g][:, ids[rows]]
        for a in range(1, q):
            np.cumsum(vals == a, axis=0, out=cnt[a, 1:])
        cnt[1:, 1:] += cnt[1:, :1]
        np.subtract(size[:, None], cnt[1], out=cnt[0])
        for a in range(2, q):
            cnt[0] -= cnt[a]
        intra = np.empty((steps + 1, q))
        intra[0] = self.intra[c]
        np.cumsum(cnt[:, np.arange(steps), at].T, axis=0, out=intra[1:])
        intra[1:] += intra[0]
        p_c = intra / (size * (size - 1) / 2)[:, None]
        score = np.empty((steps + 1, rows.size))
        score[0] = self.scores[c, rows]
        np.negative(hellinger2_rows(cnt[:, 1:], size[1:, None], p_c[1:].T[:, :, None]), out=score[1:])

        t = np.arange(steps + 1)[:, None]
        os_r, tau_r = other_score[rows], tau[rows]
        is_c = (score > os_r) | ((score == os_r) & (t >= tau_r))
        left = np.full(rows.size, steps)  # step a row leaves the pool after
        left[at] = np.arange(steps)
        t = t[:-1]
        # a row in the pool at step t is selected before the guess if its
        # best is c and its id is lower, or its best precedes c
        early = np.where(is_c[:-1], ids[rows] < g[:, None], t < tau_r) & (t <= left)
        ok = is_c[np.arange(steps), at] & ~early.any(axis=1)
        verified = steps if ok.all() else int(ok.argmin())
        return g, verified, other, other_score, tau, intra

    def _commit(self, c: int, placed: np.ndarray, other, other_score, tau, intra) -> None:
        """Apply the verified steps of a batch: the vertices ``placed`` join c
        in order, leaving the cache as their single steps would."""
        m, steps = self.m, placed.size
        self.intra[c] = intra
        self.inter[c, :, :m] += value_totals(self.dense, self.q, placed).take(self.ids[:m], axis=1)
        for u in placed.tolist():
            self.clustering.add(u, c)
        self._rescore(c)
        col = self.scores[c, :m]
        is_c = (col > other_score) | ((col == other_score) & (steps >= tau))
        self.best[:m] = np.where(is_c, c, other)
        np.maximum(col, other_score, out=self.best_score[:m])
        self._drop(self.slot[placed])
        promote(self.order, self.pos, self.clustering.size, c)

    def _rescore(self, cid: int) -> None:
        size, m = self.clustering.size(cid), self.m
        p_c = self.intra[cid] / (size * (size - 1) / 2)
        np.negative(hellinger2_counts(self.inter[cid, :, :m], size, p_c), out=self.scores[cid, :m])
        self.scored_at[cid] = size

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

    def _drop(self, slots: np.ndarray) -> None:
        """Swap-remove the pool rows at these distinct slots at once,
        refilling the holes left below the new end with the rows kept past
        it. One vertex goes through :meth:`_remove`, whose scalar copies
        cost a fraction of these index arrays."""
        m = self.m - slots.size
        holes = slots[slots < m]
        if holes.size:
            kept = np.ones(slots.size, dtype=bool)
            kept[slots[slots >= m] - m] = False
            movers = m + np.flatnonzero(kept)
            u = self.ids[movers]
            self.ids[holes] = u
            self.slot[u] = holes
            c = self.clustering.num_clusters
            self.inter[:c, :, holes] = self.inter[:c, :, movers]
            self.scores[:c, holes] = self.scores[:c, movers]
            self.best[holes] = self.best[movers]
            self.best_score[holes] = self.best_score[movers]
        self.m = m

    def _count(self, v: int, cid: int) -> None:
        """Add the pairs (pool vertex, v) to the pool's counts toward cid; one
        row of W read directly, where :func:`value_totals` serves a set."""
        m = self.m
        vals = self.dense[v, self.ids[:m]]
        for a in range(1, self.q):
            self.inter[cid, a - 1, :m] += vals == a

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
            sub = self.scores[ranked[:, None], stale]
            t = np.argmax(sub, axis=0)  # first max: larger cluster wins ties
            best[stale] = ranked[t]
            best_score[stale] = sub[t, np.arange(stale.size)]


def run_lv(
    instance: Instance,
    seed: int,
    events: Optional[EventSink] = None,
) -> tuple[ClusteringState, RunReport]:
    """:func:`solve_lv` on ``instance``, checked and reported. LV draws no
    randomness: ``seed`` is only recorded."""
    t0 = time.perf_counter()
    oracle = Oracle(instance.labels, events)
    state = solve_lv(instance.side, oracle)
    return state, finish("lv", instance, seed, oracle, state, t0)


def solve_lv(side: SideInfo, oracle: Oracle) -> ClusteringState:
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
    earlier cluster in size order.

    Runs of rounds that place their vertex into one cluster on the first
    query are taken in batches (:meth:`LvState.place_run`): the next rounds'
    selections are guessed, checked in one vectorized pass, queried in
    order, and the verified prefix of +1 answers is committed at once. The
    round that breaks the run takes the single-step path. Every query, its
    order and every cached score are the same as round-by-round placement.

    The oracle's event sink, if any, receives its ``query`` events and one
    ``{"event": "place", "v", "cluster", "queries"}`` per vertex, right
    after the queries that placed it: the cluster it joined or opened and
    how many queries it took. The stream is the same as round-by-round
    placement's.
    """
    lv = LvState(side)

    while lv.m > 0:
        pool = lv.ids[: lv.m]
        if lv.num_rankable == 0:
            # no cluster is big enough to rank: a plain sweep
            _place(int(pool.min()), list(lv.order), oracle, lv)
        else:
            # smallest order index j among the cached bests, then the
            # lowest vertex id achieving it
            j, v = divmod(int((lv.pos[lv.best[: lv.m]] * lv.n + pool).min()), lv.n)
            c = lv.order[j]
            missed = lv.place_run(j, v, oracle)
            if missed is not None:
                schedule = _miss_schedule(missed, int(lv.pos[c]), lv)
                _place(missed, schedule, oracle, lv, asked=1)
    return lv.clustering


def _miss_schedule(v: int, j: int, lv: LvState) -> list[int]:
    """Query schedule after v's first query, to cluster ``order[j]``, missed:
    the best-membership cluster of each dyadic size group of the larger
    clusters ``order[:j]`` (group i holds sizes in (s1/2^i, s1/2^(i-1)]),
    then every cluster not yet tried, in order."""
    clustering, order = lv.clustering, lv.order
    v_scores = lv.scores[lv.rankable(), lv.slot[v]]
    s1 = clustering.size(order[0])
    groups: dict[int, list[int]] = {}
    for idx in range(j):
        groups.setdefault((s1 // clustering.size(order[idx])).bit_length(), []).append(idx)
    picks = [order[max(groups[i], key=lambda t: (v_scores[t], -t))] for i in sorted(groups)]
    tried = {order[j], *picks}
    return picks + [cid for cid in order if cid not in tried]


def _place(v: int, schedule: list[int], oracle: Oracle, lv: LvState, asked: int = 0) -> None:
    """Query v against the clusters in schedule order until one answers +1,
    else open a singleton; ``asked`` queries about v came before."""
    reps = lv.clustering.min_member
    j = oracle.first_match(v, map(reps.__getitem__, schedule))
    if j is None:
        _emit_place(oracle, v, lv.open_singleton(v), asked + len(schedule))
    else:
        lv.join(v, schedule[j])
        _emit_place(oracle, v, schedule[j], asked + j + 1)


def _emit_place(oracle: Oracle, v: int, cid: int, queries: int) -> None:
    """Send the run's event sink, if any, the ``place`` event of v."""
    if oracle.events is not None:
        oracle.events({"event": "place", "v": v, "cluster": cid, "queries": queries})

