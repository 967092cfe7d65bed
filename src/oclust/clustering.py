"""Partial partitions under construction, plus partition comparison helpers."""

from __future__ import annotations

from itertools import chain

import numpy as np


class InvariantError(RuntimeError):
    """A solver broke one of its guarantees. Raised by explicit checks, so
    it still fires under ``python -O``."""


class ClusteringState:
    """Disjoint clusters of element ids plus the unclustered pool.

    Clusters are identified by creation index; members are kept in join
    order and the minimum member id (the deterministic query representative)
    is tracked incrementally.
    """

    __slots__ = ("n", "members", "label_of", "min_member")

    def __init__(self, n: int):
        self.n = n
        self.members: list[list[int]] = []
        self.label_of = np.full(n, -1, dtype=np.int32)
        self.min_member: list[int] = []

    @property
    def num_clusters(self) -> int:
        return len(self.members)

    def size(self, cid: int) -> int:
        return len(self.members[cid])

    def new_cluster(self, v: int) -> int:
        if self.label_of[v] != -1:
            raise ValueError(f"element {v} already clustered")
        cid = len(self.members)
        self.members.append([v])
        self.min_member.append(v)
        self.label_of[v] = cid
        return cid

    def add(self, v: int, cid: int) -> None:
        if self.label_of[v] != -1:
            raise ValueError(f"element {v} already clustered")
        self.members[cid].append(v)
        if v < self.min_member[cid]:
            self.min_member[cid] = v
        self.label_of[v] = cid

    @property
    def num_unclustered(self) -> int:
        return int(np.count_nonzero(self.label_of == -1))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Partition-so-far as tuples of sorted member ids."""
        return tuple(tuple(sorted(m)) for m in self.members)

    def max_size(self) -> int:
        return max((len(m) for m in self.members), default=0)


def promote(order, pos, size, cid: int) -> None:
    """Move cluster ``cid``, which just grew, forward in ``order``, a list of
    cluster ids by (-size, id); ``pos`` maps an id to its index in ``order``
    and ``size`` an id to its size."""
    key = (-size(cid), cid)
    i = int(pos[cid])
    while i > 0 and (-size(order[i - 1]), order[i - 1]) > key:
        order[i] = order[i - 1]
        pos[order[i]] = i
        i -= 1
    order[i] = cid
    pos[cid] = i


def partition_equal(blocks, truth_labels: np.ndarray) -> bool:
    """True iff the blocks are exactly the truth partition: each of the ids
    0..n-1 lies in exactly one block, and each block is one whole truth
    class."""
    n = np.asarray(truth_labels).shape[0]
    if sum(len(b) for b in blocks) != n or not all(len(b) for b in blocks):
        return False
    ids, overlap = _overlap(blocks, truth_labels)
    if overlap is None or np.bincount(ids, minlength=n).max(initial=0) > 1:
        return False
    # n distinct ids: the partitions are equal iff no block meets two
    # classes and no class meets two blocks
    nonzero = overlap > 0
    return bool(
        (np.count_nonzero(nonzero, axis=1) <= 1).all()
        and (np.count_nonzero(nonzero, axis=0) <= 1).all()
    )


def misassigned_count(blocks, truth_labels: np.ndarray) -> int:
    """Elements outside an optimal one-to-one matching of blocks to truth.

    Zero iff the partitions are identical; robust to splits, merges, and
    differing cluster counts. Empty blocks are ignored.
    """
    n = np.asarray(truth_labels).shape[0]
    _, overlap = _overlap(blocks, truth_labels)
    if overlap is None:
        raise ValueError(f"block ids must lie in 0..{n - 1}")
    return n - max_matching(overlap)


def _overlap(blocks, truth_labels: np.ndarray):
    """The nonempty blocks' ids, concatenated, and their overlap with the
    truth classes: cell (b, c) counts the ids of block b labelled c. The
    overlap is None when an id lies outside 0..n-1."""
    truth_labels = np.asarray(truth_labels)
    n = truth_labels.shape[0]
    k_true = int(truth_labels.max(initial=-1)) + 1
    blocks = [b for b in blocks if len(b)]
    sizes = [len(b) for b in blocks]
    ids = np.fromiter(chain.from_iterable(blocks), dtype=np.int64, count=sum(sizes))
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return ids, None
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    overlap = np.bincount(
        block_of * k_true + truth_labels[ids], minlength=len(blocks) * k_true
    ).reshape(len(blocks), k_true)
    return ids, overlap


def max_matching(weights: np.ndarray) -> int:
    """Largest total weight of a one-to-one matching of rows to columns.

    Shortest augmenting paths with dual potentials, the Jonker-Volgenant
    form of the Hungarian method as Crouse gives it for rectangular problems
    (IEEE TAES 2016), run over the smaller side as a minimum-cost problem on
    the negated weights. Row reduction starts it: each row's cheapest column
    goes to the first row that wants it. Every row still unmatched then
    grows a Dijkstra tree on reduced costs until it reaches a free column
    and flips the matching along that path. Exact for integer weights whose
    total stays below 2**53.
    """
    if weights.shape[0] > weights.shape[1]:
        weights = weights.T
    r, c = weights.shape
    if r == 0:
        return 0
    cost = -weights.astype(np.float64)
    u = cost.min(axis=1)  # row potentials; every reduced cost stays >= 0
    v = np.zeros(c)  # column potentials, 0 on every free column
    row_of = np.full(c, -1)
    col_of = np.full(r, -1)
    cols, rows = np.unique(cost.argmin(axis=1), return_index=True)
    row_of[cols] = rows
    col_of[rows] = cols
    for start in np.flatnonzero(col_of == -1):
        reach = np.full(c, np.inf)  # shortest path to each unsettled column
        dist = np.zeros(c)  # shortest path to each settled column
        shut = np.zeros(c)  # inf on settled columns
        prev = np.full(c, -1)  # last row on the shortest path to a column
        i, d = start, 0.0
        while True:
            step = cost[i] - u[i] - v + (d + shut)
            better = step < reach
            reach[better] = step[better]
            prev[better] = i
            j = int(reach.argmin())
            d = reach[j]
            if row_of[j] != -1:  # on a tie, end the path at a free column
                ties = np.flatnonzero((reach == d) & (row_of == -1))
                j = int(ties[0]) if ties.size else j
            dist[j] = d
            reach[j] = shut[j] = np.inf
            if row_of[j] == -1:
                break
            i = row_of[j]
        tree = np.flatnonzero(shut)
        gain = d - dist[tree]
        v[tree] -= gain
        u[start] += d
        inner = row_of[tree] != -1
        u[row_of[tree[inner]]] += gain[inner]
        while j != -1:  # flip the path back to start, whose column is -1
            i = prev[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return int(weights[np.arange(r), col_of].sum())
