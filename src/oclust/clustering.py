"""Partial partitions under construction, plus partition comparison helpers."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


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

    def unclustered(self) -> np.ndarray:
        return np.flatnonzero(self.label_of == -1)

    @property
    def num_unclustered(self) -> int:
        return int(np.count_nonzero(self.label_of == -1))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Partition-so-far as tuples of sorted member ids."""
        return tuple(tuple(sorted(m)) for m in self.members)

    def max_size(self) -> int:
        return max((len(m) for m in self.members), default=0)


def partition_equal(blocks, truth_labels: np.ndarray) -> bool:
    """True iff the blocks are exactly the truth partition."""
    truth_labels = np.asarray(truth_labels)
    n = truth_labels.shape[0]
    if sum(len(b) for b in blocks) != n:
        return False
    got = {frozenset(b) for b in blocks}
    want: dict[int, set[int]] = {}
    for v, c in enumerate(truth_labels):
        want.setdefault(int(c), set()).add(v)
    return got == {frozenset(b) for b in want.values()}


def misassigned_count(blocks, truth_labels: np.ndarray) -> int:
    """Elements outside an optimal one-to-one matching of blocks to truth.

    Zero iff the partitions are identical; robust to splits, merges, and
    differing cluster counts.
    """
    truth_labels = np.asarray(truth_labels)
    n = truth_labels.shape[0]
    k_true = int(truth_labels.max(initial=-1)) + 1
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return n
    overlap = np.zeros((len(blocks), k_true), dtype=np.int64)
    for i, b in enumerate(blocks):
        ids, cnt = np.unique(truth_labels[np.asarray(list(b))], return_counts=True)
        overlap[i, ids] = cnt
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    return int(n - overlap[rows, cols].sum())
