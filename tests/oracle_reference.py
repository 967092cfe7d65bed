"""The dict-memo oracle that ``oclust.oracle.Oracle`` replaced, kept as a
reference: it stores every answer under a tuple key and asks a list of
representatives one ``query`` at a time."""

from __future__ import annotations

from typing import Optional

import numpy as np

from oclust.oracle import EventSink


class ReferenceOracle:
    """Truthful pairwise oracle with a memo of every charged pair's answer."""

    def __init__(self, labels: np.ndarray, events: Optional[EventSink] = None):
        self._labels = np.asarray(labels)
        self.n = int(self._labels.shape[0])
        self._memo: dict[tuple[int, int], int] = {}
        self.events = events

    def query(self, u: int, v: int) -> int:
        """+1 iff u and v share a truth block; -1 otherwise."""
        if u == v:
            raise ValueError("self query")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"element id out of range: ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        answer = 1 if self._labels[u] == self._labels[v] else -1
        self._memo[key] = answer
        if self.events is not None:
            u, v, step = int(u), int(v), len(self._memo)
            self.events({"event": "query", "step": step, "u": u, "v": v, "answer": answer})
        return answer

    def first_match(self, v: int, reps) -> Optional[int]:
        """Index of the first of ``reps`` that answers +1 with v, else None."""
        for i, u in enumerate(reps):
            if self.query(v, u) == 1:
                return i
        return None

    @property
    def count(self) -> int:
        """Number of distinct pairs ever asked."""
        return len(self._memo)
