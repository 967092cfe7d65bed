"""The same-cluster oracle: the only source of +1/-1 answers, and the meter.

Every distinct unordered pair is charged exactly once; repeats are served
from the memo without incrementing the counter. Solvers are nonetheless
written to never repeat a pair.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

QueryLogger = Callable[[int, int, int, int], None]


class Oracle:
    """Truthful pairwise oracle over a fixed ground-truth labeling.

    One oracle per solver run; the memo and counter are single-writer.
    """

    __slots__ = ("_labels", "n", "_memo", "_log")

    def __init__(self, labels: np.ndarray, log: Optional[QueryLogger] = None):
        self._labels = np.asarray(labels)
        self.n = int(self._labels.shape[0])
        self._memo: dict[tuple[int, int], int] = {}
        self._log = log

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
        if self._log is not None:
            self._log(len(self._memo), u, v, answer)
        return answer

    @property
    def count(self) -> int:
        """Number of distinct pairs ever asked."""
        return len(self._memo)


def csv_query_logger(fh) -> QueryLogger:
    """Audit logger writing ``step,u,v,answer`` rows to an open text file."""
    fh.write("step,u,v,answer\n")

    def log(step: int, u: int, v: int, answer: int) -> None:
        fh.write(f"{step},{u},{v},{answer}\n")

    return log
