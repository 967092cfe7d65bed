"""The same-cluster oracle: the only source of +1/-1 answers, and the meter.

Every distinct unordered pair is charged exactly once; repeats are served
from the memo without incrementing the counter. Solvers are nonetheless
written to never repeat a pair.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

# A run's one optional instrumentation hook: called with one dict per event,
# the oracle's ``query`` events and the solvers' ``place`` events
EventSink = Callable[[dict], None]


class Oracle:
    """Truthful pairwise oracle over a fixed ground-truth labeling.

    One oracle per solver run; the memo and counter are single-writer.
    ``events``, when given, receives ``{"event": "query", "step", "u", "v",
    "answer"}`` for every charged pair, ``step`` counting from 1.
    """

    __slots__ = ("_labels", "n", "_memo", "events")

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

    @property
    def count(self) -> int:
        """Number of distinct pairs ever asked."""
        return len(self._memo)


def csv_query_logger(fh) -> EventSink:
    """Event sink writing each ``query`` event as a ``step,u,v,answer`` row
    to an open text file; other events are ignored."""
    fh.write("step,u,v,answer\n")

    def log(event: dict) -> None:
        if event["event"] == "query":
            fh.write(f"{event['step']},{event['u']},{event['v']},{event['answer']}\n")

    return log
