"""The same-cluster oracle: the only source of +1/-1 answers, and the meter.

Every distinct unordered pair is charged exactly once; a repeat is answered
again without incrementing the counter. The oracle is truthful, so it keeps
no answers: it recomputes each one from the labels and records only which
pairs were charged, as a set of int keys ``u * n + v`` (u < v). Solvers are
nonetheless written to never repeat a pair.

:meth:`Oracle.query` asks one pair. :meth:`Oracle.first_match` asks one
vertex against a list of representatives in order until the first +1, the
poll loop of every solver, with the same charges and events as one
``query`` per representative. Where ``query`` is replaced (a subclass
override, or a wrapper set on the class), ``first_match`` makes each ask
through it, so the replacement sees every pair asked.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

# A run's one optional instrumentation hook: called with one dict per event,
# the oracle's ``query`` events and the solvers' ``place`` events
EventSink = Callable[[dict], None]


class Oracle:
    """Truthful pairwise oracle over a fixed ground-truth labeling.

    One oracle per solver run; the charged set is single-writer.
    ``events``, when given, receives ``{"event": "query", "step", "u", "v",
    "answer"}`` for every charged pair, ``step`` counting from 1. Element
    ids may be Python or numpy integers; keys and events use Python ints.
    """

    __slots__ = ("_labels", "n", "_charged", "events")

    def __init__(self, labels: np.ndarray, events: Optional[EventSink] = None):
        self._labels = np.asarray(labels).tolist()
        self.n = len(self._labels)
        self._charged: set[int] = set()
        self.events = events

    def query(self, u: int, v: int) -> int:
        """+1 iff u and v share a truth block; -1 otherwise."""
        if u == v:
            raise ValueError("self query")
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"element id out of range: ({u}, {v})")
        u, v = int(u), int(v)
        labels = self._labels
        answer = 1 if labels[u] == labels[v] else -1
        key = u * n + v if u < v else v * n + u
        charged = self._charged
        if key not in charged:
            charged.add(key)
            if self.events is not None:
                self.events(
                    {"event": "query", "step": len(charged), "u": u, "v": v, "answer": answer}
                )
        return answer

    def first_match(self, v: int, reps: Iterable[int]) -> Optional[int]:
        """Ask v against ``reps`` in order until one answers +1 and return
        its index, or None if none does.

        Charges and events are those of ``query(v, u)`` for each ``u`` asked,
        in order; a self or out-of-range id raises ValueError when its turn
        comes, and the pairs asked before it stay charged. If ``query`` is
        not this class's own, each ask is a ``self.query`` call.
        """
        if type(self).query is not _own_query:
            for i, u in enumerate(reps):
                if self.query(v, u) == 1:
                    return i
            return None
        n, labels, charged, events = self.n, self._labels, self._charged, self.events
        v_ok = 0 <= v < n
        v = int(v)
        label = labels[v] if v_ok else None
        vn = v * n
        for i, u in enumerate(reps):
            if u == v:
                raise ValueError("self query")
            if not (v_ok and 0 <= u < n):
                raise ValueError(f"element id out of range: ({v}, {u})")
            u = int(u)
            key = u * n + v if u < v else vn + u
            hit = labels[u] == label
            if key not in charged:
                charged.add(key)
                if events is not None:
                    answer = 1 if hit else -1
                    events({"event": "query", "step": len(charged), "u": v, "v": u, "answer": answer})
            if hit:
                return i
        return None

    @property
    def count(self) -> int:
        """Number of distinct pairs ever asked."""
        return len(self._charged)


_own_query = Oracle.query


def csv_query_logger(fh) -> EventSink:
    """Event sink writing each ``query`` event as a ``step,u,v,answer`` row
    to an open text file; other events are ignored."""
    fh.write("step,u,v,answer\n")

    def log(event: dict) -> None:
        if event["event"] == "query":
            fh.write(f"{event['step']},{event['u']},{event['v']},{event['answer']}\n")

    return log
