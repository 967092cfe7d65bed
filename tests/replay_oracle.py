"""An oracle that answers from a recorded run instead of from labels.

:class:`ReplayOracle` holds the ``query`` events of an earlier run, in order,
and no labels. Each new pair a solver asks must be the next one logged, asked
the same way round; it is answered from the log, charged, and its event is
sent again. A pair asked before is answered again without a charge, as
:class:`~oclust.oracle.Oracle` does. A solver run against a replay of its own
log asks the same pairs only if its choices depend on nothing but W, its seed
and the answers: anything else it read could make it ask another pair.
"""

from __future__ import annotations

from typing import Iterable, Optional

from oclust.oracle import EventSink


class ReplayMismatch(Exception):
    """The run asked a pair the log does not have next, or ended early."""


class ReplayOracle:
    """The :class:`~oclust.oracle.Oracle` surface a solver uses (``n``,
    ``count``, ``events``, ``query``, ``first_match``), answered from
    ``logged``, a run's event stream; events other than ``query`` are
    skipped."""

    def __init__(self, logged: Iterable[dict], n: int, events: Optional[EventSink] = None):
        self._rows = [(e["u"], e["v"], e["answer"]) for e in logged if e["event"] == "query"]
        self.n = n
        self.events = events
        self._answers: dict[tuple[int, int], int] = {}  # charged pair (low, high) -> answer

    @property
    def count(self) -> int:
        return len(self._answers)

    def query(self, u: int, v: int) -> int:
        u, v = int(u), int(v)
        key = (u, v) if u < v else (v, u)
        if key in self._answers:
            return self._answers[key]
        step = self.count + 1
        if step > len(self._rows):
            raise ReplayMismatch(f"step {step}: asked ({u}, {v}) after the last logged row")
        logged_u, logged_v, answer = self._rows[step - 1]
        if (u, v) != (logged_u, logged_v):
            raise ReplayMismatch(f"step {step}: asked ({u}, {v}), logged ({logged_u}, {logged_v})")
        self._answers[key] = answer
        if self.events is not None:
            self.events({"event": "query", "step": step, "u": u, "v": v, "answer": answer})
        return answer

    def first_match(self, v: int, reps: Iterable[int]) -> Optional[int]:
        for i, u in enumerate(reps):
            if self.query(v, u) == 1:
                return i
        return None

    def close(self) -> None:
        """Raise unless every logged row was asked."""
        left = len(self._rows) - self.count
        if left:
            step = self.count + 1
            raise ReplayMismatch(f"step {step}: the run ended, {left} logged rows left over")
