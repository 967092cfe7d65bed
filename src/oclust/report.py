"""Per-run reports and their CSV/JSON projections."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

# Fixed column order for report CSVs; the header is always emitted.
CSV_COLUMNS = [
    "algo",
    "n",
    "k",
    "seed",
    "queries",
    "q_phase1",
    "q_phase2",
    "q_phase3",
    "exact",
    "misassigned",
    "ms",
]


@dataclass(kw_only=True)
class RunReport:
    """One solver run: identity, query accounting, recovery verdict, timing.
    The fields are in :meth:`to_dict`'s key order."""

    algo: str
    fingerprint: str
    n: int
    k: int
    seed: int
    queries: int
    q_phase1: int = 0
    q_phase2: int = 0
    q_phase3: int = 0
    exact: bool
    misassigned: int
    wall_ms: float = 0.0
    constants: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.misassigned == 0) != self.exact:
            raise ValueError("exact must hold iff misassigned == 0")
        # The nk cap is unconditional for the query-only solvers. A Monte
        # Carlo misassignment can transiently push the cluster count past the
        # true k, so run_mc checks n times the most clusters it held instead.
        if self.algo in ("lv", "baseline") and self.queries > self.n * max(self.k, 1):
            raise ValueError(
                f"{self.algo}: {self.queries} queries exceeds nk = {self.n * self.k}"
            )

    def csv_row(self) -> list:
        return [
            self.algo,
            self.n,
            self.k,
            self.seed,
            self.queries,
            self.q_phase1,
            self.q_phase2,
            self.q_phase3,
            int(self.exact),
            self.misassigned,
            self.wall_ms,
        ]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Inverse of :meth:`to_dict`; only ``constants`` and ``extras`` may
        be missing."""
        keys = [f.name for f in fields(cls)]
        return cls(**{k: d[k] for k in keys if k in d or k not in ("constants", "extras")})
