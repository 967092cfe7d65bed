"""Per-run reports and their CSV/JSON projections, and :func:`finish`, where
a solver's output first meets the truth."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional

from .clustering import ClusteringState, InvariantError, misassigned_count, partition_equal
from .instance import Instance
from .oracle import Oracle

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


def finish(
    algo: str,
    instance: Instance,
    seed: int,
    oracle: Oracle,
    clustering: ClusteringState,
    t0: float,
    *,
    exact_required: bool = True,
    phases: Optional[dict] = None,
    constants: Optional[dict] = None,
    extras: Optional[dict] = None,
) -> RunReport:
    """Check a finished run against the truth and report it.

    Apart from the oracle, this is the only code that reads the truth. Every
    vertex must be clustered; the run must be exact when ``exact_required``
    (the Las Vegas solvers); the oracle's count must not exceed n times the
    number of clusters output (at least one), the most a run that queries
    every existing cluster for every vertex can spend; and ``phases``, a
    phase name -> queries split, must sum to that count. ``t0`` is the
    ``perf_counter`` reading at the run's start: ``wall_ms`` covers the solve
    and these checks. ``extras`` follows ``clusters_out``.
    """
    if clustering.num_unclustered != 0:
        raise InvariantError(f"{algo} finished with unclustered vertices")
    queries = oracle.count
    split = {}
    if phases is not None:
        if queries != sum(phases.values()):
            raise InvariantError(f"{algo} phase queries {phases} do not sum to {queries}")
        split = {f"q_{name}": q for name, q in phases.items()}
    cap = clustering.n * max(clustering.num_clusters, 1)
    if queries > cap:
        raise InvariantError(f"{algo} used {queries} queries, more than n * k = {cap}")
    blocks = clustering.blocks()
    exact = partition_equal(blocks, instance.labels)
    if exact_required and not exact:
        raise InvariantError(f"{algo} must recover the exact partition")
    return RunReport(
        algo=algo,
        fingerprint=instance.fingerprint(),
        n=instance.n,
        k=instance.k,
        seed=seed,
        queries=queries,
        **split,
        exact=exact,
        misassigned=misassigned_count(blocks, instance.labels),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        constants=constants or {},
        extras={"clusters_out": clustering.num_clusters, **(extras or {})},
    )
