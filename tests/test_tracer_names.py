"""The package names ``perfbench/tracer.py`` looks up stay where it looks.

The tracer wraps solver helpers by name (``solver_mc.membership_scores``,
``partition_equal`` and ``misassigned_count`` in both solver modules, ...)
and its ``resident_w`` hook reads ``SideInfo.tri``, so a rename there fails
here rather than at the next traced benchmark run.
"""

import importlib
from pathlib import Path

from oclust import instance
from oclust.divergence import bernoulli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_reads_w_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    inst = instance.generate(12, instance.Balanced(2), bernoulli(0.9), bernoulli(0.1), seed=1)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        dense = inst.side.dense()  # runs the resident_w hook
    finally:
        tr.restore()
    assert tr.counters["instance.w_bytes"] == inst.side.tri.nbytes + dense.nbytes > 0
    assert [s.name for s in tr.spans] == ["instance.dense"]
