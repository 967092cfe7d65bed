"""The benchmark's workloads: inputs derived from the seed, the timed ops of
one round, and the checks on every op's output.

Two workloads replay ``oclust gen`` once and then ``oclust run`` per solver
(``load`` -> solver -> ``report.to_dict()``) on one large instance; the third
replays an ``oclust bench`` sweep (``run_experiment`` -> ``emit``). Every op
runs in this process with ``OCL_THREADS=1``.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from oclust import harness, instance, solver_lv, solver_mc
from oclust.divergence import from_text
from oclust.estimation import Constants

from stats import partition_digest, truth_blocks

STRONG = ("0:0.1,1:0.9", "0:0.9,1:0.1")
WEAK3 = ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")
SETUP_REPS = 3
MC_RUNS = 3
BASELINE_RUNS = 5

SOLVE = {
    "lv": lambda inst, seed, consts: solver_lv.run_lv(inst, seed),
    "baseline": lambda inst, seed, consts: solver_lv.run_baseline(inst, seed),
    "mc": lambda inst, seed, consts: solver_mc.run_mc(inst, consts, seed),
}


@dataclass
class OpResult:
    name: str
    algo: str
    seconds: float  # wall of the timed region
    record: dict  # outputs compared against the golden record and across rounds
    failures: list  # structural check failures, empty when the op passed


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import oclust"], env=env, cwd=root, check=True)
    return time.perf_counter() - t0


def _report_record(rep: dict) -> dict:
    keys = ("fingerprint", "queries", "q_phase1", "q_phase2", "q_phase3", "exact", "misassigned")
    return {k: rep[k] for k in keys}


def _report_failures(rep: dict) -> list:
    """Checks every report must pass, whatever the seed."""
    out = []
    n, k, queries = rep["n"], rep["k"], rep["queries"]
    if queries > n * k:
        out.append(f"{queries} queries > nk = {n * k}")
    if rep["exact"] != (rep["misassigned"] == 0):
        out.append("exact disagrees with misassigned")
    if rep["algo"] in ("lv", "baseline") and not rep["exact"]:
        out.append(f"{rep['algo']} is not exact")
    if rep["algo"] == "mc":
        split = rep["q_phase1"] + rep["q_phase2"] + rep["q_phase3"]
        if split != queries:
            out.append(f"phase split {split} != queries {queries}")
    return out


class SingleInstance:
    """One planted instance, generated and saved once, then solved by every
    algorithm, each op starting from a fresh ``load``."""

    def __init__(self, n, spec, dists, scale):
        self.n, self.spec, self.dists = n, spec, dists
        self.consts = Constants(scale=scale)

    def setup(self, seed: int, root: Path, workdir: Path) -> dict:
        fp, fm = (from_text(t) for t in self.dists)
        self.path = workdir / "instance.oclb"
        times, fingerprints = [], []
        for _ in range(SETUP_REPS):
            t_import = import_seconds(root)
            gc.collect()
            t0 = time.perf_counter()
            inst = instance.generate(self.n, self.spec, fp, fm, seed)
            instance.save(inst, self.path)
            times.append(t_import + time.perf_counter() - t0)
            fingerprints.append(inst.fingerprint())
            self.truth = partition_digest(truth_blocks(inst.labels))
            del inst
        self.fingerprint = fingerprints[0]
        # every algorithm's solves are spread over the whole round, so each
        # mean samples all of it rather than one stretch of a drifting host
        rs = lambda algo, i: harness.trial_seed(seed, "run", algo, i)
        mc = [(f"mc#{i}", "mc", rs("mc", i)) for i in range(MC_RUNS)]
        long_ops = [mc[0], ("lv", "lv", rs("lv", 0)), *mc[1:]]
        self.ops = [("baseline#0", "baseline", rs("baseline", 0))]
        for i, op in enumerate(long_ops, start=1):
            self.ops += [op, (f"baseline#{i}", "baseline", rs("baseline", i))]
        failures = [] if len(set(fingerprints)) == 1 else ["generate is not deterministic"]
        return {
            "times": times,
            "record": {"fingerprint": self.fingerprint},
            "failures": failures,
            "file_bytes": self.path.stat().st_size,
        }

    def round(self, tracer) -> tuple[list[OpResult], list[dict], float]:
        """Run every op once; returns the ops, their reports, and the round's
        wall time (the sum of the timed regions)."""
        results, reports = [], []
        for name, algo, run_seed in self.ops:
            gc.collect()
            with tracer.op(name):
                t0 = time.perf_counter()
                inst = instance.load(self.path)
                clustering, report = SOLVE[algo](inst, run_seed, self.consts)
                rep = report.to_dict()
                seconds = time.perf_counter() - t0
            del inst
            blocks = clustering.blocks()
            record = _report_record(rep)
            record["partition"] = partition_digest(blocks)
            failures = _report_failures(rep)
            if rep["fingerprint"] != self.fingerprint:
                failures.append("fingerprint changed across save/load")
            if sorted(v for b in blocks for v in b) != list(range(self.n)):
                failures.append("output is not a partition of 0..n-1")
            if algo != "mc" and record["partition"] != self.truth:
                failures.append(f"{algo} partition differs from the truth")
            results.append(OpResult(name, algo, seconds, record, failures))
            reports.append(rep)
        return results, reports, sum(r.seconds for r in results)


class Sweep:
    """An ``oclust bench`` sweep: many small instances, all three solvers,
    aggregation and emission; the only workload that exercises ``harness``."""

    def setup(self, seed: int, root: Path, workdir: Path) -> dict:
        times = [import_seconds(root) for _ in range(SETUP_REPS)]
        self.workdir = workdir
        self.config = harness.ExperimentConfig(
            ns=[500, 1000, 2000],
            ks=[10],
            dists=[STRONG, WEAK3],
            algos=["baseline", "lv", "mc"],
            trials=3,
            base_seed=seed,
            constants=Constants(scale=0.02),
            cluster_specs=["balanced", "skewed:4"],
            timings=True,
        )
        return {"times": times, "record": {}, "failures": []}

    def round(self, tracer) -> tuple[list[OpResult], list[dict], float]:
        """One sweep plus emission; each solve is an op, timed by its report's
        own ``wall_ms``, and emission is one more op."""
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            gc.collect()
            with tracer.op("sweep"):
                t0 = time.perf_counter()
                reports, aggregates = harness.run_experiment(self.config)
                written = harness.emit(reports, tmp, aggregates=aggregates)
                seconds = time.perf_counter() - t0
            emit_failures = []
            csv_lines = written["csv"].read_text().count("\n")
            if csv_lines != len(reports) + 1:
                emit_failures.append(f"reports.csv has {csv_lines} lines for {len(reports)} reports")
            agg_lines = written["aggregate_csv"].read_text().count("\n")
            if agg_lines != len(aggregates) + 1:
                emit_failures.append("aggregate CSV row count differs from the aggregates")
        reps = [r.to_dict() for r in reports]
        results = []
        per_trial = len(self.config.algos)
        for i, rep in enumerate(reps):
            failures = _report_failures(rep)
            # all algorithms of one trial are handed the same instance
            trial = reps[i - i % per_trial : i - i % per_trial + per_trial]
            if len({r["fingerprint"] for r in trial}) != 1:
                failures.append("algorithms of one trial saw different instances")
            record = {"algo": rep["algo"], "n": rep["n"], "seed": rep["seed"], **_report_record(rep)}
            results.append(OpResult(f"task{i:03d}", rep["algo"], rep["wall_ms"] / 1000.0, record, failures))
        results.append(OpResult("emit", "emit", seconds, {"files": sorted(written)}, emit_failures))
        return results, reps, seconds


# Factories, so that every run builds its workload state afresh.
WORKLOADS = {
    "strong_n4000": lambda: SingleInstance(4000, instance.Balanced(10), STRONG, 0.01),
    "weak_skewed_n6000": lambda: SingleInstance(6000, instance.Skewed(20, 8), WEAK3, 0.02),
    "sweep_small": Sweep,
}
