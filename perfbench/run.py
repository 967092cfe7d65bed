"""The oclust benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload strong_n4000 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py                  # every workload, each in its own process

With ``--trace 0`` it sets the workload up, runs rounds of its ops until
``--seconds`` have passed (at least one round), checks every op's output and
prints the end-to-end metrics. With ``--trace 1`` it wraps the calls into each
layer, runs one traced round, restores the wrapped attributes, runs untraced
rounds for the rest of ``--seconds``, and prints the per-layer metrics and the
tracing overhead. The last line of stdout is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Full results, with machine
info and settings, go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 7
NAMES = ("strong_n4000", "weak_skewed_n6000", "sweep_small")
# one process, one worker, one BLAS thread: nproc is small and the harness's
# worker pool is deliberately not what this benchmark times
PINNED_ENV = {
    "OCL_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SPECIAL_UNITS = {
    "failed_frac": "ratio",
    "solver_lv.queries_per_vertex": "queries/vertex",
    "harness.generate_per_instance": "calls/instance",
}


def unit_of(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    if name.startswith("run_s_p"):
        return "s"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-golden", action="store_true",
        help=f"store this run's outputs as the golden record (seed {DEFAULT_SEED} only)",
    )
    return ap.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def dump_golden(golden: dict) -> str:
    """One line per op, so a change to one op's outputs is a one-line diff."""
    blocks = []
    for workload in sorted(golden):
        ops = ",\n".join(
            f"  {json.dumps(op)}: {json.dumps(record, sort_keys=True)}"
            for op, record in sorted(golden[workload].items())
        )
        blocks.append(f"{json.dumps(workload)}: {{\n{ops}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def run_rounds(wl, tr, deadline: float, rounds: list) -> None:
    """Append rounds until the deadline has passed; at least one."""
    while True:
        rounds.append(wl.round(tr))
        if time.perf_counter() >= deadline:
            return


def check_ops(name, seed, setup, rounds, golden):
    """Names of failed ops, one list per round plus the set-up.

    An op fails on a structural check, on a mismatch with the golden record
    (default seed only), or when its outputs differ from the first round's.
    """
    from stats import golden_mismatches

    setup_failed = bool(setup["failures"])
    expected = golden.get(name) if seed == DEFAULT_SEED else None
    first = {r.name: r.record for r in rounds[0][0]}
    failed = []
    for results, _, _ in rounds:
        got = {r.name: r.record for r in results}
        bad = {r.name for r in results if r.failures} | golden_mismatches(first, got)
        if expected is not None:
            mismatched = golden_mismatches(expected, {"setup": setup["record"], **got})
            setup_failed |= "setup" in mismatched
            bad |= mismatched - {"setup"}
        failed.append(sorted(bad))
    return setup_failed, failed


def end_to_end(setup, rounds) -> dict:
    """End-to-end metrics of the untraced rounds, and each one's sample count."""
    from tracer import maxrss_mb
    from stats import tail_percentile

    solves = {a: [r.seconds for res, _, _ in rounds for r in res if r.algo == a] for a in ("lv", "mc", "baseline")}
    metrics = {
        "setup_s": median(setup["times"]),
        "wall_s": mean(wall for _, _, wall in rounds),
        **{f"{a}_run_s": mean(v) for a, v in solves.items()},
        "peak_rss_mb": maxrss_mb(),
        "queries": sum(rep["queries"] for rep in rounds[0][1]),
        "misassigned": sum(rep["misassigned"] for rep in rounds[0][1] if rep["algo"] == "mc"),
    }
    samples = {"setup_s": len(setup["times"]), "wall_s": len(rounds), **{f"{a}_run_s": len(v) for a, v in solves.items()}}
    every = [x for v in solves.values() for x in v]
    tail = tail_percentile(every)
    if tail is not None:
        metrics[f"run_s_p{tail[0]:g}"] = tail[1]
        samples[f"run_s_p{tail[0]:g}"] = len(every)
    return metrics, samples


def closure(tr) -> dict:
    """Per op: wall of its root span and the part no listed span covers."""
    from tracer import self_times

    selfs = self_times(tr.spans)
    out = {}
    for s in tr.spans:
        if s.name == "op":
            out[s.op] = {"wall_s": s.dur, "unattributed_s": selfs[s.sid]}
    return out


def print_metrics(metrics, notes):
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:40s} {shown:>14s} {unit_of(name):<15s}{note}")


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "oclust" / "__init__.py").is_file():
        print(f"error: no oclust package under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))
    import tracer
    import workloads

    import_s = time.perf_counter() - T_START
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload]()
    tr = tracer.Tracer() if args.trace else tracer.NullTracer()
    if args.trace:
        tracer.install(tr)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup = wl.setup(args.seed, ROOT, Path(tmp))
        deadline = time.perf_counter() + args.seconds
        rounds, traced = [], []
        if args.trace:
            traced.append(wl.round(tr))
            tr.restore()
        run_rounds(wl, tracer.NullTracer(), deadline, rounds)

    if args.record_golden:
        golden[args.workload] = {"setup": setup["record"], **{r.name: r.record for r in rounds[0][0]}}
        GOLDEN.write_text(dump_golden(golden))

    setup_failed, failed = check_ops(args.workload, args.seed, setup, traced + rounds, golden)
    attempted = 1 + sum(len(results) for results, _, _ in traced + rounds)
    n_failed = int(setup_failed) + sum(len(f) for f in failed)
    e2e, samples = end_to_end(setup, rounds)
    e2e["failed_frac"] = n_failed / attempted

    info = machine_info()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                     "rounds": len(rounds), "traced_rounds": len(traced), "samples": samples},
        "machine": info,
        "import_s": import_s,
        "attempted": attempted,
        "failed": n_failed,
        "failures": {
            "setup": setup["failures"] if setup_failed else [],
            "ops": failed,
            "checks": {r.name: r.failures for results, _, _ in traced + rounds for r in results if r.failures},
        },
        "end_to_end": e2e,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}"
          f"  nproc {info['nproc']}  python {info['python']}  numpy {info['numpy']}"
          f"  scipy {info['scipy']}  OCL_THREADS={info['env']['OCL_THREADS']}")
    print(f"  failed ops: {n_failed} of {attempted} attempted")
    for names in failed:
        if names:
            print(f"  FAILED: {', '.join(names)}")

    if args.trace:
        layers, bases = tracer.layer_metrics(tr, traced[0][1], setup.get("file_bytes"))
        overhead = traced[0][2] - e2e["wall_s"]
        wrapped = sum(1 for s in tr.spans if s.op is not None and s.name != "op")
        per_call = tracer.wrapper_cost()
        estimate = per_call * wrapped
        ops = closure(tr)
        unattributed = sum(o["unattributed_s"] for o in ops.values())
        tr.write(OUT / f"{stem}-spans.jsonl.gz")
        result.update(per_layer=layers, ratio_bases=bases, ops=ops, trace={
            "traced_wall_s": traced[0][2],
            "untraced_wall_s": e2e["wall_s"],
            "overhead_s": overhead,
            "wrapper_cost_s": per_call,
            "wrapped_calls": wrapped,
            "overhead_estimate_s": estimate,
            "unattributed_s": unattributed,
            "spans": len(tr.spans),
        })
        print("per-layer (one traced round, plus set-up for instance.generate/save)")
        print_metrics(layers, {k: f"{b['num']} / {b['den']}" for k, b in bases.items()})
        print(f"  tracing overhead: traced wall_s {traced[0][2]:.4f} s - untraced {e2e['wall_s']:.4f} s"
              f" = {overhead:.4f} s (one round each, so host drift shows in it)")
        print(f"  tracing overhead estimate: {per_call * 1e6:.3f} us per wrapped call x {wrapped} calls"
              f" = {estimate:.4f} s")
        print(f"  op wall not covered by listed spans: {unattributed:.6f} s over {len(ops)} ops"
              f" ({'within' if unattributed <= estimate else 'exceeds'} the overhead estimate)")
        section, values = declared["per_layer"], layers
    else:
        print("end-to-end")
        notes = {k: f"mean of {v}" for k, v in samples.items()}
        notes["setup_s"] = f"median of {samples['setup_s']}"
        notes.update({k: f"of {v} solves" for k, v in samples.items() if k.startswith("run_s_p")})
        notes["failed_frac"] = f"{n_failed} / {attempted} ops"
        print_metrics(e2e, notes)
        section, values = declared["end_to_end"], e2e
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}:{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_golden and (args.workload == "all" or args.seed != DEFAULT_SEED):
        print(f"error: record golden outputs one workload at a time, with seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
