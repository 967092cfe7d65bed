"""Command-line entry points: gen, run, bench, bounds.

Exit codes: 0 success, 2 configuration/usage error, 3 acceptance-gate
failure under ``bench --check``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from . import bounds as bounds_mod
from . import instance as instance_mod
from .divergence import from_text, hellinger
from .estimation import Constants
from .harness import SOLVERS, ConfigError, ExperimentConfig, emit, reports_csv, run_experiment
from .oracle import csv_query_logger
from .solver_mc import BAND_MODES


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oclust",
        description="Interactive clustering with a pairwise oracle and noisy side information.",
    )
    sub = parser.add_subparsers(required=True)

    p_gen = sub.add_parser("gen", help="synthesize and save a planted instance")
    p_gen.add_argument("--n", type=int, required=True)
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="balanced clusters")
    group.add_argument("--sizes", type=str, help="explicit sizes, e.g. 4,3,3")
    p_gen.add_argument("--skew", type=float, help="with --k: geometric size ratio")
    p_gen.add_argument("--fplus", type=str, required=True, help="e.g. 0:0.1,1:0.9")
    p_gen.add_argument("--fminus", type=str, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.add_argument(
        "--sidecar",
        choices=("auto", "yes", "no"),
        default="auto",
        help="JSON sidecar for human inspection (auto: only for n <= 200)",
    )
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run one solver on a saved instance")
    p_run.add_argument("--algo", choices=tuple(SOLVERS), required=True)
    p_run.add_argument("--instance", type=Path, required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--c", type=float, default=118.0)
    p_run.add_argument("--cprime", type=float, default=3.0)
    p_run.add_argument("--band", choices=BAND_MODES, default="lemma")
    p_run.add_argument("--query-log", type=Path, help="write step,u,v,answer CSV")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a configured sweep and emit reports")
    p_bench.add_argument("--config", type=Path, required=True)
    p_bench.add_argument("--out", type=Path, default=Path("bench_out"))
    p_bench.add_argument("--trials", type=int, help="override config trials")
    p_bench.add_argument("--base-seed", type=int, help="override config base seed")
    p_bench.add_argument("--check", action="store_true", help="verify gates; exit 3 on failure")
    p_bench.add_argument(
        "--timings", action="store_true", help="keep wall times (CSV no longer byte-stable)"
    )
    p_bench.set_defaults(func=cmd_bench)

    p_bounds = sub.add_parser("bounds", help="evaluate a lower-bound formula")
    p_bounds.add_argument(
        "--form", choices=("lemma1", "thm2", "fano-kl", "fano-hellinger"), required=True
    )
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--a", type=int, help="per-cluster size (lemma1)")
    p_bounds.add_argument("--q", type=float, help="query budget (lemma1)")
    p_bounds.add_argument("--h", type=float, help="Hellinger divergence")
    p_bounds.add_argument("--fplus", type=str)
    p_bounds.add_argument("--fminus", type=str)
    p_bounds.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def cmd_gen(args) -> int:
    if args.sizes:
        spec = instance_mod.ExplicitSizes(tuple(int(s) for s in args.sizes.split(",")))
    elif args.skew is not None:
        spec = instance_mod.Skewed(args.k, args.skew)
    else:
        spec = instance_mod.Balanced(args.k)
    inst = instance_mod.generate(
        args.n, spec, from_text(args.fplus), from_text(args.fminus), args.seed
    )
    sidecar = {"auto": None, "yes": True, "no": False}[args.sidecar]
    instance_mod.save(inst, args.out, sidecar=sidecar)
    print(
        json.dumps(
            {
                "path": str(args.out),
                "n": inst.n,
                "k": inst.k,
                "q": inst.q,
                "seed": inst.seed,
                "fingerprint": inst.fingerprint(),
            }
        )
    )
    return 0


def cmd_run(args) -> int:
    inst = instance_mod.load(args.instance)
    consts = Constants(c=args.c, c_prime=args.cprime, scale=args.scale)
    with open(args.query_log, "w") if args.query_log else nullcontext() as log_fh:
        events = csv_query_logger(log_fh) if log_fh else None
        _, report = SOLVERS[args.algo](inst, args.seed, consts, args.band, events)
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def cmd_bench(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.trials is not None:
        config.trials = args.trials
    if args.base_seed is not None:
        config.base_seed = args.base_seed
    if args.timings:
        config.timings = True
    config.validate()

    reports, aggregates = run_experiment(config)
    written = emit(reports, args.out, aggregates=aggregates)
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}")
    for row in aggregates:
        print(
            f"{row['algo']:>8}  n={row['n']:<6} k={row['k']:<3} "
            f"median_q={row['median_queries']:<9g} success={row['success_rate']:.2f} "
            f"lb={row['lb_queries']:g}"
        )

    if args.check:
        failures = []
        for r in reports:
            if r.queries > r.n * max(r.k, 1):
                failures.append(f"{r.algo} seed={r.seed}: queries {r.queries} > nk")
            if r.algo in ("lv", "baseline") and not r.exact:
                failures.append(f"{r.algo} seed={r.seed}: inexact recovery")
        if not config.timings:
            rerun_reports, _ = run_experiment(config)
            if reports_csv(rerun_reports) != reports_csv(reports):
                failures.append("determinism: second pass produced different CSV bytes")
        if failures:
            for f in failures:
                print(f"GATE FAIL: {f}", file=sys.stderr)
            return 3
        print("all gates passed")
    return 0


def cmd_bounds(args) -> int:
    inputs: dict = {"form": args.form, "mode": args.mode, "k": args.k}
    if args.form == "lemma1":
        _need(args, "a", "q", "h")
        lb_in = bounds_mod.LowerBoundInputs(
            n=args.a * args.k, k=args.k, a=args.a, q_budget=args.q, h=args.h
        )
        inputs.update({"n": lb_in.n, "a": args.a, "q": args.q, "h": args.h})
        value = bounds_mod.lb_error_prob(lb_in)
    elif args.form == "thm2":
        _need(args, "n")
        h = _resolve_h(args)
        inputs.update({"n": args.n, "h": h})
        value = bounds_mod.lb_query_budget(args.n, args.k, h)
    else:
        _need(args, "n", "fplus", "fminus")
        fp, fm = from_text(args.fplus), from_text(args.fminus)
        inputs.update({"n": args.n, "f_plus": args.fplus, "f_minus": args.fminus})
        if args.form == "fano-kl":
            value = bounds_mod.fano_zero_query_kl(args.n, args.k, fp, fm, mode=args.mode)
        else:
            value = bounds_mod.fano_zero_query_hellinger(
                args.n, args.k, fp, fm, mode=args.mode
            )
    print(json.dumps({"value": value, "inputs": inputs, "mode": args.mode}))
    return 0


def _resolve_h(args) -> float:
    if args.h is not None:
        return args.h
    if args.fplus and args.fminus:
        return hellinger(from_text(args.fplus), from_text(args.fminus))
    raise ValueError("provide --h or both --fplus/--fminus")


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for --form {args.form}")


if __name__ == "__main__":
    raise SystemExit(main())
