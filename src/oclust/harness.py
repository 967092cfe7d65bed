"""Experiment configuration, trial execution, aggregation, and emission.

Trials are independent tasks: each generates its instance once and runs
every configured algorithm on that one immutable instance. Every trial
derives its instance seed and run seeds by hashing (base seed, cell, trial
index), so results are identical whether the sweep runs sequentially or
across worker processes (``OCL_THREADS`` caps the worker count).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, fields
from hashlib import sha256
from itertools import product
from pathlib import Path
from statistics import mean, median
from typing import Optional, Sequence

from .bounds import LowerBoundInputs, lb_error_prob, lb_query_budget
from .divergence import from_text, hellinger
from .estimation import Constants
from .instance import Balanced, Skewed, generate
from .report import CSV_COLUMNS, RunReport
from .solver_lv import run_baseline, run_lv
from .solver_mc import BAND_MODES, run_mc

# name -> solve(instance, seed, constants, band, events=None), which returns
# (clustering, report); ``events`` is the run's optional event sink (see
# ``oclust.oracle``). The solvers are looked up in this module's namespace at
# call time, so a wrapper installed on, say, ``harness.run_lv`` sees every
# solve of the sweep and of ``oclust run``.
SOLVERS = {
    "baseline": lambda inst, seed, consts, band, events=None: run_baseline(inst, seed, events),
    "lv": lambda inst, seed, consts, band, events=None: run_lv(inst, seed, events),
    "mc": lambda inst, seed, consts, band, events=None: run_mc(inst, consts, seed, band, events),
}
ALGOS = tuple(SOLVERS)


class ConfigError(ValueError):
    """Invalid experiment configuration; message is path-addressed."""


@dataclass
class ExperimentConfig:
    """One benchmark sweep: the cell axes, algorithms, and trial budget.
    The fields and their defaults are the bench config's JSON schema."""

    ns: list[int] = field(default_factory=list)
    ks: list[int] = field(default_factory=list)
    dists: list[tuple[str, str]] = field(default_factory=list)  # (f_plus, f_minus) wire-format pairs
    algos: list[str] = field(default_factory=list)
    trials: int = 1
    base_seed: int = 0
    constants: Constants = field(default_factory=Constants)
    band: str = "lemma"
    cluster_specs: list[str] = field(default_factory=lambda: ["balanced"])
    timings: bool = False  # keep wall-clock times (breaks byte-identity)

    def validate(self) -> None:
        """Check every field's type and range; raises a path-addressed
        :class:`ConfigError`, so each (n, k) cell of a valid config runs."""
        for name in ("ns", "ks"):
            values = _nonempty_list(self, name, "positive ints")
            for i, x in enumerate(values):
                if not _is_int(x) or x < 1:
                    raise ConfigError(f"{name}[{i}]: {x!r:.40} is not a positive int")
        n_min = min(self.ns)
        for i, k in enumerate(self.ks):
            if k > n_min:
                j = self.ns.index(n_min)
                raise ConfigError(f"ks[{i}]: k={k} exceeds n={n_min} of ns[{j}]")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials: {self.trials!r:.40} is not a positive int")
        if not _is_int(self.base_seed):
            raise ConfigError(f"base_seed: {self.base_seed!r:.40} is not an int")
        for i, algo in enumerate(_nonempty_list(self, "algos", "algorithm names")):
            if not isinstance(algo, str) or algo not in SOLVERS:
                raise ConfigError(f"algos[{i}]: unknown algorithm {algo!r:.40}")
        for i, pair in enumerate(_nonempty_list(self, "dists", "(f_plus, f_minus) pairs")):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(text, str) for text in pair)
            ):
                raise ConfigError(f"dists[{i}]: expected [f_plus, f_minus] strings")
            try:
                fp, fm = from_text(pair[0]), from_text(pair[1])
            except ValueError as exc:
                raise ConfigError(f"dists[{i}]: {exc}") from exc
            if fp.support != fm.support:
                raise ConfigError(f"dists[{i}]: f_plus and f_minus must share a support")
        for i, spec in enumerate(_nonempty_list(self, "cluster_specs", "cluster specs")):
            _parse_cluster_spec(spec, where=f"cluster_specs[{i}]")
        if not isinstance(self.constants, Constants):
            raise ConfigError("constants: expected Constants")
        if not isinstance(self.band, str) or self.band not in BAND_MODES:
            raise ConfigError(f"band: unknown mode {self.band!r:.40}")
        if not isinstance(self.timings, bool):
            raise ConfigError(f"timings: {self.timings!r:.40} is not true or false")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"{key}: unknown configuration key")
        consts = doc.get("constants", {})
        if not isinstance(consts, dict):
            raise ConfigError("constants: expected an object")
        for key, value in consts.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"constants.{key}: {value!r:.40} is not a number")
        try:
            consts = Constants(**consts)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"constants: {exc}") from exc
        dists = doc.get("dists", [])
        if isinstance(dists, list):
            dists = [tuple(p) if isinstance(p, list) else p for p in dists]
        cfg = cls(**{**doc, "constants": consts, "dists": dists})
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8 or JSON
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(doc)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _nonempty_list(config: ExperimentConfig, name: str, what: str) -> list:
    values = getattr(config, name)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{name}: need a nonempty list of {what}")
    return values


def _parse_cluster_spec(text: str, where: str = "cluster_spec"):
    if not isinstance(text, str):
        raise ConfigError(f"{where}: {text!r:.40} is not a string")
    if text == "balanced":
        return lambda k: Balanced(k)
    if text.startswith("skewed:"):
        try:
            ratio = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"{where}: bad skew ratio in {text!r}") from exc
        if not 1.0 <= ratio < math.inf:
            raise ConfigError(f"{where}: skew ratio must be finite and >= 1")
        return lambda k: Skewed(k, ratio)
    raise ConfigError(f"{where}: unknown cluster spec {text!r}")


def trial_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from the base seed and any hashable cell labels."""
    text = repr((base,) + parts).encode()
    return int.from_bytes(sha256(text).digest()[:8], "little") >> 1


def _run_trial(task: tuple) -> list[RunReport]:
    """One (cell, trial): generate the instance once, then run each
    (algorithm, run seed) on it in order."""
    n, k, spec_text, fp_text, fm_text, inst_seed, runs, consts, band, timings = task
    spec = _parse_cluster_spec(spec_text)(k)
    inst = generate(n, spec, from_text(fp_text), from_text(fm_text), inst_seed)
    out = []
    for algo, run_seed in runs:
        _, report = SOLVERS[algo](inst, run_seed, consts, band)
        if not timings:
            report.wall_ms = 0.0
        report.extras.update(f_plus=fp_text, f_minus=fm_text, cluster_spec=spec_text)
        out.append(report)
    return out


def worker_count() -> int:
    """Worker processes ``OCL_THREADS`` asks for; 1 when it is unset."""
    raw = os.environ.get("OCL_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"OCL_THREADS: {raw!r:.40} is not an int") from None


def run_experiment(config: ExperimentConfig) -> tuple[list[RunReport], list[dict]]:
    """Run every (cell, trial, algorithm), deterministically seeded; the
    algorithms of one trial share its instance.

    Returns the reports in stable order plus one aggregate row per
    (cell, algorithm), annotated with the query lower bound for the cell.
    """
    config.validate()
    tasks = []
    for n, k, spec_text, (fp_text, fm_text) in product(
        config.ns, config.ks, config.cluster_specs, config.dists
    ):
        for trial in range(config.trials):
            cell = (n, k, spec_text, fp_text, fm_text, trial)
            runs = tuple(
                (algo, trial_seed(config.base_seed, "run", algo, *cell))
                for algo in config.algos
            )
            tasks.append(
                (
                    n, k, spec_text, fp_text, fm_text,
                    trial_seed(config.base_seed, "gen", *cell), runs,
                    config.constants, config.band, config.timings,
                )
            )

    # a forked pool starts every worker up front, so more workers than
    # tasks would only be forked to sit idle
    workers = min(worker_count(), len(tasks))
    if workers == 1:
        trials = [_run_trial(task) for task in tasks]
    else:
        # imported here: it pulls multiprocessing and socket into the process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_run_trial, tasks, chunksize=1))
    reports = [rep for trial in trials for rep in trial]
    return reports, aggregate(reports)


# an aggregate row's label: the algorithm, the report's n and k, and the
# cell label _run_trial writes into its extras
CELL_COLUMNS = ["algo", "n", "k", "cluster_spec", "f_plus", "f_minus"]
AGG_COLUMNS = CELL_COLUMNS + [
    "trials", "median_queries", "mean_queries", "ci95_lo", "ci95_hi",
    "success_rate", "lb_queries", "lb_error_at_median_q",
]


def aggregate(reports: Sequence[RunReport]) -> list[dict]:
    """Median/mean/CI of queries and the success rate per (cell, algorithm)."""
    cells: dict[tuple, list[RunReport]] = {}
    for r in reports:
        x = r.extras
        key = (r.algo, r.n, r.k, x["cluster_spec"], x["f_plus"], x["f_minus"])
        cells.setdefault(key, []).append(r)
    rows = []
    for key, group in sorted(cells.items()):
        _, n, k, _, fp_text, fm_text = key
        queries = [r.queries for r in group]
        mu = mean(queries)
        if len(queries) > 1:
            sd = math.sqrt(sum((x - mu) ** 2 for x in queries) / (len(queries) - 1))
            delta = 1.96 * sd / math.sqrt(len(queries))
        else:
            delta = 0.0
        h = hellinger(from_text(fp_text), from_text(fm_text))
        med = median(queries)
        # informational: the error-probability floor at the achieved budget
        # (equal-size reading a = n // k; desk-scale constants caveat applies)
        lb_err = None
        if k >= 2 and n >= 2 * k:
            a = n // k
            lb_err = lb_error_prob(
                LowerBoundInputs(n=a * k, k=k, a=a, q_budget=float(med), h=h)
            )
        rows.append(
            {
                **dict(zip(CELL_COLUMNS, key)),
                "trials": len(group),
                "median_queries": med,
                "mean_queries": mu,
                "ci95_lo": mu - delta,
                "ci95_hi": mu + delta,
                "success_rate": sum(r.exact for r in group) / len(group),
                "lb_queries": lb_query_budget(n, k, h),
                "lb_error_at_median_q": lb_err,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# emission


def emit(
    reports: Sequence[RunReport],
    out_dir: str | Path,
    aggregates: Optional[list[dict]] = None,
) -> dict[str, Path]:
    """Write the reports as CSV (fixed column order), JSON (full fidelity),
    an aggregate CSV, and a queries-vs-n SVG with the lower bound overlaid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if aggregates is None:
        aggregates = aggregate(reports)
    files = {
        "csv": ("reports.csv", reports_csv(reports)),
        "aggregate_csv": ("reports_aggregate.csv", _aggregate_csv(aggregates)),
        "json": ("reports.json", json.dumps([r.to_dict() for r in reports], indent=1)),
        "svg": ("reports.svg", queries_vs_n_svg(aggregates)),
    }
    written: dict[str, Path] = {}
    for kind, (name, text) in files.items():
        written[kind] = out_dir / name
        written[kind].write_text(text)
    return written


def reports_csv(reports: Sequence[RunReport]) -> str:
    return _csv(CSV_COLUMNS, (r.csv_row() for r in reports))


def _aggregate_csv(rows: list[dict]) -> str:
    return _csv(AGG_COLUMNS, ([row[c] for c in AGG_COLUMNS] for row in rows))


def _csv(header: list[str], rows) -> str:
    """The one CSV writer: minimal quoting, floats as repr, None as empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def queries_vs_n_svg(aggregates: list[dict], width: int = 640, height: int = 420) -> str:
    """Static plot: one polyline per algorithm (median queries vs n) plus the
    query-budget lower bound curve."""
    series: dict[str, dict[int, list[float]]] = {}
    bound: dict[int, list[float]] = {}
    for row in aggregates:
        series.setdefault(row["algo"], {}).setdefault(row["n"], []).append(
            row["median_queries"]
        )
        bound.setdefault(row["n"], []).append(row["lb_queries"])
    lines: dict[str, list[tuple[float, float]]] = {
        algo: sorted((n, median(v)) for n, v in pts.items())
        for algo, pts in series.items()
    }
    bound_line = sorted((n, median(v)) for n, v in bound.items())

    xs = [n for pts in lines.values() for n, _ in pts] or [1]
    ys = [y for pts in lines.values() for _, y in pts]
    ys += [y for _, y in bound_line] or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    ml, mr, mt, mb = 64, 16, 20, 44
    px = lambda x: ml + (width - ml - mr) * (
        0.5 if x_hi == x_lo else (x - x_lo) / (x_hi - x_lo)
    )
    py = lambda y: height - mb - (height - mt - mb) * (
        0.5 if y_hi == y_lo else (y - y_lo) / (y_hi - y_lo)
    )

    palette = {"baseline": "#888888", "lv": "#1f77b4", "mc": "#d62728"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2}" y="{height - 10}" text-anchor="middle">n</text>',
        f'<text x="14" y="{(mt + height - mb) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(mt + height - mb) / 2})">queries</text>',
    ]
    for n in sorted(set(xs)):
        parts.append(
            f'<text x="{px(n):.1f}" y="{height - mb + 16}" text-anchor="middle">{n}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{ml - 6}" y="{py(y):.1f}" text-anchor="end">{y:.0f}</text>'
        )
    legend_y = mt + 4
    for algo, pts in sorted(lines.items()):
        color = palette.get(algo, "#2ca02c")
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline class="series" data-algo="{algo}" points="{coords}" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 120}" y="{legend_y + 10}" fill="{color}">{algo}</text>'
        )
        legend_y += 16
    if bound_line:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in bound_line)
        parts.append(
            f'<polyline class="bound" data-algo="lower-bound" points="{coords}" '
            f'fill="none" stroke="#444444" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{width - mr - 120}" y="{legend_y + 10}" fill="#444444">lower bound</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
