import concurrent.futures
import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import xml.etree.ElementTree as ET
from itertools import product
from pathlib import Path
from statistics import mean, median

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oclust import harness
from oclust.harness import (
    AGG_COLUMNS,
    ConfigError,
    ExperimentConfig,
    aggregate,
    emit,
    queries_vs_n_svg,
    reports_csv,
    run_experiment,
    trial_seed,
)
from oclust.instance import cluster_sizes, generate
from oclust.report import CSV_COLUMNS, RunReport

BERN_91 = ("0:0.1,1:0.9", "0:0.9,1:0.1")
WEAK3 = ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")

# sha256 of reports_csv for pinned_config(), recorded before instances were
# shared across a trial's algorithms and before generate drew W in one pass
PINNED_SWEEP_SHA256 = "15dcc856f6ba306f59577dee28a343e26d322db343d3524314324a2fee8a9ba2"
# sha256 of emit's reports.json for pinned_config(): unlike the CSV it holds
# every report field, constants and extras included
PINNED_REPORTS_JSON_SHA256 = "e0992a782a9b416b21123957738c2a06d559ec0ba612295b94738d600c5c697b"


def small_config(**overrides):
    base = dict(
        ns=[60],
        ks=[3],
        dists=[BERN_91],
        algos=["baseline", "lv", "mc"],
        trials=2,
        base_seed=42,
        constants={"scale": 0.05},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def pinned_config():
    return ExperimentConfig.from_dict(
        dict(
            ns=[60, 150],
            ks=[3],
            dists=[BERN_91, WEAK3],
            algos=["baseline", "lv", "mc"],
            trials=2,
            base_seed=2024,
            constants={"scale": 0.05},
            cluster_specs=["balanced", "skewed:4"],
        )
    )


# the sweeps the README runs with oclust bench --config
COMMITTED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestConfig:
    def test_committed_configs_are_there(self):
        assert {p.name for p in COMMITTED_CONFIGS} >= {"savings.json", "scaling.json"}

    @pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=lambda p: p.name)
    def test_committed_config_loads(self, path):
        assert ExperimentConfig.from_file(path).algos

    def test_round_trip_from_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ns": [50],
                    "ks": [2],
                    "dists": [list(BERN_91)],
                    "algos": ["lv"],
                    "trials": 1,
                    "base_seed": 7,
                }
            )
        )
        cfg = ExperimentConfig.from_file(cfg_path)
        assert cfg.ns == [50] and cfg.algos == ["lv"]

    def test_path_addressed_errors(self):
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=0)
        with pytest.raises(ConfigError, match=r"algos\[1\]"):
            small_config(algos=["lv", "quantum"])
        with pytest.raises(ConfigError, match=r"dists\[0\]"):
            small_config(dists=[("0:1,1:0", "0:0.5,2:0.5")])
        with pytest.raises(ConfigError, match="unknown configuration key"):
            ExperimentConfig.from_dict({"ns": [10], "bogus": 1})
        with pytest.raises(ConfigError, match="constants"):
            small_config(constants={"c": 1.0})

    def test_bad_file_is_config_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)
        p.write_bytes(b'{"ns": "\xff"}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)
        p.write_text("[" * 100_000)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"trials": None}, "trials"),
            ({"trials": "x"}, "trials"),
            ({"trials": True}, "trials"),
            ({"ns": 5}, "ns"),
            ({"ns": [2.7]}, r"ns\[0\]"),
            ({"ns": [True]}, r"ns\[0\]"),
            ({"ks": [1, "3"]}, r"ks\[1\]"),
            ({"ks": [200], "ns": [100]}, r"ks\[0\]: k=200 exceeds n=100"),
            ({"ks": [3], "ns": [300, 2]}, r"ks\[0\].*ns\[1\]"),
            ({"dists": [5]}, r"dists\[0\]"),
            ({"dists": ["ab"]}, r"dists\[0\]"),
            ({"dists": [[BERN_91[0], 5]]}, r"dists\[0\]"),
            ({"algos": "lv"}, "algos"),
            ({"algos": [["lv"]]}, r"algos\[0\]"),
            ({"base_seed": 1.5}, "base_seed"),
            ({"timings": "no"}, "timings"),
            ({"timings": 0}, "timings"),
            ({"band": ["lemma"]}, "band"),
            ({"cluster_specs": "balanced"}, "cluster_specs"),
            ({"cluster_specs": []}, "cluster_specs"),
            ({"cluster_specs": [5]}, r"cluster_specs\[0\]"),
            ({"cluster_specs": ["skewed:nan"]}, r"cluster_specs\[0\]"),
            ({"cluster_specs": ["skewed:inf"]}, r"cluster_specs\[0\]"),
            ({"constants": None}, "constants"),
            ({"constants": {"scale": True}}, r"constants\.scale"),
            ({"constants": {"c": "118"}}, r"constants\.c"),
            ({"constants": {"c": 10**400}}, "constants"),
            ({"constants": {"d": 1.0}}, "constants"),
        ],
    )
    def test_malformed_value_is_config_error(self, fields, match):
        with pytest.raises(ConfigError, match=match):
            small_config(**fields)

    def test_non_object_document_is_config_error(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict([1, 2])


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(["balanced", "skewed:4", "lv", "mc", "lemma", BERN_91[0], WEAK3[1]]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
CONFIG_KEYS = [
    "ns", "ks", "dists", "algos", "trials", "base_seed",
    "constants", "band", "cluster_specs", "timings",
]


@given(
    replaced=st.dictionaries(st.sampled_from(CONFIG_KEYS + ["bogus"]), JSON_VALUES, max_size=3),
    dropped=st.sets(st.sampled_from(CONFIG_KEYS), max_size=2),
)
def test_from_dict_fuzz(replaced, dropped):
    # a valid document with some fields dropped and some replaced by
    # arbitrary JSON: either a ConfigError or a config that validates
    doc = {
        "ns": [60, 90], "ks": [3], "dists": [list(BERN_91), list(WEAK3)],
        "algos": ["baseline", "lv", "mc"], "trials": 2, "base_seed": 42,
        "constants": {"scale": 0.05}, "band": "lemma",
        "cluster_specs": ["balanced", "skewed:4"], "timings": False,
    }
    for key in dropped:
        doc.pop(key)
    doc.update(replaced)
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    cfg.validate()
    if max(cfg.ns) <= 10_000:
        for n, k, spec in product(cfg.ns, cfg.ks, cfg.cluster_specs):
            assert sum(cluster_sizes(harness._parse_cluster_spec(spec)(k), n)) == n


class TestRunExperiment:
    def test_baseline_single_cluster_formula(self):
        cfg = ExperimentConfig.from_dict(
            dict(ns=[10], ks=[1], dists=[BERN_91], algos=["baseline"], trials=1, base_seed=5)
        )
        reports, _ = run_experiment(cfg)
        assert len(reports) == 1
        assert reports[0].queries == 9

    def test_same_config_twice_is_byte_identical(self):
        cfg = small_config()
        r1, _ = run_experiment(cfg)
        r2, _ = run_experiment(cfg)
        assert reports_csv(r1) == reports_csv(r2)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = small_config()
        monkeypatch.delenv("OCL_THREADS", raising=False)
        sequential, _ = run_experiment(cfg)
        monkeypatch.setenv("OCL_THREADS", "3")
        parallel, _ = run_experiment(cfg)
        assert reports_csv(sequential) == reports_csv(parallel)
        assert json.dumps([r.to_dict() for r in sequential]) == json.dumps(
            [r.to_dict() for r in parallel]
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pinned_sweep_csv_digest(self, monkeypatch, tmp_path, threads):
        monkeypatch.setenv("OCL_THREADS", threads)
        reports, _ = run_experiment(pinned_config())
        assert len(reports) == 48
        digest = hashlib.sha256(reports_csv(reports).encode()).hexdigest()
        assert digest == PINNED_SWEEP_SHA256
        json_path = emit(reports, tmp_path)["json"]
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == PINNED_REPORTS_JSON_SHA256

    def test_generate_runs_once_per_trial(self, monkeypatch):
        monkeypatch.setenv("OCL_THREADS", "1")
        calls = []

        def counting_generate(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(harness, "generate", counting_generate)
        cfg = pinned_config()
        reports, _ = run_experiment(cfg)
        cells = len(cfg.ns) * len(cfg.ks) * len(cfg.cluster_specs) * len(cfg.dists)
        assert len(calls) == cells * cfg.trials == 16
        assert len(reports) == len(calls) * len(cfg.algos)
        assert len({args[-1] for args in calls}) == len(calls)  # one instance seed each
        assert hashlib.sha256(reports_csv(reports).encode()).hexdigest() == PINNED_SWEEP_SHA256

    def test_solvers_are_resolved_at_call_time(self, monkeypatch):
        # a wrapper installed on harness.run_* (as a tracer does) sees every solve
        seen = []
        for name in ("run_baseline", "run_lv", "run_mc"):
            original = getattr(harness, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)
        run_experiment(small_config(trials=1))
        assert seen == ["run_baseline", "run_lv", "run_mc"]

    def test_workers_capped_at_task_count(self, monkeypatch):
        # a stand-in pool records the worker count and maps in-process, so
        # no process starts however large OCL_THREADS is
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        # run_experiment imports the pool class from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("OCL_THREADS", "5000")
        reports, _ = run_experiment(pinned_config())
        assert asked == [16]  # 2 ns x 2 cluster specs x 2 dists x 2 trials
        assert hashlib.sha256(reports_csv(reports).encode()).hexdigest() == PINNED_SWEEP_SHA256
        monkeypatch.setenv("OCL_THREADS", "3")
        reports, _ = run_experiment(small_config())
        assert asked == [16, 2]  # 2 trials
        assert all(isinstance(r, RunReport) for r in reports)

    def test_import_loads_no_process_pool(self):
        # the pool's module pulls multiprocessing and socket in; only a sweep
        # that starts a pool needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, oclust; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("raw", ["two", "1.5", "0x4"])
    def test_non_integer_thread_count_is_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("OCL_THREADS", raw)
        with pytest.raises(ConfigError, match="OCL_THREADS"):
            run_experiment(small_config(trials=1))

    def test_trial_returns_picklable_reports(self):
        cfg = small_config(trials=1)
        (fp, fm), spec = cfg.dists[0], cfg.cluster_specs[0]
        runs = (("lv", 1), ("mc", 2))
        task = (60, 3, spec, fp, fm, 7, runs, cfg.constants, cfg.band, False)
        reports = harness._run_trial(task)
        assert [r.algo for r in reports] == ["lv", "mc"]
        assert pickle.loads(pickle.dumps(reports)) == reports

    def test_algos_follow_the_solver_registry(self):
        assert harness.ALGOS == tuple(harness.SOLVERS) == ("baseline", "lv", "mc")

    def test_instances_shared_across_algorithms(self):
        cfg = small_config(trials=1)
        reports, _ = run_experiment(cfg)
        prints = {r.fingerprint for r in reports}
        assert len(prints) == 1  # same trial instance for all three algorithms

    def test_lv_median_queries_monotone_in_n(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                ns=[100, 300, 600],
                ks=[4],
                dists=[BERN_91],
                algos=["lv"],
                trials=3,
                base_seed=11,
            )
        )
        _, aggregates = run_experiment(cfg)
        by_n = {row["n"]: row["median_queries"] for row in aggregates}
        assert by_n[100] <= by_n[300] <= by_n[600]

    def test_trial_seed_is_stable_and_spread(self):
        a = trial_seed(1, "gen", 100, 5, "balanced", "x", "y", 0)
        b = trial_seed(1, "gen", 100, 5, "balanced", "x", "y", 0)
        c = trial_seed(1, "gen", 100, 5, "balanced", "x", "y", 1)
        assert a == b != c
        assert 0 <= a < 2**63


class TestEmit:
    def test_empty_reports_header_only(self, tmp_path):
        written = emit([], tmp_path)
        assert sorted(written) == ["aggregate_csv", "csv", "json", "svg"]
        assert written["csv"].read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert written["aggregate_csv"].read_text() == ",".join(AGG_COLUMNS) + "\n"

    def test_aggregate_csv_has_cluster_spec_column(self):
        _, rows = run_experiment(small_config(trials=1, algos=["lv"]))
        lines = harness._aggregate_csv(rows).splitlines()
        assert lines[0] == (
            "algo,n,k,cluster_spec,f_plus,f_minus,trials,median_queries,mean_queries,"
            "ci95_lo,ci95_hi,success_rate,lb_queries,lb_error_at_median_q"
        )
        assert lines[1].startswith('lv,60,3,balanced,"0:0.1,1:0.9","0:0.9,1:0.1",1,')

    def test_json_round_trip(self, tmp_path):
        cfg = small_config(trials=1)
        reports, aggregates = run_experiment(cfg)
        written = emit(reports, tmp_path, aggregates=aggregates)
        loaded = [RunReport.from_dict(d) for d in json.loads(written["json"].read_text())]
        assert loaded == reports

    def test_csv_columns_fixed_order(self, tmp_path):
        cfg = small_config(trials=1)
        reports, _ = run_experiment(cfg)
        written = emit(reports, tmp_path)
        header = written["csv"].read_text().splitlines()[0]
        assert header == "algo,n,k,seed,queries,q_phase1,q_phase2,q_phase3,exact,misassigned,ms"

    def test_svg_one_polyline_per_algorithm(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            dict(
                ns=[40, 80],
                ks=[2],
                dists=[BERN_91],
                algos=["baseline", "lv", "mc"],
                trials=1,
                base_seed=3,
                constants={"scale": 0.05},
            )
        )
        reports, aggregates = run_experiment(cfg)
        svg = queries_vs_n_svg(aggregates)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        series = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "series"]
        bound = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "bound"]
        assert {e.get("data-algo") for e in series} == {"baseline", "lv", "mc"}
        assert len(bound) == 1

    def test_aggregates_recomputable_from_csv(self, tmp_path):
        cfg = small_config(trials=4, algos=["lv", "baseline"], cluster_specs=["balanced", "skewed:4"])
        reports, aggregates = run_experiment(cfg)
        written = emit(reports, tmp_path, aggregates=aggregates)
        with written["csv"].open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        # reports.csv holds no cell label; reports.json, in the same order, does
        specs = [d["extras"]["cluster_spec"] for d in json.loads(written["json"].read_text())]
        with written["aggregate_csv"].open(newline="") as fh:
            agg_rows = list(csv.DictReader(fh))
        assert len(agg_rows) == len(aggregates) == len(cfg.algos) * len(cfg.cluster_specs)
        for agg in agg_rows:
            qs = [
                int(r["queries"])
                for r, spec in zip(rows, specs)
                if (r["algo"], spec) == (agg["algo"], agg["cluster_spec"])
            ]
            assert len(qs) == int(agg["trials"]) == cfg.trials
            assert abs(median(qs) - float(agg["median_queries"])) <= 1e-9
            assert abs(mean(qs) - float(agg["mean_queries"])) <= 1e-9

    def test_one_aggregate_row_per_cell_and_cluster_spec(self):
        cfg = small_config(cluster_specs=["balanced", "skewed:4"], dists=[BERN_91, WEAK3])
        _, aggregates = run_experiment(cfg)
        labels = [tuple(row[c] for c in harness.CELL_COLUMNS) for row in aggregates]
        cells = product(cfg.algos, cfg.ns, cfg.ks, cfg.cluster_specs, cfg.dists)
        assert sorted(labels) == sorted((a, n, k, s, fp, fm) for a, n, k, s, (fp, fm) in cells)
        assert all(row["trials"] == cfg.trials for row in aggregates)

    def test_wall_times_zeroed_unless_requested(self):
        cfg = small_config(trials=1)
        reports, _ = run_experiment(cfg)
        assert all(r.wall_ms == 0.0 for r in reports)
        cfg_timed = small_config(trials=1, timings=True)
        timed, _ = run_experiment(cfg_timed)
        assert any(r.wall_ms > 0.0 for r in timed)
