import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from oclust import solver_lv
from oclust.cli import main
from oclust.clustering import ClusteringState
from oclust.divergence import bernoulli, to_text

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_then_run_lv(tmp_path, capsys):
    inst_path = tmp_path / "demo.oclb"
    code, out = run_cli(
        capsys,
        "gen", "--n", "80", "--k", "4", "--fplus", "0:0.1,1:0.9",
        "--fminus", "0:0.9,1:0.1", "--seed", "5", "--out", str(inst_path),
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["n"] == 80 and meta["k"] == 4
    assert inst_path.exists()

    code, out = run_cli(
        capsys, "run", "--algo", "lv", "--instance", str(inst_path), "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["algo"] == "lv"
    assert report["exact"] is True
    assert report["queries"] <= 80 * 4


def test_run_mc_with_scaled_constants_and_query_log(tmp_path, capsys):
    inst_path = tmp_path / "demo.oclb"
    run_cli(
        capsys,
        "gen", "--n", "120", "--k", "3", "--fplus", "0:0.1,1:0.9",
        "--fminus", "0:0.9,1:0.1", "--seed", "9", "--out", str(inst_path),
    )
    log_path = tmp_path / "queries.csv"
    code, out = run_cli(
        capsys,
        "run", "--algo", "mc", "--instance", str(inst_path), "--seed", "2",
        "--scale", "0.05", "--band", "lemma", "--query-log", str(log_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["constants"]["scale"] == 0.05
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "step,u,v,answer"
    assert len(lines) - 1 == report["queries"]


def test_gen_with_explicit_sizes_and_skew(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "gen", "--n", "10", "--sizes", "7,1,1,1", "--fplus", "0:0.2,1:0.8",
        "--fminus", "0:0.8,1:0.2", "--out", str(tmp_path / "a.oclb"),
    )
    assert code == 0 and json.loads(out)["k"] == 4
    code, out = run_cli(
        capsys,
        "gen", "--n", "60", "--k", "3", "--skew", "6", "--fplus", "0:0.2,1:0.8",
        "--fminus", "0:0.8,1:0.2", "--out", str(tmp_path / "b.oclb"),
    )
    assert code == 0 and json.loads(out)["k"] == 3


def test_gen_skew_with_explicit_sizes_exits_two(tmp_path, capsys):
    out = tmp_path / "x.oclb"
    code = main(
        ["gen", "--n", "6", "--sizes", "3,3", "--skew", "4", "--fplus", "0:0.2,1:0.8",
         "--fminus", "0:0.8,1:0.2", "--out", str(out)]
    )
    assert code == 2
    assert "--skew" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fplus", ["0:nan,1:nan", "0:0.5,inf:0.5"])
def test_gen_non_finite_distribution_exits_two(tmp_path, capsys, fplus):
    code = main(
        ["gen", "--n", "10", "--k", "2", "--fplus", fplus,
         "--fminus", "0:0.9,1:0.1", "--out", str(tmp_path / "x.oclb")]
    )
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.oclb").exists()


@pytest.mark.parametrize("skew", ["nan", "inf"])
def test_gen_non_finite_skew_exits_two(tmp_path, capsys, skew):
    out = tmp_path / "x.oclb"
    code = main(
        ["gen", "--n", "20", "--k", "3", "--skew", skew, "--fplus", "0:0.2,1:0.8",
         "--fminus", "0:0.8,1:0.2", "--out", str(out)]
    )
    assert code == 2
    assert "skew ratio must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("k", "abc"), ("k", [1]), ("k", None), ("f_plus", 5), ("n", 2.7), ("seed", 1.5)],
)
def test_run_malformed_instance_header_exits_two(tmp_path, capsys, field, value):
    path = tmp_path / "demo.oclb"
    main(
        ["gen", "--n", "20", "--k", "2", "--fplus", "0:0.1,1:0.9",
         "--fminus", "0:0.9,1:0.1", "--out", str(path), "--sidecar", "no"]
    )
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[5:9])
    raw = json.dumps({**json.loads(blob[9 : 9 + hlen]), field: value}).encode()
    path.write_bytes(blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :])
    capsys.readouterr()
    code = main(["run", "--algo", "mc", "--instance", str(path)])
    assert code == 2
    assert "byte offset 9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fplus, fminus, w_dtype",
    [
        ("0:0.1,1:0.9", "0:0.9,1:0.1", "<u8"),
        (",".join(f"{i}:{1 / 300}" for i in range(300)), ",".join(f"{i}:{1 / 300}" for i in range(300)), ">u2"),
    ],
    ids=["q2-u8", "q300-big-endian"],
)
def test_run_non_canonical_w_dtype_exits_two(tmp_path, capsys, fplus, fminus, w_dtype):
    path = tmp_path / "demo.oclb"
    main(["gen", "--n", "20", "--k", "2", "--fplus", fplus, "--fminus", fminus, "--out", str(path), "--sidecar", "no"])
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[5:9])
    raw = json.dumps({**json.loads(blob[9 : 9 + hlen]), "w_dtype": w_dtype}).encode()
    path.write_bytes(blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :])
    capsys.readouterr()
    code = main(["run", "--algo", "baseline", "--instance", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "byte offset 9" in err and repr(w_dtype) in err


def test_run_missing_instance_file_exits_two(tmp_path, capsys):
    code = main(["run", "--algo", "lv", "--instance", str(tmp_path / "missing.oclb")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.oclb" in err


def test_run_query_log_in_missing_directory_exits_two(tmp_path, capsys):
    path = tmp_path / "demo.oclb"
    main(
        ["gen", "--n", "20", "--k", "2", "--fplus", "0:0.1,1:0.9",
         "--fminus", "0:0.9,1:0.1", "--out", str(path), "--sidecar", "no"]
    )
    capsys.readouterr()
    log = tmp_path / "nodir" / "q.csv"
    code = main(["run", "--algo", "lv", "--instance", str(path), "--query-log", str(log)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "q.csv" in err
    assert not log.parent.exists()


def test_bounds_forms(capsys):
    code, out = run_cli(
        capsys,
        "bounds", "--form", "lemma1", "--k", "1000", "--a", "3",
        "--q", "41666.666666666664", "--h", "0.17320508075688773",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.20146348246661383, abs=1e-9)

    code, out = run_cli(
        capsys, "bounds", "--form", "thm2", "--n", "10000", "--k", "10", "--h", "0.1"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(10000.0)

    code, out = run_cli(
        capsys,
        "bounds", "--form", "fano-kl", "--n", "1000000", "--k", "20",
        "--fplus", "0:0.99994474,1:5.526e-05", "--fminus", "0:0.99998618,1:1.382e-05",
    )
    assert code == 0
    assert json.loads(out)["value"] > 0.7

    code, out = run_cli(
        capsys,
        "bounds", "--form", "fano-hellinger", "--n", "100", "--k", "10",
        "--fplus", "0:0.5,1:0.5", "--fminus", "0:0.5,1:0.5", "--mode", "exact",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx((1 - (10 / 100) ** 0.5) ** 2)


def test_sparse_sbm_bounds_script_matches_cli(capsys):
    # the script's exact Fano-KL column is `oclust bounds --form fano-kl` on
    # f_plus = Bern(a' ln n / n), f_minus = Bern(b' ln n / n), b' = 1
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sparse_sbm_bounds.py"),
         "--n", "1000", "--k", "4", "--a-primes", "2", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = [ln.split() for ln in out.stdout.splitlines() if not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    row = dict(zip(header, rows[0]))
    n, k = 1000, 4
    code, cli_out = run_cli(
        capsys,
        "bounds", "--form", "fano-kl", "--n", str(n), "--k", str(k),
        "--fplus", to_text(bernoulli(float(row["a_prime"]) * math.log(n) / n)),
        "--fminus", to_text(bernoulli(math.log(n) / n)),
    )
    assert code == 0
    value = json.loads(cli_out)["value"]
    assert value > 0 and f"{value:.4f}" == row["kl_exact"]


def test_bounds_missing_argument_is_usage_error(capsys):
    code = main(["bounds", "--form", "lemma1", "--k", "10"])
    assert code == 2


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_bounds_non_finite_query_budget_exits_two(capsys, q):
    code = main(["bounds", "--form", "lemma1", "--k", "4", "--a", "3", "--q", q, "--h", "0.1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "query budget" in captured.err


def test_bench_writes_outputs_and_check_passes(tmp_path, capsys):
    cfg = {
        "ns": [40],
        "ks": [2],
        "dists": [["0:0.1,1:0.9", "0:0.9,1:0.1"]],
        "algos": ["baseline", "lv"],
        "trials": 2,
        "base_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out = run_cli(
        capsys, "bench", "--config", str(cfg_path), "--out", str(out_dir), "--check"
    )
    assert code == 0
    assert (out_dir / "reports.csv").exists()
    assert (out_dir / "reports.json").exists()
    assert (out_dir / "reports.svg").exists()
    assert (out_dir / "reports_aggregate.csv").exists()
    assert "all gates passed" in out


def test_bench_bad_config_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ns": [40], "ks": [2], "dists": [], "algos": ["lv"], "trials": 1}))
    code = main(["bench", "--config", str(cfg_path)])
    assert code == 2


def test_bench_malformed_config_value_exits_two(tmp_path, capsys):
    # a non-string pmf pair used to escape as a TypeError traceback
    cfg = {"ns": [40], "ks": [2], "dists": [5], "algos": ["lv"], "trials": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sha256 of the ``run --query-log`` CSV on the instance of
# test_run_mc_with_scaled_constants_and_query_log (n=120, k=3, seed 9), run
# seed 2 at scale 0.05: the log's bytes are the oracle's whole query order
PINNED_QUERY_LOG_SHA256 = {
    "baseline": "a4cc0b06382196b9cb65f8437afe983df39fd9fc2fddeb9821d280ebca24663e",
    "lv": "99b53848954024b354fd490318cef67dfde3e6b39ac4ecb733ce5c38814d8404",
    "mc": "c391cd55f619304e09bd2413b828baa705be762e58a997b42b5a8fc9583d8c82",
}
REPORT_KEYS = [
    "algo", "fingerprint", "n", "k", "seed", "queries", "q_phase1", "q_phase2",
    "q_phase3", "exact", "misassigned", "wall_ms", "constants", "extras",
]


@pytest.mark.parametrize("algo", sorted(PINNED_QUERY_LOG_SHA256))
def test_run_query_log_and_report_keys_pinned(tmp_path, capsys, algo):
    inst_path = tmp_path / "demo.oclb"
    run_cli(
        capsys,
        "gen", "--n", "120", "--k", "3", "--fplus", "0:0.1,1:0.9",
        "--fminus", "0:0.9,1:0.1", "--seed", "9", "--out", str(inst_path),
    )
    log_path = tmp_path / "queries.csv"
    code, out = run_cli(
        capsys,
        "run", "--algo", algo, "--instance", str(inst_path), "--seed", "2",
        "--scale", "0.05", "--query-log", str(log_path),
    )
    assert code == 0
    assert list(json.loads(out)) == REPORT_KEYS
    digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    assert digest == PINNED_QUERY_LOG_SHA256[algo]


def test_bench_non_integer_thread_count_exits_two(tmp_path, capsys, monkeypatch):
    cfg = {"ns": [40], "ks": [2], "dists": [["0:0.1,1:0.9", "0:0.9,1:0.1"]], "algos": ["lv"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("OCL_THREADS", "four")
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "OCL_THREADS" in capsys.readouterr().err


def _all_singletons(side, oracle):
    # an LV that breaks its exactness guarantee: every vertex alone, no query
    state = ClusteringState(side.n)
    for v in range(side.n):
        state.new_cluster(v)
    return state


def _assert_invariant_exit(code, err):
    assert code == 3
    assert err.startswith("invariant violated: lv must recover the exact partition")
    assert err.count("\n") == 1


def test_bench_check_invariant_violation_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver_lv, "solve_lv", _all_singletons)
    monkeypatch.delenv("OCL_THREADS", raising=False)
    cfg = {"ns": [40], "ks": [2], "dists": [["0:0.1,1:0.9", "0:0.9,1:0.1"]], "algos": ["baseline", "lv"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--check"])
    captured = capsys.readouterr()
    _assert_invariant_exit(code, captured.err)
    assert captured.out == ""


def test_run_lv_invariant_violation_exits_three(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "demo.oclb"
    run_cli(
        capsys,
        "gen", "--n", "40", "--k", "2", "--fplus", "0:0.1,1:0.9",
        "--fminus", "0:0.9,1:0.1", "--seed", "5", "--out", str(inst_path),
    )
    monkeypatch.setattr(solver_lv, "solve_lv", _all_singletons)
    code = main(["run", "--algo", "lv", "--instance", str(inst_path)])
    captured = capsys.readouterr()
    _assert_invariant_exit(code, captured.err)
    assert captured.out == ""
