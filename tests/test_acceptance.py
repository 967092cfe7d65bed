"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical gates run at desk scale with scaled constants; every scaled
constant is recorded in the printed line and in the reports themselves.
"""

import json
import math
import time
from statistics import median

import numpy as np
import pytest

from conftest import random_distribution
from estimation_reference import membership
from highprec import dec_hellinger2, dec_kl, dec_symmetric_kl
from oclust.bounds import (
    LowerBoundInputs,
    fano_zero_query_hellinger,
    fano_zero_query_kl,
    lb_error_prob,
)
from oclust.cli import main as cli_main
from oclust.divergence import bernoulli, hellinger2, kl, symmetric_kl
from oclust.estimation import Constants
from oclust.instance import Balanced, ExplicitSizes, generate
from oclust.solver_lv import run_baseline, run_lv
from oclust.solver_mc import run_mc

BERN_91 = (bernoulli(0.9), bernoulli(0.1))


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS  {detail}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: divergence correctness against the high-precision oracle


def test_criterion_1_divergence_against_independent_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        q = int(rng.integers(2, 9))
        f = random_distribution(rng, q)
        g = random_distribution(rng, q)

        got_h2 = hellinger2(f, g)
        ref_h2 = float(dec_hellinger2(f.probs, g.probs))
        assert abs(got_h2 - ref_h2) <= 1e-12

        got_kl = kl(f, g)
        ref_kl = float(dec_kl(f.probs, g.probs))
        if math.isinf(ref_kl):
            assert math.isinf(got_kl)
        else:
            assert abs(got_kl - ref_kl) <= 1e-12
            worst = max(worst, abs(got_kl - ref_kl), abs(got_h2 - ref_h2))

        got_skl = symmetric_kl(f, g)
        ref_skl = float(dec_symmetric_kl(f.probs, g.probs))
        if math.isinf(ref_skl):
            assert math.isinf(got_skl)
        else:
            assert abs(got_skl - ref_skl) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"1000 pairs, worst abs error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 3: Las Vegas exactness and the baseline cap (shared runs)

LV_CELLS = [
    (n, k, dists)
    for n in (200, 600)
    for k in (3, 8)
    for dists in (
        (bernoulli(0.8), bernoulli(0.2)),
        (bernoulli(0.6), bernoulli(0.4)),
        (bernoulli(0.5), bernoulli(0.5)),  # identical pair
    )
]


@pytest.fixture(scope="module")
def lv_trials():
    t0 = time.perf_counter()
    rows = []
    for trial in range(200):
        n, k, (fp, fm) = LV_CELLS[trial % len(LV_CELLS)]
        inst = generate(n, Balanced(k), fp, fm, seed=5000 + trial)
        _, lv = run_lv(inst, seed=trial)
        _, bl = run_baseline(inst, seed=trial)
        rows.append((n, k, lv, bl))
    return rows, time.perf_counter() - t0


def test_criterion_2_las_vegas_exactness(lv_trials):
    rows, elapsed = lv_trials
    exact = sum(1 for _, _, lv, _ in rows if lv.exact)
    assert exact == 200
    assert elapsed < 120.0
    _report(2, f"200/200 exact over {len(LV_CELLS)} cells, {elapsed:.1f}s")


def test_criterion_3_baseline_cap(lv_trials):
    rows, _ = lv_trials
    for n, k, lv, bl in rows:
        assert lv.queries <= n * k
        assert bl.queries <= n * k
    for n in (200, 600):
        inst = generate(n, Balanced(1), bernoulli(0.5), bernoulli(0.5), seed=n)
        _, bl = run_baseline(inst, seed=0)
        assert bl.queries == n - 1
    _report(3, "every LV/baseline run capped at nk; k=1 uses exactly n-1")


# ---------------------------------------------------------------------------
# criterion 4: side-information savings at n=2000, k=10


def test_criterion_4_side_information_savings():
    t0 = time.perf_counter()
    fp, fm = BERN_91
    consts = Constants(scale=0.01)
    lv_q, bl_q, mc_q = [], [], []
    for seed in range(20):
        inst = generate(2000, Balanced(10), fp, fm, seed=7000 + seed)
        _, bl = run_baseline(inst, seed)
        _, lv = run_lv(inst, seed)
        _, mc = run_mc(inst, consts, seed)
        bl_q.append(bl.queries)
        lv_q.append(lv.queries)
        mc_q.append(mc.queries)
    lv_ratio = median(lv_q) / median(bl_q)
    mc_ratio = median(mc_q) / median(bl_q)
    assert lv_ratio <= 0.5
    assert mc_ratio <= 0.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        4,
        f"median queries bl={median(bl_q):.0f} lv={median(lv_q):.0f} "
        f"mc={median(mc_q):.0f} (lv/bl={lv_ratio:.3f}<=0.5, mc/bl={mc_ratio:.3f}<=0.2; "
        f"constants c=118 c'=3 scale=0.01), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: Monte Carlo log scaling and desk-scale accuracy (shared)

MC_SCALING_CONSTS = Constants(scale=0.02)


@pytest.fixture(scope="module")
def mc_scaling_runs():
    t0 = time.perf_counter()
    fp, fm = BERN_91
    runs = {500: [], 2000: []}
    for n in runs:
        for seed in range(30):
            inst = generate(n, Balanced(5), fp, fm, seed=8000 + seed)
            _, rep = run_mc(inst, MC_SCALING_CONSTS, seed)
            runs[n].append(rep)
    return runs, time.perf_counter() - t0


def test_criterion_5_mc_logarithmic_scaling(mc_scaling_runs):
    runs, elapsed = mc_scaling_runs
    m500 = median(r.queries for r in runs[500])
    m2000 = median(r.queries for r in runs[2000])
    ratio = m2000 / m500
    assert ratio <= 2.0
    assert elapsed < 300.0
    _report(
        5,
        f"median queries n=500: {m500:.0f}, n=2000: {m2000:.0f}, ratio {ratio:.2f} "
        f"<= 2.0 (constants c=118 c'=3 scale=0.02), {elapsed:.1f}s",
    )


def test_criterion_6_mc_accuracy_at_desk_scale(mc_scaling_runs):
    runs, _ = mc_scaling_runs
    reports = runs[500] + runs[2000]
    rate = sum(r.exact for r in reports) / len(reports)
    assert rate >= 0.90
    _report(
        6,
        f"exact recovery {sum(r.exact for r in reports)}/{len(reports)} "
        f"({rate:.0%}) with constants c=118 c'=3 scale=0.02",
    )


# ---------------------------------------------------------------------------
# criterion 7: membership concentration at the Sanov cluster size


def test_criterion_7_concentration_surrogate():
    t0 = time.perf_counter()
    fp, fm = BERN_91
    n_ref = 1200
    m = math.ceil(32.0 * math.log(n_ref) / hellinger2(fp, fm))
    trials, bad = 2000, 0
    for trial in range(trials):
        inst = generate(2 * m + 1, ExplicitSizes((m + 1, m)), fp, fm, seed=90_000 + trial)
        own = list(range(1, m + 1))
        other = list(range(m + 1, 2 * m + 1))
        if membership(0, other, inst.side) >= membership(0, own, inst.side):
            bad += 1
    rate = bad / trials
    elapsed = time.perf_counter() - t0
    assert rate <= 0.01
    assert elapsed < 120.0
    _report(
        7,
        f"misordering {bad}/{trials} ({rate:.4f} <= 0.01) at cluster size {m}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: bounds calculators


def test_criterion_8_bounds_calculators():
    # monotone nonincreasing in the query budget on a 100-point grid
    values = [
        lb_error_prob(LowerBoundInputs(n=800, k=40, a=20, q_budget=float(q), h=0.05))
        for q in np.linspace(0.0, 4000.0, 100)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))

    n = 10**6
    fp4 = bernoulli(4 * math.log(n) / n)
    fp40 = bernoulli(40 * math.log(n) / n)
    fm1 = bernoulli(1 * math.log(n) / n)
    pos = fano_zero_query_kl(n, 20, fp4, fm1)
    assert pos > 0.0
    clamped = fano_zero_query_kl(n, 5, fp40, fm1)
    assert clamped == 0.0

    f = bernoulli(0.35)
    assert fano_zero_query_hellinger(100, 10, f, f) == (1.0 - math.sqrt(0.1)) ** 2
    assert fano_zero_query_hellinger(100, 10, bernoulli(1.0), bernoulli(0.0)) == 0.0
    _report(
        8,
        f"lemma1 monotone on 100-point grid; fano-kl {pos:.3f}>0 and clamped 0; "
        f"fano-hellinger boundary cases exact",
    )


# ---------------------------------------------------------------------------
# criterion 9: bench determinism across repeats and worker counts


def test_criterion_9_bench_determinism(tmp_path, monkeypatch, capsys):
    cfg = {
        "ns": [120],
        "ks": [3],
        "dists": [["0:0.1,1:0.9", "0:0.9,1:0.1"]],
        "algos": ["baseline", "lv", "mc"],
        "trials": 2,
        "base_seed": 99,
        "constants": {"scale": 0.05},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    blobs = []
    for i, workers in enumerate(("1", "2", "1")):
        monkeypatch.setenv("OCL_THREADS", workers)
        out_dir = tmp_path / f"out{i}"
        code = cli_main(
            ["bench", "--config", str(cfg_path), "--out", str(out_dir)]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(
            (
                (out_dir / "reports.csv").read_bytes(),
                (out_dir / "reports_aggregate.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1] == blobs[2]
    _report(9, "byte-identical CSVs across two repeats and OCL_THREADS in {1,2}")
