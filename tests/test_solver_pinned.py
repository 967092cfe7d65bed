"""Pinned solver behaviour: digests of LV traces and MC outcomes.

Each digest covers a whole run, so any change to a query schedule, an argmax
tie-break or a phase split shows up here even when the run stays exact. The
digests were recorded on the pre-incremental solvers; a speedup must keep
them. Regenerate only for a deliberate, documented behaviour change:

    PYTHONPATH=src python tests/test_solver_pinned.py
"""

from __future__ import annotations

import hashlib

import pytest
from lv_reference import lv_trace

from oclust.divergence import from_text
from oclust.estimation import Constants
from oclust.instance import Balanced, ExplicitSizes, Skewed, generate
from oclust.solver_mc import run_mc

STRONG = ("0:0.9,1:0.1", "0:0.1,1:0.9")
MID = ("0:0.3,1:0.7", "0:0.7,1:0.3")
USELESS = ("0:0.5,1:0.5", "0:0.5,1:0.5")
WEAK3 = ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")
ZERO3 = ("0:0.6,1:0.4,2:0", "0:0.1,1:0.2,2:0.7")

# name -> (n, cluster spec, (f_plus, f_minus), instance seed, MC scale)
CASES = {
    "bal3-strong-n60": (60, Balanced(3), STRONG, 1, 0.02),
    "explicit-strong-n200": (200, ExplicitSizes((150, 30, 10, 5, 1, 1, 1, 1, 1)), STRONG, 2, 0.02),
    "skew6-weak3-n300": (300, Skewed(6, 5.0), WEAK3, 3, 0.02),
    "bal10-mid-n500": (500, Balanced(10), MID, 4, 0.02),
    "bal5-useless-n150": (150, Balanced(5), USELESS, 5, 0.02),
    "bal10-strong-n1000": (1000, Balanced(10), STRONG, 6, 0.01),
    "skew8-weak3-n800": (800, Skewed(8, 8.0), WEAK3, 7, 0.02),
    "explicit-weak3-n400": (
        400, ExplicitSizes((200, 100, 50, 25, 12, 6, 3, 1, 1, 1, 1)), WEAK3, 8, 0.02,
    ),
    "singletons-strong-n120": (120, ExplicitSizes((100,) + (1,) * 20), STRONG, 9, 1.0),
    "skew20-weak3-n600": (600, Skewed(20, 8.0), WEAK3, 10, 0.02),
    "bal1-strong-n250": (250, Balanced(1), STRONG, 11, 0.02),
    "bal7-zero3-n700": (700, Balanced(7), ZERO3, 12, 0.02),
}
# run_lv draws no randomness, so its schedule varies with the instance only:
# LV is pinned on two instance seeds per case, MC on three run seeds
LV_SHIFTS = (0, 1000)
RUN_SEEDS = (0, 1, 2)


def _instance(name, shift=0):
    n, spec, (fp, fm), seed, _ = CASES[name]
    return generate(n, spec, from_text(fp), from_text(fm), seed + shift)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def lv_digest(name: str, shift: int) -> str:
    return _digest(lv_trace(_instance(name, shift)))


def mc_digest(name: str, seed: int) -> str:
    consts = Constants(scale=CASES[name][4])
    clustering, r = run_mc(_instance(name), consts, seed)
    return _digest(
        (r.queries, r.q_phase1, r.q_phase2, r.q_phase3, sorted(clustering.blocks()))
    )


LV_DIGESTS = {
    "bal1-strong-n250/+0": "01c227276f3d7b1b",
    "bal1-strong-n250/+1000": "01c227276f3d7b1b",
    "bal10-mid-n500/+0": "b30cf3dff09cbec9",
    "bal10-mid-n500/+1000": "5a3a8825230a4eb8",
    "bal10-strong-n1000/+0": "d893643e7c53d91b",
    "bal10-strong-n1000/+1000": "21497cf1a39f454c",
    "bal3-strong-n60/+0": "9793972a53c22e1c",
    "bal3-strong-n60/+1000": "c6230d7f2fa54ba2",
    "bal5-useless-n150/+0": "11941a97baf75192",
    "bal5-useless-n150/+1000": "3e79938658c66721",
    "bal7-zero3-n700/+0": "4d006a6a6540e5c4",
    "bal7-zero3-n700/+1000": "0e58f0f8f5dd0735",
    "explicit-strong-n200/+0": "cfd932a37aec989a",
    "explicit-strong-n200/+1000": "663064afd50fed36",
    "explicit-weak3-n400/+0": "d80de64535be03f0",
    "explicit-weak3-n400/+1000": "9f5299e5dd6c06ab",
    "singletons-strong-n120/+0": "5b1510ddc80de3e9",
    "singletons-strong-n120/+1000": "5b1510ddc80de3e9",
    "skew20-weak3-n600/+0": "33b7b0d46998aaed",
    "skew20-weak3-n600/+1000": "ffd663966f0a5893",
    "skew6-weak3-n300/+0": "b76e4d1a37066795",
    "skew6-weak3-n300/+1000": "6712a13a9ee0aac5",
    "skew8-weak3-n800/+0": "2276d948943d157a",
    "skew8-weak3-n800/+1000": "a314877bed762d7e",
}

MC_DIGESTS = {
    "bal1-strong-n250/0": "34be3f3883264392",
    "bal1-strong-n250/1": "34be3f3883264392",
    "bal1-strong-n250/2": "34be3f3883264392",
    "bal10-mid-n500/0": "cbffd3ea331260eb",
    "bal10-mid-n500/1": "25607e451aa4e89b",
    "bal10-mid-n500/2": "143c8a1e1e4f6cf6",
    "bal10-strong-n1000/0": "ac8cb8c817989e30",
    "bal10-strong-n1000/1": "194c8c88b42a29dc",
    "bal10-strong-n1000/2": "837457ae1b0f52d8",
    "bal3-strong-n60/0": "14c40b01d0c65184",
    "bal3-strong-n60/1": "e20d5444bb4d935e",
    "bal3-strong-n60/2": "f97c16b30c32679b",
    "bal5-useless-n150/0": "87bc4d5f1e1dc001",
    "bal5-useless-n150/1": "836c82e756eafad1",
    "bal5-useless-n150/2": "de5ce0edfce44630",
    "bal7-zero3-n700/0": "f545d4b6e3f41593",
    "bal7-zero3-n700/1": "854306de31c3c14e",
    "bal7-zero3-n700/2": "83843fcf26ba9731",
    "explicit-strong-n200/0": "64293dcdfa430095",
    "explicit-strong-n200/1": "44689dd27da80d82",
    "explicit-strong-n200/2": "f3479282464f4fd7",
    "explicit-weak3-n400/0": "494b031c23f67214",
    "explicit-weak3-n400/1": "ced68d1d41f62071",
    "explicit-weak3-n400/2": "69bf87d5a775e4a1",
    "singletons-strong-n120/0": "d5f8e3b8bad7d336",
    "singletons-strong-n120/1": "f39d4063a84da1a6",
    "singletons-strong-n120/2": "d5f8e3b8bad7d336",
    "skew20-weak3-n600/0": "f8713b16372237ca",
    "skew20-weak3-n600/1": "fcf893800f285a7e",
    "skew20-weak3-n600/2": "33acb575b452e422",
    "skew6-weak3-n300/0": "9829f27ef19f9007",
    "skew6-weak3-n300/1": "9d9ff1e1fb06d449",
    "skew6-weak3-n300/2": "6c57a163e131c929",
    "skew8-weak3-n800/0": "d95ef6c529b8b8e4",
    "skew8-weak3-n800/1": "924d67686fa1b687",
    "skew8-weak3-n800/2": "4563cbc85d540a44",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lv_trace_pinned(name):
    got = {f"{name}/+{s}": lv_digest(name, s) for s in LV_SHIFTS}
    assert got == {key: LV_DIGESTS[key] for key in got}


@pytest.mark.parametrize(
    "name",
    ["bal3-strong-n60", "bal5-useless-n150", "explicit-strong-n200",
     "singletons-strong-n120", "skew6-weak3-n300", "explicit-weak3-n400"],
)
def test_lv_paranoid_cache_keeps_pinned_trace(name):
    # paranoid mode checks every cached score and best cluster against a
    # from-scratch recomputation on every round
    trace = lv_trace(_instance(name), paranoid=True)
    assert _digest(trace) == LV_DIGESTS[f"{name}/+0"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_mc_outcome_pinned(name):
    got = {f"{name}/{s}": mc_digest(name, s) for s in RUN_SEEDS}
    assert got == {key: MC_DIGESTS[key] for key in got}


if __name__ == "__main__":
    for table, fn, keys, fmt in (
        ("LV_DIGESTS", lv_digest, LV_SHIFTS, "{}/+{}"),
        ("MC_DIGESTS", mc_digest, RUN_SEEDS, "{}/{}"),
    ):
        print(f"{table} = {{")
        for name in sorted(CASES):
            for s in keys:
                print(f'    "{fmt.format(name, s)}": "{fn(name, s)}",')
        print("}\n")
