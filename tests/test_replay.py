"""Each solve_* sees only W and the oracle: run against a replay of its own
run's query log, which holds no labels, it makes the same partition and sends
the same event stream."""

import pytest
from replay_oracle import ReplayMismatch, ReplayOracle

from oclust.divergence import bernoulli, from_text
from oclust.estimation import Constants
from oclust.instance import Balanced, Skewed, generate
from oclust.solver_lv import run_baseline, run_lv, solve_baseline, solve_lv
from oclust.solver_mc import run_mc, solve_mc

N = 90
SPECS = {
    "balanced": Balanced(4),
    "skewed": Skewed(4, 4.0),
    "k1": Balanced(1),
    "singletons": Balanced(N),
}
PMFS = {
    2: (bernoulli(0.85), bernoulli(0.15)),
    3: (from_text("0:0.1,1:0.2,2:0.7"), from_text("0:0.7,1:0.2,2:0.1")),
}
MC = Constants(scale=0.01)
SEED = 3

# algo -> (run on the instance, solve on W and an oracle, returning the clustering)
SOLVERS = {
    "baseline": (
        lambda inst, events: run_baseline(inst, SEED, events),
        lambda side, oracle: solve_baseline(oracle, SEED),
    ),
    "lv": (
        lambda inst, events: run_lv(inst, SEED, events),
        lambda side, oracle: solve_lv(side, oracle),
    ),
    "mc": (
        lambda inst, events: run_mc(inst, MC, SEED, "lemma", events),
        lambda side, oracle: solve_mc(side, oracle, MC, SEED, "lemma").clustering,
    ),
}


def _logged_run(algo, inst):
    logged = []
    clustering, _ = SOLVERS[algo][0](inst, logged.append)
    return clustering, logged


@pytest.mark.parametrize("q", sorted(PMFS))
@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_solver_replays_its_own_log(algo, spec, q):
    inst = generate(N, SPECS[spec], *PMFS[q], seed=10 * q + len(spec))
    clustering, logged = _logged_run(algo, inst)
    replayed = []
    replay = ReplayOracle(logged, inst.n, replayed.append)
    again = SOLVERS[algo][1](inst.side, replay)
    replay.close()
    assert again.members == clustering.members
    assert replayed == logged


def test_replay_names_the_step_of_a_pair_not_logged():
    inst = generate(N, SPECS["balanced"], *PMFS[2], seed=1)
    _, logged = _logged_run("baseline", inst)
    first = next(i for i, e in enumerate(logged) if e["event"] == "query")
    u, v = logged[first]["u"], logged[first]["v"]
    logged[first] = {**logged[first], "u": v, "v": u}
    with pytest.raises(ReplayMismatch, match=r"^step 1: asked .* logged"):
        solve_baseline(ReplayOracle(logged, inst.n), SEED)


def test_replay_raises_on_rows_left_over():
    inst = generate(N, SPECS["skewed"], *PMFS[3], seed=2)
    _, logged = _logged_run("lv", inst)
    extra = {"event": "query", "step": len(logged) + 1, "u": 0, "v": 1, "answer": 1}
    replay = ReplayOracle(logged + [extra], inst.n)
    solve_lv(inst.side, replay)
    with pytest.raises(ReplayMismatch, match=r"1 logged rows left over"):
        replay.close()


def test_replay_raises_past_the_last_row():
    inst = generate(N, SPECS["k1"], *PMFS[2], seed=3)
    _, logged = _logged_run("mc", inst)
    queries = [e for e in logged if e["event"] == "query"]
    with pytest.raises(ReplayMismatch, match=rf"^step {len(queries)}: asked .* after the last"):
        solve_mc(inst.side, ReplayOracle(queries[:-1], inst.n), MC, SEED, "lemma")
