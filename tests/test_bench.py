import csv
import dataclasses
import json
import warnings

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import driver
from atlstar import formula as fm

import helpers


def quiet_check(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return driver.check(**kw)


# ---------------------------------------------------------------------------
# Counter

def test_counter_generator_deterministic():
    p = bench.CounterParams(cap=2, steps=3)
    assert bench.gen_counter(p).to_text() == bench.gen_counter(p).to_text()


def test_counter_state_space_closure():
    # independent count: BFS over (count, tick) pairs
    p = bench.CounterParams(cap=2, steps=3, agents=2)
    g = bench.gen_counter(p)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        c, t = frontier.pop()
        for inc in range(p.agents + 1):
            nxt = (min(p.cap, c + inc), min(p.steps, t + 1))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    names = {f"c{c}_t{t}" for c, t in seen}
    assert {g.states[q] for q in g.reachable_states()} == names


def test_counter_labels_and_finals():
    p = bench.CounterParams(cap=2, steps=2)
    g = bench.gen_counter(p)
    for q, st in enumerate(g.states):
        c = int(st.split("_")[0][1:])
        t = int(st.split("_t")[1])
        want = {f"p{j}" for j in range(1, c + 1)}
        if c == p.cap:
            want.add("counter_max")
        assert g.labels[q] == frozenset(want)
        assert (q in g.final) == (t == p.steps)


def test_counter_small_verdicts():
    # cap 1, 1 step, 2 agents: one joint increment reaches the max
    g = bench.gen_counter(bench.CounterParams(cap=1, steps=1))
    res = quiet_check(model=g, formula="<<a1,a2>> F counter_max")
    assert res.holds
    # cap 3 is out of reach for 2 agents in a single step
    g2 = bench.gen_counter(bench.CounterParams(cap=3, steps=1))
    res2 = quiet_check(model=g2, formula="<<a1,a2>> F counter_max")
    assert not res2.holds


def test_counter_formula_shape():
    f = bench.counter_formula(2)
    assert str(f) == "<<a1,a2>> F p1 & X F p2"
    # strategic scopes extend maximally right, so this reparses unchanged
    assert fm.parse_formula(str(f)) == f
    assert fm.classify(f) == "state"


def test_counter_infinite_mode():
    g = bench.gen_counter(bench.CounterParams(cap=2, mode="infinite"))
    assert not g.final
    res = quiet_check(model=g, formula="<<a1,a2>> F counter_max",
                      semantics="infinite")
    assert res.holds


def test_counter_param_validation():
    with pytest.raises(bench.BenchError):
        bench.gen_counter(bench.CounterParams(cap=0))
    with pytest.raises(bench.BenchError):
        bench.gen_counter(bench.CounterParams(mode="bogus"))
    with pytest.raises(bench.BenchError, match="reduce"):
        bench.gen_counter(bench.CounterParams(cap=1000, steps=1000))


# ---------------------------------------------------------------------------
# Scheduler

def test_scheduler_requires_two_processes():
    with pytest.raises(bench.BenchError, match="two processes"):
        bench.gen_scheduler(bench.SchedulerParams(processes=1))


def test_scheduler_fairness_across_solvers():
    for n in (2, 3):
        g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
        f = bench.scheduler_fairness_formula(n)
        a = quiet_check(model=g, formula=f, semantics="infinite")
        b = quiet_check(model=g, formula=f, semantics="infinite",
                        engine="explicit")
        assert a.holds and b.holds
        assert a.states == b.states


def test_scheduler_grant_is_one_tick():
    g = bench.gen_scheduler(bench.SchedulerParams(processes=2))
    # from any state where process 1 holds the grant, every successor
    # has the grant released or reassigned; gr_1 never persists
    for q in range(len(g.states)):
        if "gr_1" not in g.labels[q]:
            continue
        for ja, t in helpers.moves_from(g, q):
            # process 1 re-enters via a fresh grant only after requesting
            if "gr_1" in g.labels[t]:
                # a new one-tick grant needs a request in between, which
                # takes a full tick; immediate re-grant is impossible
                raise AssertionError((g.states[q], ja, g.states[t]))


# ---------------------------------------------------------------------------
# Suspicion heuristics

def test_suspicion_conservative_example():
    w = (1, 1, 1, 1, 1, 1)
    flags = (1, 0, 1, 0, 1, 0)
    assert bench.suspicion_rule("conservative", w, (2, 4))(flags) == 1
    assert bench.suspicion_rule("conservative", w, (1, 3))(flags) == 2


def test_suspicion_all_zero_is_low():
    flags = (0,) * 6
    w = (1, 1, 2, 2, 3, 3)
    for h in bench.HEURISTICS:
        assert bench.suspicion_rule(h, w, (3, 6))(flags) == 0


def test_suspicion_aggressive_critical():
    w = (1, 1, 2, 2, 3, 3)
    flags = (0, 0, 0, 0, 0, 1)
    assert bench.suspicion_rule("aggressive", w, (3, 6))(flags) == 2
    # without a critical flag the bucket is capped below 2
    flags2 = (1, 1, 1, 1, 0, 0)
    assert bench.suspicion_rule("aggressive", w, (3, 6))(flags2) == 1


def test_suspicion_proportional():
    w = (1, 1, 2, 2, 3, 3)
    flags = (0, 0, 1, 1, 0, 1)   # score 7 of 12
    assert bench.suspicion_rule("proportional", w, (3, 6))(flags) == 2
    flags2 = (1, 1, 1, 0, 0, 0)  # 4/12 = 1/3
    assert bench.suspicion_rule("proportional", w, (3, 6))(flags2) == 1


def test_suspicion_diversity():
    rule = bench.suspicion_rule("diversity", (1, 1, 2, 2, 3, 3), (3, 6))
    assert rule((1, 1, 1, 1, 0, 0)) == 2
    assert rule((1, 1, 0, 0, 0, 0)) == 1
    assert rule((1, 0, 0, 0, 0, 0)) == 0


def test_suspicion_error_paths():
    w = (1, 1, 2, 2, 3, 3)
    with pytest.raises(bench.BenchError, match="t1 < t2"):
        bench.suspicion_rule("conservative", w, (4, 4))
    with pytest.raises(bench.BenchError, match="non-negative"):
        bench.suspicion_rule("conservative", (-1, 1, 1, 1, 1, 1), (3, 6))
    with pytest.raises(bench.BenchError, match="unknown"):
        bench.suspicion_rule("bogus", w, (3, 6))


@pytest.mark.parametrize("bad, match", [
    ({"t1": 4, "t2": 4}, "t1 < t2"),
    ({"weights": (-1, 1, 1, 1, 1, 1)}, "non-negative"),
    ({"weights": (1, 1, 1)}, "one weight per alert flag"),
])
def test_cyber_checks_its_suspicion_parameters_once(bad, match, monkeypatch):
    with pytest.raises(bench.BenchError, match=match):
        bench.gen_cyber(bench.CyberParams(horizon=2, budget=1, **bad))
    # a good model builds its bucket rule once, not once per transition
    calls = []
    real = bench.suspicion_rule
    monkeypatch.setattr(bench, "suspicion_rule",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    bench.gen_cyber(bench.CyberParams(horizon=2, budget=1))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Cyber scenario

def test_cyber_generator_deterministic():
    p = bench.CyberParams(horizon=2, budget=1)
    assert bench.gen_cyber(p).to_text() == bench.gen_cyber(p).to_text()


def test_cyber_zero_budget_loses():
    # full compromise takes the attacker three moves (scan, then two
    # escalations); with no repair budget and horizon 3 it is unstoppable
    p = bench.CyberParams(horizon=3, budget=0)
    g = bench.gen_cyber(p)
    res = quiet_check(model=g, formula=bench.cyber_defense_formula())
    assert not res.holds


def test_cyber_budget_monotone():
    p = bench.CyberParams(horizon=3, budget=0)
    prev = False
    for b in range(0, 3):
        g = bench.gen_cyber(dataclasses.replace(p, budget=b))
        holds = quiet_check(
            model=g, formula=bench.cyber_defense_formula()).holds
        assert holds >= prev, f"defense lost when budget grew to {b}"
        prev = holds


def test_cyber_minimal_budget_binary_equals_linear():
    # the reference: the first budget that wins, by linear search
    for h in bench.HEURISTICS:
        p = bench.CyberParams(horizon=3, budget=3, heuristic=h)
        b_lin = next((b for b in range(p.budget + 1) if quiet_check(
            model=bench.gen_cyber(dataclasses.replace(p, budget=b)),
            formula=bench.cyber_defense_formula()).holds), None)
        assert bench.minimal_defense_budget(p) == b_lin, h


def test_cyber_minimal_budget_of_an_empty_range_is_none():
    p = bench.CyberParams(horizon=3, budget=3)
    assert bench.minimal_defense_budget(p, lo=5, hi=3) is None


def test_cyber_scenarios_generate():
    for sc in bench.SCENARIOS:
        g = bench.gen_cyber(bench.CyberParams(scenario=sc, horizon=2,
                                              budget=1))
        cgs.validate(g)
        assert any("compromised_1" in lab for lab in g.labels)


# ---------------------------------------------------------------------------
# Suite runner

SUITE = """
# comment lines and blanks are skipped

generator=counter params cap=1;steps=1 formula="<<a1,a2>> F counter_max" engine=symbolic repeats=2
generator=counter params cap=3;steps=1 formula="<<a1,a2>> F counter_max" engine=explicit
generator=scheduler params processes=2 formula="<<p1>> G (!wt_1 | F !wt_1)"
generator=bogus formula="<<a>> F p"
"""


def test_parse_suite_line():
    fields = bench.parse_suite_line(
        'generator=counter params cap=3;steps=4 '
        'formula="<<a1,a2>> F counter_max" repeats=3')
    assert fields["generator"] == "counter"
    assert fields["params"] == {"cap": "3", "steps": "4"}
    assert fields["formula"] == "<<a1,a2>> F counter_max"
    assert fields["repeats"] == "3"
    with pytest.raises(bench.BenchError, match="generator"):
        bench.parse_suite_line('formula="F p"')
    with pytest.raises(bench.BenchError, match="unexpected token"):
        bench.parse_suite_line('generator=counter stray formula="F p"')
    # a misspelt or retired key is an error, not a silent default
    for key in ("engne", "solver"):
        with pytest.raises(bench.BenchError,
                           match=f"unknown suite key '{key}'; known: "
                                 "generator, params, formula, engine, "
                                 "semantics, repeats"):
            bench.parse_suite_line(
                f'generator=counter formula="F p" {key}=explicit')
    with pytest.raises(bench.BenchError, match="next token"):
        bench.parse_suite_line('generator=counter params=cap=3 '
                               'formula="F p"')


def test_run_suite(tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    rows = bench.run_suite(SUITE, csv_path=str(csv_path),
                           json_path=str(json_path))
    assert [r["row"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["verdict"] == "holds"
    assert rows[1]["verdict"] == "not-holds"
    assert rows[2]["verdict"] == "holds"
    assert rows[3]["verdict"].startswith("error:")
    assert rows[0]["ms_total"] >= 0
    phases = ("ms_parse", "ms_translate", "ms_encode", "ms_build",
              "ms_solve")
    for row in rows[:3]:
        assert all(row[k] >= 0 for k in phases)
        # each phase is rounded to 3 decimals, so allow their rounding
        assert sum(row[k] for k in phases) <= row["ms_total"] + 0.003

    with open(csv_path) as fh:
        data = list(csv.DictReader(fh))
    assert len(data) == 4
    assert data[0]["generator"] == "counter"
    assert data[0]["params"] == "cap=1;steps=1"

    mirrored = json.loads(json_path.read_text())
    assert [r["verdict"] for r in mirrored] == [r["verdict"] for r in rows]


def test_build_model_errors():
    with pytest.raises(bench.BenchError, match="unknown generator"):
        bench.build_model("bogus", {})
    with pytest.raises(bench.BenchError, match="no"):
        bench.build_model("counter", {"nope": "1"})
