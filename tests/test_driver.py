import json
import warnings

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import driver
from atlstar import ltlf2dfa


MODEL = """
agents: a b
atoms: p goal
states: s0 s1 s2
initial: s0
final: s2
actions a: go stay
actions b: go stay
label s1: p
label s2: p goal
trans s0 (go,go) -> s2
trans s0 (go,stay) -> s1
trans s0 (stay,go) -> s1
trans s0 (stay,stay) -> s0
trans s1 (go,go) -> s2
trans s1 (go,stay) -> s2
trans s1 (stay,go) -> s1
trans s1 (stay,stay) -> s1
trans s2 (go,go) -> s2
trans s2 (go,stay) -> s2
trans s2 (stay,go) -> s2
trans s2 (stay,stay) -> s2
"""


def model(final=True):
    text = MODEL if final else MODEL.replace("final: s2\n", "")
    return cgs.parse_model(text)


def run(formula, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return driver.check(model=model(final=kw.pop("final", True)),
                            formula=formula, **kw)


def test_basic_check():
    res = run("<<a,b>> F goal")
    assert res.holds is True
    assert res.states == [0, 1, 2]
    assert res.state_names == ["s0", "s1", "s2"]
    assert set(res.timings_ms) >= {"translate", "encode", "build", "solve",
                                   "total"}


@pytest.mark.parametrize("semantics", ["finite", "infinite"])
def test_phase_timings_add_up(semantics):
    # structural only: the phases are disjoint spans inside the total
    res = run("(<<a>> G p) | <<a,b>> F (goal & <<a>> G goal)",
              semantics=semantics)
    t = res.timings_ms
    phases = ("parse", "translate", "encode", "build", "solve")
    assert all(t[k] >= 0 for k in phases + ("total",))
    assert sum(t[k] for k in phases) <= t["total"]


def test_scheduler_fairness_encodes_the_model_once():
    n = 3
    g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
    res = driver.check(model=g, semantics="infinite",
                       formula=bench.scheduler_fairness_formula(n))
    subs = res.details["subformulas"]
    assert len(subs) == n
    assert res.details["encodes"] == 1
    # the store is rolled back to the bare encoding before each further
    # subformula, so each ends with exactly the nodes it makes when
    # checked on its own
    for sub in subs:
        alone = driver.check(model=g, semantics="infinite",
                             formula=sub["formula"])
        (only,) = alone.details["subformulas"]
        assert only["automaton_states"] == sub["automaton_states"]
        assert only["nodes"] == sub["nodes"]


@pytest.mark.parametrize("semantics", ["finite", "infinite"])
def test_store_grows_only_for_wider_automata(semantics):
    # inner X X X p needs a 3-bit automaton block, the outer F needs 1;
    # then a one-bit G runs in the same wide store
    res = run("(<<a>> F <<a,b>> X X X p) & <<b>> G p", semantics=semantics)
    subs = res.details["subformulas"]
    bits = [cgs.bits_for(sub["automaton_states"]) for sub in subs]
    assert bits[0] > max(bits[1:])
    assert res.details["encodes"] == 1
    res = run("<<a>> X X X (<<b>> G p)", semantics=semantics)
    bits = [cgs.bits_for(sub["automaton_states"])
            for sub in res.details["subformulas"]]
    assert bits[0] < bits[1]
    assert res.details["encodes"] == 2


@pytest.mark.parametrize("kw", [{"engine": "explicit"},
                                {"semantics": "infinite",
                                 "solver": "zielonka"}])
def test_explicit_paths_report_no_store(kw):
    res = run("(<<a>> G p) | <<a,b>> F goal", **kw)
    subs = res.details["subformulas"]
    if kw.get("engine") == "explicit":
        assert res.details["encodes"] == 0
        for sub in subs:
            assert sub["rounds"] is None
            assert sub["automaton_states"] is None
            assert sub["nodes"] is None
    else:
        # Zielonka's solver runs on the symbolic arena and counts its
        # attractor iterations
        assert res.details["encodes"] >= 1
        for sub in subs:
            assert isinstance(sub["rounds"], int) and sub["rounds"] >= 1
            assert isinstance(sub["automaton_states"], int)
            assert isinstance(sub["nodes"], int)


def test_double_negation():
    a = run("<<a>> G p")
    b = run("!!(<<a>> G p)")
    assert a.states == b.states


def test_boolean_combinations():
    conj = run("(<<a>> G p) & (<<a,b>> F goal)")
    left = run("<<a>> G p")
    right = run("<<a,b>> F goal")
    assert set(conj.states) == set(left.states) & set(right.states)
    disj = run("(<<a>> G p) | (<<a,b>> F goal)")
    assert set(disj.states) == set(left.states) | set(right.states)


def test_nested_strategic():
    res = run("<<a>> F (goal & <<a,b>> G goal)")
    assert res.holds in (True, False)
    assert len(res.details["subformulas"]) == 2


def test_engines_agree_finite():
    for text in ("<<a,b>> F goal", "<<a>> G p", "<<>> F p"):
        sym = run(text, engine="symbolic")
        exp = run(text, engine="explicit")
        assert sym.states == exp.states, text


def test_engines_and_solvers_agree_infinite():
    for text in ("<<a,b>> F goal", "<<a>> G p", "<<a>> G (p -> F goal)"):
        sym = run(text, semantics="infinite", engine="symbolic",
                  final=False)
        exp = run(text, semantics="infinite", engine="explicit",
                  final=False)
        zie = run(text, semantics="infinite", solver="zielonka",
                  final=False)
        assert sym.states == exp.states == zie.states, text


def test_long_lifting_chains_match_the_explicit_engine():
    # one incrementing agent, or both agents standing still, makes the
    # progress measures climb the whole counter, one step per round
    g = bench.gen_counter(bench.CounterParams(cap=30, mode="infinite"))
    for text in ("<<a1>> G (p1 -> F counter_max)", "<<a2>> G F counter_max",
                 "<<a1,a2>> G !counter_max"):
        sym = driver.check(model=g, formula=text, semantics="infinite",
                           solver="progress")
        exp = driver.check(model=g, formula=text, semantics="infinite",
                           engine="explicit")
        zie = driver.check(model=g, formula=text, semantics="infinite",
                           solver="zielonka")
        assert sym.states == exp.states == zie.states, text
        assert sym.details["subformulas"][0]["rounds"] > 30, text


@pytest.mark.filterwarnings("ignore:infinite-trace semantics")
def test_zielonka_safety_iterations_do_not_grow_with_the_counter():
    # keeping the counter below its cap forever is won at once by the
    # attractor decomposition, while progress measures climb one step
    # per round through the whole counter
    text = "<<a1,a2>> G !counter_max"
    zielonka, progress = [], []
    for cap in (25, 50):
        g = bench.gen_counter(bench.CounterParams(cap=cap, steps=cap))
        for solver, rounds in (("zielonka", zielonka),
                               ("progress", progress)):
            res = driver.check(model=g, formula=text, semantics="infinite",
                               solver=solver)
            assert res.holds
            rounds.append(res.details["subformulas"][0]["rounds"])
    assert zielonka[0] == zielonka[1]
    assert progress[1] == 13_009 and progress[0] < progress[1]
    assert zielonka[1] < 20


def test_zielonka_is_the_default_solver():
    assert driver.CheckRequest.solver == "zielonka"
    text = "<<a>> G (p -> F goal)"
    default = run(text, semantics="infinite", final=False)
    zie = run(text, semantics="infinite", final=False, solver="zielonka")
    assert default.details == zie.details


@pytest.mark.parametrize("semantics", ["finite", "infinite"])
def test_subformulas_report_rounds(semantics):
    text = "<<a>> F (goal & <<a,b>> G goal)"
    final = semantics == "finite"
    sym = run(text, semantics=semantics, final=final)
    rounds = [sub["rounds"] for sub in sym.details["subformulas"]]
    assert len(rounds) == 2
    assert all(isinstance(r, int) and r >= 1 for r in rounds)
    # the explicit engines run no symbolic fixpoint
    exp = run(text, semantics=semantics, final=final, engine="explicit")
    assert [sub["rounds"] for sub in exp.details["subformulas"]] == \
        [None, None]


def test_path_formula_rejected_at_top_level():
    with pytest.raises(driver.DriverError, match="strategic"):
        run("F goal")


def test_unknown_agent():
    with pytest.raises(driver.DriverError, match="unknown agent"):
        run("<<zz>> F goal")


@pytest.mark.parametrize("engine", ["symbolic", "explicit"])
def test_unknown_atom(engine):
    with pytest.raises(driver.DriverError, match="nosuch"):
        run("<<a>> F nosuch", engine=engine)
    with pytest.raises(driver.DriverError, match="nosuch"):
        run("<<a>> F (goal & <<a,b>> G nosuch)", engine=engine)


def test_bad_options():
    with pytest.raises(driver.DriverError, match="semantics"):
        run("<<a>> F goal", semantics="bogus")
    with pytest.raises(driver.DriverError, match="engine"):
        run("<<a>> F goal", engine="bogus")
    with pytest.raises(driver.DriverError, match="solver"):
        run("<<a>> F goal", solver="bogus")


def test_warnings():
    with pytest.warns(UserWarning, match="no final"):
        driver.check(model=model(final=False), formula="<<a>> G p")
    with pytest.warns(UserWarning, match="ignores final"):
        driver.check(model=model(), formula="<<a>> G p", semantics="infinite")


def test_to_json_shape():
    res = run("<<a,b>> F goal")
    data = json.loads(res.to_json())
    assert data["holds"] is True
    assert data["states"] == [0, 1, 2]
    assert data["formula"]
    assert isinstance(data["timings_ms"]["total"], (int, float))


def test_request_object_equivalent():
    req = driver.CheckRequest(model=model(), formula="<<a,b>> F goal")
    assert driver.check(req).states == run("<<a,b>> F goal").states


def test_ladder_depth_10_reads_only_the_model_letters(monkeypatch):
    # a cap-10 counter shows 11 labels (p0..p10), so the depth-10 ladder's
    # DFA reads 11 letters instead of 2^10
    cap, steps = 10, 12
    g = bench.gen_counter(bench.CounterParams(cap=cap, steps=steps))
    dfas = []
    real = ltlf2dfa.translate

    def recording(psi, labels=None):
        dfas.append(real(psi, labels=labels))
        return dfas[-1]

    monkeypatch.setattr(ltlf2dfa, "translate", recording)
    res = driver.check(model=g, formula=bench.counter_formula(cap),
                       semantics="finite", engine="symbolic")
    assert [len(d.letters()) for d in dfas] == [cap + 1]
    # by hand: the counter only grows, so ``F p_r`` holds iff it ends at r
    # or more; the nested X need ``cap`` positions, and from (c, t) the
    # two agents together add 2 per step for ``steps - t`` steps.  With
    # two agents only c <= 2t is reachable
    want = sorted(
        f"c{c}_t{t}"
        for t in range(steps + 1) for c in range(min(cap, 2 * t) + 1)
        if steps - t + 1 >= cap and c + 2 * (steps - t) >= cap)
    assert sorted(res.state_names) == want
    assert res.holds


def test_non_total_model_reads_the_same_from_parser_and_api():
    # the parser and the driver each reject a model with a missing row,
    # with the same message
    gap = "trans s1 (stay,go) -> s1\n"
    with pytest.raises(cgs.CgsError) as parsed:
        cgs.parse_model(MODEL.replace(gap, ""))
    g = model()
    del g.transitions[(1, (1, 0))]
    with pytest.raises(cgs.CgsError) as checked:
        driver.check(model=g, formula="<<a,b>> F goal")
    assert str(parsed.value) == str(checked.value) == (
        "transition function not total: no row for state s1 and joint "
        "action (stay,go)")
