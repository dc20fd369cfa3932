import importlib.util
import json
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import driver
from atlstar import finite_mc
from atlstar import formula as fm
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


def recorded_encodings(monkeypatch):
    """The symbolic encodings the driver makes while the test runs, each
    with the store's node count right after it."""
    made = []
    real = cgs.encode_symbolic

    def encode(*args, **kwargs):
        sg = real(*args, **kwargs)
        made.append((sg, sg.store.node_count()))
        return sg

    monkeypatch.setattr(cgs, "encode_symbolic", encode)
    return made


def test_scheduler_fairness_encodes_the_model_once(monkeypatch):
    n = 3
    g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
    made = recorded_encodings(monkeypatch)
    res = driver.check(model=g, semantics="infinite",
                       formula=bench.scheduler_fairness_formula(n))
    subs = res.details["subformulas"]
    assert len(subs) == n
    assert res.details["encodes"] == 1
    ((_, mark),) = made
    # the store is rolled back to the bare encoding before each further
    # subformula, so each makes exactly the nodes above the encoding it
    # makes when checked on its own, with only its own coalition encoded
    for sub in subs:
        made.clear()
        alone = driver.check(model=g, semantics="infinite",
                             formula=sub["formula"])
        (only,) = alone.details["subformulas"]
        ((_, alone_mark),) = made
        assert only["automaton_states"] == sub["automaton_states"]
        assert only["nodes"] - alone_mark == sub["nodes"] - mark


def test_each_named_coalition_is_encoded_once(monkeypatch):
    # <<a>> twice and <<b,a>> once: two move relations in one encoding;
    # the innermost automaton is the widest, so the store is never
    # rebuilt
    made = recorded_encodings(monkeypatch)
    text = "<<a>> F (p & <<b,a>> F <<a>> X X X goal)"
    res = run(text)
    assert res.details["encodes"] == 1
    ((sg, _),) = made
    assert set(sg.moves) == {frozenset("a"), frozenset("ab")}
    explicit = run(text, engine="explicit")
    assert (res.holds, res.states) == (explicit.holds, explicit.states)


def test_scheduler_subformulas_stay_small():
    # no store holds the joint relation over every agent's actions,
    # which took each fairness subformula on scheduler n=4 to over 6,500
    # nodes; in the conjunction the store holds the four processes'
    # moves (998 nodes) and one subformula's arena, checked alone only
    # its own process's moves
    n = 4
    g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
    res = driver.check(model=g, semantics="infinite",
                       formula=bench.scheduler_fairness_formula(n))
    subs = res.details["subformulas"]
    assert len(subs) == n
    assert max(sub["nodes"] for sub in subs) <= 1600, subs
    for sub in subs:
        alone = driver.check(model=g, semantics="infinite",
                             formula=sub["formula"])
        (only,) = alone.details["subformulas"]
        assert only["nodes"] <= 1000, only


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
                                 "engine": "explicit"}])
def test_explicit_paths_report_no_store(kw):
    res = run("(<<a>> G p) | <<a,b>> F goal", **kw)
    assert res.details["encodes"] == 0
    for sub in res.details["subformulas"]:
        assert sub["rounds"] is None
        assert sub["automaton_states"] is None
        assert sub["nodes"] is None


def test_infinite_path_reports_its_arena():
    # Zielonka's solver runs on the symbolic arena and counts its
    # attractor iterations
    res = run("(<<a>> G p) | <<a,b>> F goal", semantics="infinite")
    assert res.details["encodes"] >= 1
    for sub in res.details["subformulas"]:
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


def test_repeated_nested_checks_report_the_same_details():
    # fresh atoms are numbered per check, so the letter bits, and with
    # them the node counts, do not depend on the checks run before
    g = bench.gen_counter(bench.CounterParams(cap=4, steps=6))
    text = "<<a1>> (F p2 & X (<<a2>> F p3) & X X (<<a1,a2>> G !p4))"
    runs = [driver.check(model=g, formula=text).details for _ in range(12)]
    assert all(d == runs[0] for d in runs)


def test_a_fresh_atom_name_is_an_undeclared_atom():
    # only the Python API can name one; the model does not declare it
    g = bench.gen_counter(bench.CounterParams(cap=3))
    for name in ("__sub1", "zzz"):
        with pytest.raises(driver.DriverError, match="not declared"):
            driver.check(model=g, formula=fm.atom(name))


def test_fresh_atoms_keep_label_rows_shared():
    g = bench.gen_counter(bench.CounterParams(cap=6, steps=6))
    labelled = g
    for i, won in enumerate((range(0, 49, 3), range(0, 49, 2)), 1):
        before = labelled
        labelled = driver._with_label(labelled, f"__sub{i}", set(won))
        assert labelled.atoms == [*before.atoms, f"__sub{i}"]
        assert [q for q, row in enumerate(labelled.labels)
                if f"__sub{i}" in row] == list(won)
        assert [row - {f"__sub{i}"} for row in labelled.labels] == \
            before.labels
        # one row object per distinct row
        assert len(set(map(id, labelled.labels))) == len(set(labelled.labels))
    assert len(set(labelled.labels)) < len(labelled.states)


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
    # winning play run through the whole counter
    g = bench.gen_counter(bench.CounterParams(cap=30, mode="infinite"))
    for text in ("<<a1>> G (p1 -> F counter_max)", "<<a2>> G F counter_max",
                 "<<a1,a2>> G !counter_max"):
        sym = driver.check(model=g, formula=text, semantics="infinite")
        exp = driver.check(model=g, formula=text, semantics="infinite",
                           engine="explicit")
        assert sym.states == exp.states, text


@pytest.mark.filterwarnings("ignore:infinite-trace semantics")
def test_zielonka_safety_iterations_do_not_grow_with_the_counter():
    # keeping the counter below its cap forever is won at once by the
    # attractor decomposition, whatever the counter's length
    text = "<<a1,a2>> G !counter_max"
    zielonka = []
    for cap in (25, 50):
        g = bench.gen_counter(bench.CounterParams(cap=cap, steps=cap))
        res = driver.check(model=g, formula=text, semantics="infinite")
        assert res.holds
        zielonka.append(res.details["subformulas"][0]["rounds"])
    assert zielonka[0] == zielonka[1]
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
    for solver in ("bogus", "progress"):
        with pytest.raises(driver.DriverError, match="solver"):
            run("<<a>> F goal", solver=solver)


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
    g.successors[1 * g.n_joint() + 2] = None    # s1 (stay,go)
    with pytest.raises(cgs.CgsError) as checked:
        driver.check(model=g, formula="<<a,b>> F goal")
    assert str(parsed.value) == str(checked.value) == (
        "transition function not total: no row for state s1 and joint "
        "action (stay,go)")


def test_finite_projection_is_timed_as_solving(monkeypatch):
    # projecting the winning product states onto model states is part of
    # the solve, as it is on the infinite path
    real = finite_mc.project_states

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(finite_mc, "project_states", slow)
    res = driver.check(model=model(), formula="<<a,b>> F goal",
                       semantics="finite")
    assert res.timings_ms["solve"] >= 50


def _layertrace():
    """The benchmark's per-layer tracer, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("generated, formula, semantics, spans", [
    (bench.gen_counter(bench.CounterParams()),
     "<<a1,a2>> F (p2 & <<a1>> F counter_max)", "finite",
     {"ltlf2dfa.translate": 2, "ltlf2dfa.encode": 2, "finite_mc.build": 2,
      "finite_mc.solve": 2, "finite_mc.project": 2}),
    (bench.gen_scheduler(bench.SchedulerParams()),
     "(<<p1>> G F ! wt_1) & (<<p2>> G ! wt_2)", "infinite",
     {"dpa.translate": 2, "dpa.encode": 2, "infinite_mc.build": 2,
      "infinite_mc.solve": 2}),
], ids=["finite", "infinite"])
def test_the_driver_calls_every_traced_layer(generated, formula, semantics,
                                             spans):
    # the trace wraps layer functions on their modules, so it sees a
    # layer only while the driver looks each one up there when it runs:
    # one span per layer and subformula, and two model-encoding spans
    # (the store and the encoding) for the check's one encoding
    layertrace = _layertrace()
    text = generated.to_text()
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer), tracer.check(0):
        res = driver.check(model=cgs.parse_model(text), formula=formula,
                           semantics=semantics)
    assert len(res.details["subformulas"]) == 2
    assert tracer.coverage(2) == []
    seen = Counter(rec["name"] for rec in tracer.spans)
    del seen["trace.count"]
    assert seen == {"check": 1, "cgs.parse": 1, "formula.parse": 1,
                    "cgs.encode": 2, **spans}
