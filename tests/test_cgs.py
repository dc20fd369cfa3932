import random
import re

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import formula as fm
from atlstar import ltlf2dfa

import helpers


BASIC = """
# a tiny two-agent arena
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


def test_parse_basic():
    g = cgs.parse_model(BASIC)
    assert g.agents == ["a", "b"]
    assert len(g.states) == 3
    assert g.final == frozenset({2})
    assert g.labels[1] == frozenset({"p"})
    cgs.validate(g)


def test_emit_roundtrip():
    g = cgs.parse_model(BASIC)
    g2 = cgs.parse_model(g.to_text())
    assert g2.to_text() == g.to_text()
    assert g2.transitions == g.transitions


def test_parse_error_messages():
    missing = BASIC.replace("trans s0 (go,go) -> s2\n", "")
    with pytest.raises(cgs.CgsError, match="not total"):
        cgs.parse_model(missing)
    with pytest.raises(cgs.CgsError, match="line"):
        cgs.parse_model("agents: a\nbogus line here\n")
    with pytest.raises(cgs.CgsError):
        cgs.parse_model(BASIC.replace("atoms: p goal", "atoms: __p goal"))
    with pytest.raises(cgs.CgsError):
        cgs.parse_model(BASIC.replace("-> s1", "-> nowhere", 1))


# every way a trans line can fail: (replacement of the first trans line,
# or None to append a duplicate row, and the exact message)
TRANS_ERRORS = {
    "malformed": ("trans s0 go,go -> s2", "malformed trans line"),
    "no-arrow": ("trans s0 (go,go) s2", "malformed trans line"),
    "undefined-source": ("trans s9 (go,go) -> s2",
                         "undefined state 's9' in trans"),
    "undefined-destination": ("trans s0 (go,go) -> nowhere",
                              "undefined state 'nowhere' in trans"),
    "source-before-destination": ("trans s9 (go,go) -> nowhere",
                                  "undefined state 's9' in trans"),
    "too-few-actions": ("trans s0 (go) -> s2", "expected 2 actions, got 1"),
    "too-many-actions": ("trans s0 (go,go,go) -> s2",
                         "expected 2 actions, got 3"),
    "undefined-action": ("trans s0 (go,jump) -> s2",
                         "undefined action 'jump' for agent b"),
    "undefined-first-action": ("trans s0 (jump,jump) -> s2",
                               "undefined action 'jump' for agent a"),
    "duplicate-row": (None, "duplicate transition row for s0 (go,go)"),
}


@pytest.mark.parametrize("case", sorted(TRANS_ERRORS))
def test_trans_error_messages(case):
    line, msg = TRANS_ERRORS[case]
    first = "trans s0 (go,go) -> s2"
    if line is None:
        text = BASIC + "trans  s0 ( go , go )  ->  s1\n"
        lineno = len(BASIC.splitlines()) + 1
    else:
        text = BASIC.replace(first, line)
        lineno = BASIC.splitlines().index(first) + 1
    assert lineno in (12, 24)
    with pytest.raises(cgs.CgsError) as err:
        cgs.parse_model(text)
    assert str(err.value) == f"line {lineno}: {msg}"


def test_trans_errors_follow_line_order():
    # the earliest bad trans line is reported, whatever its failure
    text = BASIC.replace("trans s1 (go,go) -> s2", "trans s1 (go) -> s2")
    text = text.replace("trans s2 (go,go) -> s2", "trans s9 (go,go) -> s2")
    with pytest.raises(cgs.CgsError, match=r"^line 16: expected 2 actions"):
        cgs.parse_model(text)


def test_trans_parenthesis_only_after_the_arrow_is_malformed():
    # the action list must open before the arrow; this used to escape as
    # an unpacking ValueError instead of a CgsError with a line number
    text = BASIC.replace("trans s0 (go,go) -> s2", "trans s0 go,go) -> (s2")
    with pytest.raises(cgs.CgsError, match="^line 12: malformed trans line$"):
        cgs.parse_model(text)


def test_trans_whitespace_and_comments():
    text = BASIC.replace("trans s0 (go,go) -> s2",
                         "trans   s0(  go ,go )->s2   # a comment")
    assert cgs.parse_model(text).transitions == \
        cgs.parse_model(BASIC).transitions


def test_reserved_atom_prefix():
    with pytest.raises(cgs.CgsError, match="__"):
        cgs.parse_model(
            "agents: a\natoms: __x\nstates: s\ninitial: s\n"
            "actions a: m\nlabel s: __x\ntrans s (m) -> s\n")


def _basic_step(k, moves):
    if k == 0:
        return moves.count("go")
    return 2 if k == 2 or moves[0] == "go" else 1


def expand_basic(**changes):
    """BASIC as state keys 0-2 and functions; ``changes`` replaces
    arguments of :func:`cgs.expand`."""
    args = dict(
        agents=["a", "b"], atoms=["p", "goal"],
        actions={"a": ["go", "stay"], "b": ["go", "stay"]},
        keys=[0, 1, 2], name=lambda k: f"s{k}",
        label=lambda k: [[], ["p"], ["p", "goal"]][k],
        final=lambda k: k == 2, initial=0, step=_basic_step)
    args.update(changes)
    return cgs.expand(**args)


def test_expand_matches_the_parser():
    assert expand_basic() == cgs.parse_model(BASIC)


def test_equal_label_rows_are_one_object():
    g = bench.build_model("counter", {"cap": "3", "steps": "3"})
    parsed = cgs.parse_model(g.to_text())
    assert parsed == g
    for h in (g, parsed):
        # 16 states carry 4 distinct rows, held as 4 objects
        assert len(set(h.labels)) == len({id(r) for r in h.labels}) == 4


EXPAND_ERRORS = {
    "duplicate agent names": dict(agents=["a", "a"]),
    "duplicate atoms": dict(atoms=["p", "p"]),
    "duplicate actions for agent b": dict(
        actions={"a": ["go", "stay"], "b": ["go", "go"]}),
    "duplicate state names": dict(name=lambda k: f"s{min(k, 1)}"),
    "initial key 5 is not a state": dict(initial=5),
    "undefined atom 'q' in label of state s1": dict(
        label=lambda k: ["q"] if k == 1 else []),
    "atom '__x' uses the reserved '__' prefix": dict(
        atoms=["__x"], label=lambda k: []),
    "agent b has no actions": dict(actions={"a": ["go", "stay"]}),
    "successor 3 of state s0 under (go,go) is not a state": dict(
        step=lambda k, moves: 3),
}


@pytest.mark.parametrize("message", sorted(EXPAND_ERRORS))
def test_expand_applies_the_parser_checks(message):
    with pytest.raises(cgs.CgsError, match=re.escape(message)):
        expand_basic(**EXPAND_ERRORS[message])


def test_delta_implies_action_validity():
    # delta only holds rows of real joint actions, so the pipeline may
    # quantify opponents out of it without an availability filter
    rng = random.Random(31)
    for _ in range(40):
        agents = ("a", "b", "c")[:rng.randint(1, 3)]
        g = helpers.random_cgs(rng, rng.randint(1, 9), rng.randint(1, 5),
                               agents=agents)
        sg = cgs.encode_symbolic(g, cgs.make_store(g, automaton_bits=1))
        for a in agents:
            assert (sg.delta & ~sg.action_valid[a]).is_false()


def test_symbolic_encoding_soundness():
    rng = random.Random(17)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(1, 9))
        store = cgs.make_store(g, automaton_bits=2)
        sg = cgs.encode_symbolic(g, store)
        helpers.audit_determinism(sg)
        # every explicit transition is in delta, and nothing else
        for q in range(len(g.states)):
            for ja in g.joint_actions():
                t = g.transitions[(q, ja)]
                parts = [store.cube(sg.q, q), store.cube(sg.q_next, t)]
                for i, a in enumerate(g.agents):
                    parts.append(store.cube(sg.action_blocks[a], ja[i]))
                row = store.big_and(parts)
                assert not (row & sg.delta).is_false()


def labelled_states(sg, atom):
    """Next states on which the one-atom automaton for ``F atom`` leaves
    its initial state: the guard ``encode_automaton`` builds for the
    letter {atom}."""
    dfa = ltlf2dfa.translate(fm.parse_formula(f"F {atom}"))
    hit = dfa.delta[(dfa.initial, 1)]
    assert hit != dfa.delta[(dfa.initial, 0)]
    st = sg.store
    s, sn, delta, _ = ltlf2dfa.encode_automaton(dfa, sg)
    edge = delta & st.cube(s, dfa.initial) & st.cube(sn, hit)
    return set(sg.decode(st.exists(s.vars + sn.vars, edge), sg.q_next))


def test_labels_inverted():
    g = cgs.parse_model(BASIC)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store)
    p_states = labelled_states(sg, "p")
    assert p_states == {1, 2}
    assert labelled_states(sg, "goal") == {2}


def symbolic_reachable(sg):
    """Least fixpoint of the post-image of ``delta`` from the initial
    state."""
    st = sg.store
    quantified = list(sg.q.vars) + helpers.all_action_vars(sg)
    r = frontier = st.cube(sg.q, sg.g.initial)
    while not frontier.is_false():
        img = st.and_exists(frontier, sg.delta, quantified)
        img = st.rename(img, sg.q_next, sg.q)
        frontier = img & ~r
        r = r | frontier
    return r


def test_reachable_matches_bfs():
    rng = random.Random(23)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(1, 12))
        store = cgs.make_store(g, automaton_bits=1)
        sg = cgs.encode_symbolic(g, store)
        assert sg.reach == symbolic_reachable(sg)
        assert set(sg.decode(sg.reach)) == g.reachable_states()


@pytest.mark.parametrize("gen, params, nodes", [
    (bench.gen_counter, bench.CounterParams(cap=35, steps=35), 1153),
    (bench.gen_scheduler, bench.SchedulerParams(processes=3), 1229),
    (bench.gen_counter, bench.CounterParams(cap=100, mode="infinite"), 134),
])
def test_benchmark_models_encode_to_pinned_node_counts(gen, params, nodes):
    # the store holds the encoding's nodes and nothing else, so its size
    # is fixed by the functions encoded, however they are built
    g = gen(params)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store)
    assert store.node_count() == nodes
    assert sg.decode(sg.reach) == sorted(g.reachable_states())


def test_coalition_actions():
    g = cgs.parse_model(BASIC)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store)
    vars_ab, avail = cgs.coalition_actions(sg, ("a", "b"))
    assert len(vars_ab) == 2
    vars_none, avail_none = cgs.coalition_actions(sg, ())
    assert vars_none == []
    assert avail_none == store.true


def test_store_too_small():
    # the program sizes every store itself, so a store too small for the
    # model is a fault of the program, not bad input
    g = cgs.parse_model(BASIC)
    from atlstar.bdd import BddError, new_store
    store = new_store([("q", 1), ("q'", 1), ("s", 1), ("s'", 1),
                       ("a0", 1), ("a1", 1)])
    with pytest.raises(BddError):
        cgs.encode_symbolic(g, store)
    with pytest.raises(KeyError):
        cgs.encode_symbolic(g, new_store([("q", 2), ("q'", 2)]))
