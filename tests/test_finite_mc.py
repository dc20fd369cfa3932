import random

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import dpa
from atlstar import driver
from atlstar.bdd import BddStore
from atlstar import finite_mc as fmc
from atlstar import formula as fm
from atlstar import ltlf2dfa

import helpers


BASIC = """
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


def encode(g, psi):
    dfa = ltlf2dfa.translate(psi)
    bits = cgs.bits_for(dfa.n_states)
    store = cgs.make_store(g, bits)
    sg = cgs.encode_symbolic(g, store, g.reachable_states())
    sd = ltlf2dfa.encode_dfa(dfa, sg)
    return sg, sd, dfa


def test_hand_model_reach_goal():
    g = cgs.parse_model(BASIC)
    psi = fm.parse_formula("F goal")
    sg, _, dfa = encode(g, psi)
    # both agents together can reach s2 from anywhere; s2 stays put
    assert helpers.game_solving(sg, psi, ("a", "b"), dfa) == {0, 1, 2}
    assert fmc.explicit_game_solving(
        g, dfa, ("a", "b"), g.reachable_states()) == {0, 1, 2}
    # agent a alone can force s1 -> s2 (both rows with go lead to s2)
    # but not s0 -> {s1, s2} progress without b's cooperation; still, any
    # play stopping before s2 never hits a final state, so the trace
    # obligation is vacuous at s0 as well
    assert helpers.game_solving(sg, psi, ("a",), dfa) == {0, 1, 2}


def test_hand_model_globally_p():
    g = cgs.parse_model(BASIC)
    psi = fm.parse_formula("G p")
    sg, _, dfa = encode(g, psi)
    # s1 and s2 can reach the final state with p throughout; s0 is
    # unlabelled, but the coalition can loop there forever and never
    # stop at a final state, which satisfies the obligation vacuously
    sym = helpers.game_solving(sg, psi, ("a", "b"), dfa)
    assert sym == fmc.explicit_game_solving(g, dfa, ("a", "b"),
                                            g.reachable_states())
    assert sym == {0, 1, 2}
    # with finals everywhere the vacuous escape disappears: a trace may
    # stop at s0, whose missing p refutes G p immediately
    g2 = cgs.parse_model(BASIC.replace("final: s2", "final: s0 s1 s2"))
    sg2, _, dfa2 = encode(g2, psi)
    sym2 = helpers.game_solving(sg2, psi, ("a", "b"), dfa2)
    assert sym2 == fmc.explicit_game_solving(g2, dfa2, ("a", "b"),
                                             g2.reachable_states())
    assert 0 not in sym2 and 1 in sym2 and 2 in sym2


def full_coalition_oracle(g, psi):
    """Independent check for <<all agents>> psi via product reachability.

    With every agent in the coalition the play is fully controlled, so
    the formula holds iff some infinite path from the entry point stays
    clear of product states that are final in the game but rejecting in
    the automaton.
    """
    dfa = ltlf2dfa.translate(psi)
    nodes = {}

    def succs(node):
        q, s = node
        out = set()
        for _, t in helpers.moves_from(g, q):
            out.add((t, dfa.step(s, g.labels[t])))
        return out

    def safe(node):
        q, s = node
        return not (q in g.final and s not in dfa.finals)

    result = set()
    for q in g.reachable_states():
        start = (q, dfa.step(dfa.initial, g.labels[q]))
        if not safe(start):
            continue
        # greatest fixpoint: nodes with a safe successor inside the set
        region = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in region or not safe(v):
                continue
            region.add(v)
            stack.extend(succs(v))
        region = {v for v in region if safe(v)}
        while True:
            keep = {v for v in region if succs(v) & region}
            if keep == region:
                break
            region = keep
        if start in region:
            result.add(q)
    return result


def empty_coalition_oracle(g, psi):
    """<<>> psi holds iff no path from the entry point reaches an unsafe
    product node, since the opponents control every choice."""
    dfa = ltlf2dfa.translate(psi)

    result = set()
    for q in g.reachable_states():
        start = (q, dfa.step(dfa.initial, g.labels[q]))
        seen, stack, ok = set(), [start], True
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            qq, s = v
            if qq in g.final and s not in dfa.finals:
                ok = False
                break
            for _, t in helpers.moves_from(g, qq):
                stack.append((t, dfa.step(s, g.labels[t])))
        if ok:
            result.add(q)
    return result


FORMULAS = ["F goal", "G p", "p U q", "F (p & q)", "X p", "G (p -> F q)"]


def test_symbolic_matches_explicit_random():
    rng = random.Random(7)
    for _ in range(25):
        g = helpers.random_cgs(rng, rng.randint(2, 8))
        reachable = g.reachable_states()
        for text in ("F p", "G p", "p U q", "X q"):
            psi = fm.parse_formula(text)
            sg, _, dfa = encode(g, psi)
            for coal in ((), ("a",), ("a", "b")):
                sym = helpers.game_solving(sg, psi, coal, dfa)
                exp = fmc.explicit_game_solving(g, dfa, coal, reachable)
                assert sym == exp, (g.to_text(), text, coal)


def test_full_coalition_against_reachability_oracle():
    rng = random.Random(19)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(2, 7))
        for text in ("F p", "G p", "p U q"):
            psi = fm.parse_formula(text)
            sg, _, dfa = encode(g, psi)
            want = full_coalition_oracle(g, psi)
            assert helpers.game_solving(sg, psi, ("a", "b"), dfa) == want


def test_empty_coalition_against_reachability_oracle():
    rng = random.Random(23)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(2, 7))
        for text in ("F p", "G p"):
            psi = fm.parse_formula(text)
            sg, _, dfa = encode(g, psi)
            want = empty_coalition_oracle(g, psi)
            assert helpers.game_solving(sg, psi, (), dfa) == want


def test_entry_relation_matches_explicit_steps():
    # entry(q, s) holds exactly when s is the state the automaton enters
    # on q's own letter, for DFAs and the fallback DPAs alike
    cases = [(cgs.parse_model(BASIC),
              ltlf2dfa.translate(fm.parse_formula("G p")))]
    rng = random.Random(31)
    for _ in range(12):
        g = helpers.random_cgs(rng, rng.randint(2, 8))
        labels = [g.labels[q] for q in g.reachable_states()]
        cases += [(g, ltlf2dfa.translate(fm.parse_formula(text),
                                         labels=labels))
                  for text in ("G p", "p U q", "F (p & X q)")]
        cases += [(g, dpa.fallback_translate(fm.parse_formula(text)))
                  for text in ("G F p", "G (p -> F q)")]
    for g, aut in cases:
        store = cgs.make_store(g, cgs.bits_for(aut.n_states))
        sg = cgs.encode_symbolic(g, store, g.reachable_states())
        sd = ltlf2dfa.encode_automaton(aut, sg)
        for q in g.reachable_states():
            want = aut.delta[aut.initial, aut.letter(g.labels[q])]
            for s in range(aut.n_states):
                assign = {v: bool((q >> i) & 1)
                          for i, v in enumerate(sg.q.vars)}
                assign.update({v: bool((s >> i) & 1)
                               for i, v in enumerate(sd.s.vars)})
                assert store.evaluate(sd.entry, assign) == (s == want)


def test_solve_safety_winning_within_safe_region():
    g = cgs.parse_model(BASIC)
    psi = fm.parse_formula("G p")
    sg, sd, _ = encode(g, psi)
    game = fmc.build_product(sg, sd, ("a",))
    res = fmc.solve_safety(sg, sd, game)
    store = sg.store
    assert res.iterations >= 1 and game.rounds == res.iterations
    # unsafe: a final CGS state with the DFA rejecting
    unsafe = sg.final & ~sd.states(sd.aut.finals)
    assert (res.winning & unsafe) == store.false
    assert (res.winning & ~game.reachable) == store.false


def test_counter_safety_store_is_bounded():
    # the safety game grows the opponents' attractor from its frontier;
    # the bound is 60% of the 314,463 nodes that a greatest fixpoint
    # recomputing the whole safe set each round leaves on this check
    g = bench.gen_counter(bench.CounterParams(cap=100, steps=100))
    res = driver.check(model=g, formula="<<a1,a2>> G !counter_max",
                       semantics="finite")
    assert res.details["subformulas"][0]["nodes"] <= 188_000


def test_explicit_product_cap():
    rng = random.Random(3)
    g = helpers.random_cgs(rng, 8)
    with pytest.raises(fmc.FiniteMcError, match="product"):
        fmc.explicit_game_solving(
            g, ltlf2dfa.translate(fm.parse_formula("F p")), ("a",),
            g.reachable_states(), product_cap=3)


def test_finite_engine_trims_the_computed_table_between_iterations(
        monkeypatch):
    # a safety game of over 20 attractor steps: the table is trimmed at
    # every step boundary, stays within trim_cache's bound of four entries per node,
    # and clearing it outright there changes no winning state
    g = bench.gen_counter(bench.CounterParams(cap=6, steps=20, agents=3))
    psi = fm.parse_formula("G !counter_max")

    def solve(trim):
        sg, sd, dfa = encode(g, psi)
        store = sg.store
        sizes = []

        def recording():
            trim(store)
            sizes.append((len(store._ite_cache),
                          sum(map(len, store._memos.values())),
                          store.node_count()))

        monkeypatch.setattr(store, "trim_cache", recording)
        game = fmc.build_product(sg, sd, ("a1",))
        win = fmc.winning_states(sg, sd, game)
        return win, game.rounds, sizes

    def clear(store):
        store._ite_cache.clear()
        store._memos.clear()

    win, iterations, sizes = solve(BddStore.trim_cache)
    assert iterations > 20
    # one trim per attractor step
    assert len(sizes) == iterations
    for ite, memo, nodes in sizes:
        assert ite <= 4 * nodes and memo <= 4 * nodes
    cleared, cleared_iterations, _ = solve(clear)
    assert (cleared, cleared_iterations) == (win, iterations)
    assert win == fmc.explicit_game_solving(
        g, ltlf2dfa.translate(psi), ("a1",), g.reachable_states())
