"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its time budget,
and prints a single pass/fail summary line.
"""

import itertools
import random
import time
import warnings

from atlstar import bdd
from atlstar import bench
from atlstar import cgs
from atlstar import dpa as dp
from atlstar import driver
from atlstar import finite_mc as fmc
from atlstar import formula as fm
from atlstar import games
from atlstar import ltlf2dfa

import helpers


def report(name, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s){tail}")
    assert ok, name


def quiet_check(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return driver.check(**kw)


# ---------------------------------------------------------------------------
# 1. finite-trace engines agree on random models

FINITE_CORPUS = [
    "F p", "G p", "p U q", "F (p & q)", "X p",
    "G (p -> F q)", "q U (p & q)", "G (p | X q)", "F X q", "G !q",
]


def test_finite_engines_agree_on_random_models():
    t0 = time.monotonic()
    rng = random.Random(2024)
    dfas = {text: ltlf2dfa.translate(fm.parse_formula(text))
            for text in FINITE_CORPUS}
    bits = max(cgs.bits_for(d.n_states) for d in dfas.values())
    coalitions = [("a",), ("a", "b"), ()]
    checked = 0
    for k in range(200):
        g = helpers.random_cgs(rng, rng.randint(2, 32), rng.randint(1, 3))
        store = cgs.make_store(g, bits)
        reachable = g.reachable_states()
        sg = cgs.encode_symbolic(g, store, reachable, coalitions)
        for i, text in enumerate(FINITE_CORPUS):
            psi = fm.parse_formula(text)
            dfa = dfas[text]
            coal = coalitions[(k + i) % len(coalitions)]
            sym = helpers.game_solving(sg, psi, coal, dfa)
            exp = fmc.explicit_game_solving(g, dfa, coal, reachable,
                                            product_cap=100000)
            assert sym == exp, (g.to_text(), text, coal)
            checked += 1
    elapsed = time.monotonic() - t0
    report("finite symbolic vs explicit engines",
           checked == 2000 and elapsed < 300, elapsed,
           f"{checked} model/formula pairs")


# nested strategic parts become fresh atoms, so the restricted alphabet of
# the outer automaton depends on the inner results
NESTED_CORPUS = [
    "F (p & <<a>> G q)", "G (p -> <<b>> X q)", "(<<a,b>> F q) U p",
    "F (<<>> G !p) & G (q | <<a>> F p)",
]


def test_restricted_alphabet_engines_agree_on_random_models():
    # the symbolic driver translates over the letters reachable states
    # carry; the explicit one over all 2^|atoms| letters
    t0 = time.monotonic()
    rng = random.Random(4711)
    bodies = FINITE_CORPUS + NESTED_CORPUS
    checked = 0
    for _ in range(50):
        g = helpers.random_cgs(rng, rng.randint(2, 20), rng.randint(1, 3))
        for body in bodies:
            for coal in ("a", "a,b", ""):
                text = f"<<{coal}>> ({body})"
                sym = quiet_check(model=g, formula=text, engine="symbolic")
                exp = quiet_check(model=g, formula=text, engine="explicit")
                assert (sym.holds, sym.states) == (exp.holds, exp.states), \
                    (g.to_text(), text)
                checked += 1
    elapsed = time.monotonic() - t0
    report("restricted vs full alphabet driver checks",
           checked == 50 * len(bodies) * 3 and elapsed < 30, elapsed,
           f"{checked} model/formula pairs")


def test_safety_oracle_is_zielonka_on_the_same_arena():
    # the finite oracle's attractor against Zielonka's solver on the
    # arena both read: each unsafe position a priority-1 sink, every
    # other vertex at priority 0
    t0 = time.monotonic()
    rng = random.Random(1998)
    dfas = {text: ltlf2dfa.translate(fm.parse_formula(text))
            for text in FINITE_CORPUS}
    coalitions = [(), ("a",), ("b",), ("a", "b")]
    checked = 0
    for _ in range(30):
        g = helpers.random_cgs(rng, rng.randint(2, 16), rng.randint(1, 3))
        reachable = g.reachable_states()
        for text, dfa in dfas.items():
            for coal in coalitions:
                game, nodes, entry = games.explicit_arena(g, dfa, coal,
                                                          reachable)
                game.priority = [0] * game.n()
                for v, (q, s) in enumerate(nodes):
                    if q in g.final and s not in dfa.finals:
                        game.priority[v] = 1
                        game.succ[v] = [v]
                w0, _ = games.solve_zielonka(game)
                want = {q for q, v in entry.items() if v in w0}
                got = fmc.explicit_game_solving(g, dfa, coal, reachable)
                assert got == want, (g.to_text(), text, coal)
                checked += 1
    elapsed = time.monotonic() - t0
    report("explicit safety oracle vs Zielonka on one arena",
           checked == 30 * len(FINITE_CORPUS) * len(coalitions)
           and elapsed < 60, elapsed, f"{checked} model/formula pairs")


# ---------------------------------------------------------------------------
# 2. DFA translation equals the trace-semantics oracle, exhaustively

DFA_CORPUS = [
    "p", "!p", "p & q", "p | q", "p -> q",
    "X p", "X X p", "X (p & q)",
    "F p", "G p", "F !p", "G !p",
    "p U q", "q U p", "!(p U q)", "F (p & q)",
    "G (p | q)", "G (p -> F q)", "F G p", "G F p",
    "p & X q", "p | G q", "F (p & X q)", "G (p -> X q)",
    "X F p", "(F p) & (F q)", "(G p) | (F q)",
    "(p U q) U r", "p U (q U r)", "G (p -> F (q | r))",
]


def test_dfa_translation_matches_trace_oracle():
    # truth only depends on the formula's own atoms, so enumerating
    # traces over that alphabet is exhaustive for the full one as well
    t0 = time.monotonic()
    total = 0
    for text in DFA_CORPUS:
        psi = fm.parse_formula(text)
        dfa = ltlf2dfa.translate(psi)
        atoms = sorted(fm.atoms_of(psi))
        assert len(atoms) <= 3
        letters = []
        for bits in itertools.product([0, 1], repeat=len(atoms)):
            letters.append(frozenset(
                a for a, b in zip(atoms, bits) if b))
        for n in range(1, 7):
            for comb in itertools.product(letters, repeat=n):
                trace = list(comb)
                want = helpers.eval_finite_trace(psi, trace, 0)
                assert helpers.dfa_accepts(dfa, trace) == want, \
                    (text, trace)
                total += 1
    elapsed = time.monotonic() - t0
    report("DFA translation vs finite-trace oracle",
           elapsed < 120, elapsed, f"{total} traces")


# ---------------------------------------------------------------------------
# 3. the parity solvers agree

def _sym_regions(game, w0, w1):
    return helpers.game_positions(game, w0), helpers.game_positions(game, w1)


def test_parity_solvers_agree():
    t0 = time.monotonic()
    rng = random.Random(99)
    n_games = 0
    for _ in range(500):
        n = rng.randint(1, 200)
        game = games.ExplicitGame(
            owner=[rng.randint(0, 1) for _ in range(n)],
            priority=[rng.randint(0, 6) for _ in range(n)],
            succ=[sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
                  for _ in range(n)],
        )
        w0, w1 = games.solve_zielonka(game)
        assert w0 | w1 == set(range(n)) and not (w0 & w1)
        sym = helpers.encode_explicit_game(game)
        r0, r1 = _sym_regions(sym, *games.solve_symbolic_zielonka(sym))
        assert r0 == w0 and r1 == w1
        n_games += 1

    # arenas derived from the benchmark generators
    derived = []
    g1 = bench.gen_counter(bench.CounterParams(cap=2, mode="infinite"))
    d1, _ = dp.obtain_dpa(fm.parse_formula("F counter_max"))
    derived.append(games.explicit_arena(g1, d1, ("a1", "a2"),
                                        g1.reachable_states())[0])
    g2 = bench.gen_scheduler(bench.SchedulerParams(processes=2))
    d2, _ = dp.obtain_dpa(fm.parse_formula("G (wt_1 -> F !wt_1)"))
    derived.append(games.explicit_arena(g2, d2, ("p1",),
                                        g2.reachable_states())[0])
    for game in derived:
        w0, w1 = games.solve_zielonka(game)
        sym = helpers.encode_explicit_game(game)
        r0, r1 = _sym_regions(sym, *games.solve_symbolic_zielonka(sym))
        assert r0 == w0 and r1 == w1
        n_games += 1
    elapsed = time.monotonic() - t0
    report("explicit vs symbolic Zielonka parity solvers",
           n_games == 502 and elapsed < 300, elapsed, f"{n_games} games")


# ---------------------------------------------------------------------------
# 4. symbolic infinite pipeline vs explicit construction

def test_infinite_pipeline_symbolic_vs_explicit():
    t0 = time.monotonic()
    cases = []
    for cap in range(1, 5):
        g = bench.gen_counter(
            bench.CounterParams(cap=cap, mode="infinite"))
        cases.append((g, "<<a1,a2>> F counter_max"))
        cases.append((g, "<<a1>> G !counter_max"))
    for n in (2, 3):
        g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
        cases.append((g, "<<p1>> G (wt_1 -> F !wt_1)"))
        cases.append((g, f"<<p{n}>> G (wt_{n} -> F !wt_{n})"))
    ok = True
    for g, text in cases:
        sym = quiet_check(model=g, formula=text, semantics="infinite",
                          engine="symbolic")
        exp = quiet_check(model=g, formula=text, semantics="infinite",
                          engine="explicit")
        assert sym.states == exp.states, (text, sym.states, exp.states)
        assert sym.holds == exp.holds
    elapsed = time.monotonic() - t0
    report("infinite pipeline symbolic vs explicit",
           ok and elapsed < 180, elapsed, f"{len(cases)} cases")


# strategic subformulas whose fallback DPAs need automaton blocks of
# different widths, so the check's one store both grows and runs small
# automata in a wide block
SHARED_STORE_CORPUS = [
    "<<a>> X X (<<b>> G F p)",
    "<<a,b>> G F (<<a>> X X p)",
    "(<<a>> G F p) & (<<b>> X (p U q)) & <<>> F (p & q)",
    "<<b>> (p U <<a>> X X X q)",
    "<<a>> G (q -> F <<b>> F (p & X q))",
    "!(<<b>> G p) | <<a,b>> X (q U <<a>> G F q)",
]


def test_shared_store_engines_agree_on_random_models():
    t0 = time.monotonic()
    rng = random.Random(5309)
    checked = grown = 0
    for _ in range(60):
        g = helpers.random_cgs(rng, rng.randint(2, 12), rng.randint(1, 3))
        for text in SHARED_STORE_CORPUS:
            sym = quiet_check(model=g, formula=text, semantics="infinite")
            exp = quiet_check(model=g, formula=text, semantics="infinite",
                              engine="explicit")
            assert (sym.holds, sym.states) == (exp.holds, exp.states), \
                (g.to_text(), text)
            # the store is rebuilt exactly when an automaton outgrows it
            widths = [cgs.bits_for(sub["automaton_states"])
                      for sub in sym.details["subformulas"]]
            rises = sum(b > max(widths[:i]) for i, b in
                        enumerate(widths) if i)
            assert sym.details["encodes"] == 1 + rises, (text, widths)
            grown += rises > 0
            checked += 1
    elapsed = time.monotonic() - t0
    report("shared-store symbolic vs explicit infinite checks",
           checked == 60 * len(SHARED_STORE_CORPUS) and grown > 0
           and elapsed < 60, elapsed,
           f"{checked} model/formula pairs, {grown} with a rebuilt store")


# ---------------------------------------------------------------------------
# 5. benchmark semantics sanity

def test_counter_reachability_and_scheduler_fairness():
    t0 = time.monotonic()
    # F counter_max holds iff the cap is jointly reachable in time:
    # two agents add at most 2 per tick over `steps` ticks
    for cap in range(1, 7):
        for steps in range(1, 7):
            g = bench.gen_counter(
                bench.CounterParams(cap=cap, steps=steps))
            want = cap <= 2 * steps
            sym = quiet_check(model=g,
                              formula="<<a1,a2>> F counter_max")
            exp = quiet_check(model=g,
                              formula="<<a1,a2>> F counter_max",
                              engine="explicit")
            assert sym.holds == exp.holds == want, (cap, steps)
    # scheduler fairness agrees across both infinite engines
    for n in (2, 3, 4):
        g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
        f = bench.scheduler_fairness_formula(n)
        a = quiet_check(model=g, formula=f, semantics="infinite")
        b = quiet_check(model=g, formula=f, semantics="infinite",
                        engine="explicit")
        assert a.holds == b.holds and a.states == b.states, n
    elapsed = time.monotonic() - t0
    report("counter reachability and scheduler fairness", True, elapsed)


# ---------------------------------------------------------------------------
# 6. scalability ordering (qualitative only; no absolute timings are
#    reproduced, machines differ)

def test_scalability_ordering():
    t0 = time.monotonic()
    g50 = bench.gen_counter(bench.CounterParams(cap=50, steps=50))
    t1 = time.monotonic()
    res = quiet_check(model=g50, formula="<<a1,a2>> F counter_max")
    sym_time = time.monotonic() - t1
    assert res.holds is True    # 50 <= 2 * 50: the cap is reachable
    ok_symbolic = sym_time < 60

    cap_hit = False
    try:
        quiet_check(model=g50, formula="<<a1,a2>> F counter_max",
                    engine="explicit")
    except fmc.FiniteMcError:
        cap_hit = True

    ordering = True
    pairs = []
    for cap in (10, 20, 40):
        g = bench.gen_counter(bench.CounterParams(cap=cap, steps=cap))
        # qualitative ordering: best of 3 runs per engine to damp noise
        ft = min(
            quiet_check(model=g, formula="<<a1,a2>> F counter_max")
            .timings_ms["total"] for _ in range(3))
        it = min(
            quiet_check(model=g, formula="<<a1,a2>> F counter_max",
                        semantics="infinite")
            .timings_ms["total"] for _ in range(3))
        pairs.append((cap, round(ft), round(it)))
        if ft >= it:
            ordering = False
    elapsed = time.monotonic() - t0
    report("finite-trace scalability ordering",
           ok_symbolic and cap_hit and ordering, elapsed,
           f"symbolic C=50 in {sym_time:.1f}s; finite vs infinite ms "
           f"{pairs}")


# ---------------------------------------------------------------------------
# 7. defense budget properties
#
# Absolute "minimum budget" figures are machine- and model-variant
# specific and are NOT reproduced here; the invariants checked instead
# are budget monotonicity and agreement of the binary search with the
# linear one that the monotonicity loop makes.

def test_defense_budget_properties():
    t0 = time.monotonic()
    for heuristic in bench.HEURISTICS:
        for horizon in (1, 2, 3, 4):
            prev = False
            linear = None     # the first budget that wins at this horizon
            for budget in range(0, 4):
                p = bench.CyberParams(horizon=horizon, budget=budget,
                                      heuristic=heuristic)
                g = bench.gen_cyber(p)
                holds = quiet_check(
                    model=g,
                    formula=bench.cyber_defense_formula()).holds
                assert holds >= prev, (heuristic, horizon, budget)
                prev = holds
                if holds and linear is None:
                    linear = budget
        # the binary search over the last horizon's budgets
        p = bench.CyberParams(horizon=4, budget=3, heuristic=heuristic)
        assert bench.minimal_defense_budget(p) == linear, heuristic
    elapsed = time.monotonic() - t0
    report("defense budget monotone, searches agree", True, elapsed)


# ---------------------------------------------------------------------------
# 8. BDD property suite

def test_bdd_properties_exhaustive():
    t0 = time.monotonic()
    rng = random.Random(6)
    st = bdd.BddStore([("x", 6)])
    blk = st.block("x")
    xs = [st.var(v) for v in blk.vars]

    def random_fn(depth):
        if depth == 0:
            return rng.choice(xs + [st.true, st.false])
        op = rng.randrange(4)
        if op == 0:
            return ~random_fn(depth - 1)
        a, b = random_fn(depth - 1), random_fn(depth - 1)
        return (a & b, a | b, a ^ b)[op - 1]

    assignments = [
        dict(zip(blk.vars, bits))
        for bits in itertools.product([False, True], repeat=6)
    ]

    for _ in range(60):
        f = random_fn(4)
        g = random_fn(4)
        table_f = [st.evaluate(f, a) for a in assignments]
        table_g = [st.evaluate(g, a) for a in assignments]
        # truth-table agreement of the boolean operations
        for a, tf, tg in zip(assignments, table_f, table_g):
            assert st.evaluate(f & g, a) == (tf and tg)
            assert st.evaluate(f | g, a) == (tf or tg)
            assert st.evaluate(~f, a) == (not tf)
        # canonicity: semantically equal functions share a node
        rebuilt = st.big_or([
            st.big_and([
                xs[i] if a[blk.vars[i]] else ~xs[i] for i in range(6)
            ])
            for a, tf in zip(assignments, table_f) if tf
        ] or [st.false])
        assert rebuilt == f
        # quantification of every variable
        for v in blk.vars:
            lhs = st.exists([v], f)
            for a in assignments:
                a1 = dict(a)
                a0 = dict(a)
                a1[v] = True
                a0[v] = False
                want = st.evaluate(f, a0) or st.evaluate(f, a1)
                assert st.evaluate(lhs, a) == want
    helpers.audit_reduced(st)
    elapsed = time.monotonic() - t0
    report("BDD canonicity, quantification, truth tables",
           elapsed < 60, elapsed)
