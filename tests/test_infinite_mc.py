import itertools
import random

import pytest

from atlstar import cgs
from atlstar import dpa as dp
from atlstar import formula as fm
from atlstar import infinite_mc as imc


def random_game(rng, n, max_prio=5):
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randint(0, max_prio) for _ in range(n)]
    succ = [
        sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        for _ in range(n)
    ]
    return imc.ExplicitGame(owner=owner, priority=priority, succ=succ)


def brute_force_w0(game):
    """Player-0 winning region by positional-strategy enumeration.

    For each positional strategy of player 0, a vertex is winning iff no
    path in the induced graph reaches a cycle whose minimum priority is
    odd; positional determinacy makes the union over strategies exact.
    """
    n = game.n()
    zero = [v for v in range(n) if game.owner[v] == 0]
    w0 = set()
    for choice in itertools.product(*(game.succ[v] for v in zero)):
        pick = dict(zip(zero, choice))
        succ = [
            [pick[v]] if v in pick else list(game.succ[v])
            for v in range(n)
        ]
        # odd witnesses: vertices with odd priority p on a cycle that
        # only uses vertices of priority >= p
        witnesses = set()
        for u in range(n):
            p = game.priority[u]
            if p % 2 == 0:
                continue
            allowed = {x for x in range(n) if game.priority[x] >= p}
            seen, stack = set(), [w for w in succ[u] if w in allowed]
            hit = False
            while stack:
                x = stack.pop()
                if x == u:
                    hit = True
                    break
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(w for w in succ[x] if w in allowed)
            if hit:
                witnesses.add(u)
        # player 1 wins wherever some witness is reachable
        bad = set()
        for v in range(n):
            seen, stack = set(), [v]
            while stack:
                x = stack.pop()
                if x in witnesses:
                    bad.add(v)
                    break
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(succ[x])
        w0 |= set(range(n)) - bad
    return w0


def test_zielonka_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        game = random_game(rng, rng.randint(1, 6))
        w0, w1 = imc.solve_zielonka(game)
        want = brute_force_w0(game)
        assert w0 == want, (game,)
        assert w1 == set(range(game.n())) - want


def test_partition_invariant():
    rng = random.Random(13)
    for _ in range(50):
        game = random_game(rng, rng.randint(1, 25))
        w0, w1 = imc.solve_zielonka(game)
        assert w0 | w1 == set(range(game.n()))
        assert not (w0 & w1)


def test_attractor_basics():
    # 0 -> 1 -> 2 (sink loop); player 0 owns everything
    game = imc.ExplicitGame(owner=[0, 0, 0], priority=[0, 0, 0],
                            succ=[[1], [2], [2]])
    region = {0, 1, 2}
    a = imc.attractor(game, 0, {2}, region)
    assert a == {0, 1, 2}
    # opponent-owned vertex with an escape edge is not attracted
    game2 = imc.ExplicitGame(owner=[1, 0, 0], priority=[0, 0, 0],
                             succ=[[1, 2], [1], [2]])
    a2 = imc.attractor(game2, 0, {2}, {0, 1, 2})
    assert 0 not in a2
    # attractor is monotone in the target
    rng = random.Random(5)
    for _ in range(20):
        g = random_game(rng, 8)
        region = set(range(8))
        small = set(rng.sample(range(8), 2))
        big = small | set(rng.sample(range(8), 3))
        assert imc.attractor(g, 0, small, region) <= \
            imc.attractor(g, 0, big, region)


def test_validate_rejects_dead_ends():
    game = imc.ExplicitGame(owner=[0], priority=[0], succ=[[]])
    with pytest.raises(imc.InfiniteMcError, match="no successors"):
        game.validate()


def test_pgsolver_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        game = random_game(rng, rng.randint(1, 12))
        text = imc.write_pgsolver(game)
        g2 = imc.parse_pgsolver(text)
        assert g2.owner == game.owner
        assert g2.priority == game.priority
        assert [sorted(s) for s in g2.succ] == [sorted(s) for s in game.succ]


def test_pgsolver_parse_errors():
    with pytest.raises(imc.InfiniteMcError):
        imc.parse_pgsolver("parity 1;\n0 0;\n")
    with pytest.raises(imc.InfiniteMcError, match="owner"):
        imc.parse_pgsolver("parity 0;\n0 1 2 0;\n")
    with pytest.raises(imc.InfiniteMcError, match="empty"):
        imc.parse_pgsolver("parity 0;\n")


def _bdd_region(game, sets):
    st = game.store
    v = game.blocks[0][0]
    out = set()
    for value in st.minterms(sets, v):
        out.add(value)
    return out


def test_progress_measure_matches_zielonka_on_random_games():
    # both symbolic solvers against the explicit Zielonka
    rng = random.Random(29)
    for _ in range(60):
        game = random_game(rng, rng.randint(1, 20))
        w0, w1 = imc.solve_zielonka(game)
        sym = imc.encode_explicit_game(game)
        for solve in imc.SOLVERS.values():
            s0, s1 = solve(sym)
            assert _bdd_region(sym, s0) == w0
            assert _bdd_region(sym, s1) == w1
            assert isinstance(sym.rounds, int) and sym.rounds >= 1


def test_symbolic_attractor_matches_the_explicit_one():
    # any region, not only Zielonka's subgames: edges leaving the region
    # never count, for either player
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 24)
        game = random_game(rng, n)
        sym = imc.encode_explicit_game(game)
        st, v = sym.store, sym.blocks[0][0]
        region = {x for x in range(n) if rng.random() < 0.8}
        target = {x for x in region if rng.random() < 0.25}
        player = rng.randint(0, 1)
        want = imc.attractor(game, player, target, region)
        got, steps = imc._attractor(
            sym, player, st.from_points([v], [(x,) for x in target]).node,
            st.from_points([v], [(x,) for x in region]).node)
        assert _bdd_region(sym, imc.Bdd(st, got)) == want
        # one step per frontier, and a last one that adds nothing
        assert 1 <= steps <= len(want - target) + 1 or not target


def jacobi_lifting(game):
    """Per-vertex Jacobi iteration of small progress measures.

    Every round lifts every vertex from the previous round's measures;
    the last round is the one that changes nothing.  A measure is a
    tuple with one counter per odd priority (the smallest first), None
    stands for top.  Returns (rounds, set of vertices at top).
    """
    n = game.n()
    odds = sorted({p for p in game.priority if p % 2})
    caps = [game.priority.count(p) for p in odds]

    def order(m):
        return (1,) if m is None else (0, m)

    def prog(m, p):
        if m is None:
            return None
        out = [c if o <= p else 0 for c, o in zip(m, odds)]
        if p % 2 == 0:
            return tuple(out)
        for i in range(odds.index(p), -1, -1):
            if out[i] < caps[i]:
                out[i] += 1
                return tuple(out)
            out[i] = 0
        return None

    m = [(0,) * len(odds)] * n
    rounds = 0
    while True:
        rounds += 1
        pick = [min, max]
        nxt = [prog(pick[game.owner[x]]((m[w] for w in game.succ[x]),
                                        key=order), game.priority[x])
               for x in range(n)]
        if nxt == m:
            return rounds, {x for x in range(n) if m[x] is None}
        m = nxt


def test_worklist_lifting_runs_the_jacobi_rounds():
    # re-lifting only the predecessors of changed vertices must give the
    # rounds and the top set of lifting every vertex every round
    rng = random.Random(29)
    for _ in range(60):
        game = random_game(rng, rng.randint(1, 20))
        rounds, top = jacobi_lifting(game)
        sym = imc.encode_explicit_game(game)
        _, s1 = imc.solve_progress_measure(sym)
        assert sym.rounds == rounds, game
        assert _bdd_region(sym, s1) == top


def test_region_cap_check():
    with pytest.raises(imc.InfiniteMcError, match="cap"):
        imc.region_cap_check(100, cap=10)
    imc.region_cap_check(10, cap=10)


def random_model(rng, n_states, agents=("a", "b"), n_actions=2):
    states = [f"s{i}" for i in range(n_states)]
    actions = {ag: [f"m{j}" for j in range(n_actions)] for ag in agents}
    atoms = ["p", "q"]
    labels = [frozenset(x for x in atoms if rng.random() < 0.4)
              for _ in states]
    trans = {}
    for s in range(n_states):
        for ja in itertools.product(range(n_actions), repeat=len(agents)):
            trans[(s, ja)] = rng.randrange(n_states)
    return cgs.Cgs(agents=list(agents), atoms=atoms, states=states,
                   initial=0, final=frozenset(), actions=actions,
                   transitions=trans, labels=labels)


PATH_FORMULAS = ["G p", "F p", "G (p -> F q)", "p U q"]


def test_symbolic_pipeline_matches_explicit_on_random_models():
    rng = random.Random(37)
    for _ in range(15):
        g = random_model(rng, rng.randint(2, 6))
        for text in PATH_FORMULAS:
            psi = fm.parse_formula(text)
            dpa, _ = dp.obtain_dpa(psi)
            store = cgs.make_store(g, cgs.bits_for(dpa.n_states), game=True)
            sg = cgs.encode_symbolic(g, store)
            sdpa = dp.encode_dpa(dpa, sg)
            for coal in ((), ("a",), ("a", "b")):
                exp = imc.winning_states_explicit(g, dpa, coal)
                for solver in imc.SOLVERS:
                    sym = imc.winning_states(sg, sdpa, coal, solver=solver)
                    assert sym == exp, (g.to_text(), text, coal, solver)


def test_pre_exists_lies_within_the_vertices():
    # both arena builders give every edge a source vertex, so the
    # pre-image needs no conjunction with the vertex set
    rng = random.Random(47)
    arenas = [imc.encode_explicit_game(random_game(rng, rng.randint(1, 20)))
              for _ in range(8)]
    for text in PATH_FORMULAS:
        g = random_model(rng, rng.randint(2, 6))
        dpa, _ = dp.obtain_dpa(fm.parse_formula(text))
        store = cgs.make_store(g, cgs.bits_for(dpa.n_states), game=True)
        sg = cgs.encode_symbolic(g, store)
        sdpa = dp.encode_dpa(dpa, sg)
        for coal in ((), ("a",), ("a", "b")):
            arenas.append(imc.build_game(sg, sdpa, coal))
    for game in arenas:
        st = game.store
        blocks = [b for b, _ in game.blocks]
        targets = [st.true, game.v0, game.v1, game.vertices,
                   ~game.vertices, *game.priorities.values()]
        # random code sets, most with codes that are no vertex
        targets += [st.from_points(blocks, [
            tuple(rng.randrange(1 << len(b)) for b in blocks)
            for _ in range(rng.randint(0, 12))]) for _ in range(20)]
        for x in targets:
            assert (game.pre_exists(x) & ~game.vertices).is_false()


def test_explicit_game_region_cap():
    rng = random.Random(43)
    g = random_model(rng, 6)
    dpa, _ = dp.obtain_dpa(fm.parse_formula("G p"))
    with pytest.raises(imc.InfiniteMcError, match="cap"):
        game, _ids = imc.build_explicit_game(g, dpa, ("a",))
        imc.region_cap_check(10**9)
