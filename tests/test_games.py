"""The games both semantics share: the explicit game, its attractor
and Zielonka solver, the PGSolver reader and the region cap, and the
symbolic arena's attractor, checked against brute force, the explicit
solver and the textbook fixpoint. The tests on product arenas built
from a model and a DPA are in ``test_infinite_mc``."""

import itertools
import random

import pytest

from atlstar import cgs
from atlstar import dpa as dp
from atlstar import formula as fm
from atlstar import games
from atlstar import infinite_mc as imc
from atlstar.bdd import Bdd
from atlstar.errors import ResourceError

import helpers

PATH_FORMULAS = ["G p", "F p", "G (p -> F q)", "p U q"]
COALITIONS = [(), ("a",), ("a", "b")]


def random_game(rng, n, max_prio=5):
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randint(0, max_prio) for _ in range(n)]
    succ = [
        sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        for _ in range(n)
    ]
    return games.ExplicitGame(owner=owner, priority=priority, succ=succ)


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
        w0, w1 = games.solve_zielonka(game)
        want = brute_force_w0(game)
        assert w0 == want, (game,)
        assert w1 == set(range(game.n())) - want


def test_partition_invariant():
    rng = random.Random(13)
    for _ in range(50):
        game = random_game(rng, rng.randint(1, 25))
        w0, w1 = games.solve_zielonka(game)
        assert w0 | w1 == set(range(game.n()))
        assert not (w0 & w1)


def test_attractor_basics():
    # 0 -> 1 -> 2 (sink loop); player 0 owns everything
    game = games.ExplicitGame(owner=[0, 0, 0], priority=[0, 0, 0],
                            succ=[[1], [2], [2]])
    region = {0, 1, 2}
    a = games.attractor(game, 0, {2}, region)
    assert a == {0, 1, 2}
    # opponent-owned vertex with an escape edge is not attracted
    game2 = games.ExplicitGame(owner=[1, 0, 0], priority=[0, 0, 0],
                             succ=[[1, 2], [1], [2]])
    a2 = games.attractor(game2, 0, {2}, {0, 1, 2})
    assert 0 not in a2
    # attractor is monotone in the target
    rng = random.Random(5)
    for _ in range(20):
        g = random_game(rng, 8)
        region = set(range(8))
        small = set(rng.sample(range(8), 2))
        big = small | set(rng.sample(range(8), 3))
        assert games.attractor(g, 0, small, region) <= \
            games.attractor(g, 0, big, region)


def chain_game(n):
    """Vertex i has priority i and moves to i or i+1; the last loops."""
    return games.ExplicitGame(owner=[0] * n, priority=list(range(n)),
                            succ=[[i, i + 1] for i in range(n - 1)]
                            + [[n - 1]])


def test_zielonka_recursion_is_bounded_by_the_priorities():
    # a chain recurses once per priority; below the cap both solvers
    # give the answer, above it both refuse the game
    game = chain_game(100)
    w0, w1 = games.solve_zielonka(game)
    assert (w0, w1) == (set(range(99)), {99})
    sym = helpers.encode_explicit_game(game)
    s0, s1 = games.solve_symbolic_zielonka(sym)
    assert helpers.game_positions(sym, s0) == w0
    assert helpers.game_positions(sym, s1) == w1
    deep = chain_game(1200)
    with pytest.raises(ResourceError, match="1200 distinct priorities"):
        games.solve_zielonka(deep)
    with pytest.raises(ResourceError, match="1200 distinct priorities"):
        games.solve_symbolic_zielonka(helpers.encode_explicit_game(deep))


def test_validate_rejects_dead_ends():
    game = games.ExplicitGame(owner=[0], priority=[0], succ=[[]])
    with pytest.raises(games.GameError, match="no successors"):
        game.validate()


def test_pgsolver_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        game = random_game(rng, rng.randint(1, 12))
        text = helpers.write_pgsolver(game)
        g2 = games.parse_pgsolver(text)
        assert g2.owner == game.owner
        assert g2.priority == game.priority
        assert [sorted(s) for s in g2.succ] == [sorted(s) for s in game.succ]


def test_pgsolver_parse_errors():
    with pytest.raises(games.GameError):
        games.parse_pgsolver("parity 1;\n0 0;\n")
    with pytest.raises(games.GameError, match="owner"):
        games.parse_pgsolver("parity 0;\n0 1 2 0;\n")
    with pytest.raises(games.GameError, match="empty"):
        games.parse_pgsolver("parity 0;\n")


def test_symbolic_zielonka_matches_explicit_on_random_games():
    rng = random.Random(29)
    for _ in range(60):
        game = random_game(rng, rng.randint(1, 20))
        w0, w1 = games.solve_zielonka(game)
        sym = helpers.encode_explicit_game(game)
        s0, s1 = games.solve_symbolic_zielonka(sym)
        assert helpers.game_positions(sym, s0) == w0
        assert helpers.game_positions(sym, s1) == w1
        assert isinstance(sym.rounds, int) and sym.rounds >= 1


def test_symbolic_attractor_matches_the_explicit_one():
    # any region, not only Zielonka's subgames: edges leaving the region
    # never count, for either player
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 24)
        game = random_game(rng, n)
        sym = helpers.encode_explicit_game(game)
        st = sym.store
        region = {x for x in range(n) if rng.random() < 0.8}
        target = {x for x in region if rng.random() < 0.25}
        player = rng.randint(0, 1)
        want = games.attractor(game, player, target, region)
        lifted = helpers.lift_region(game, sym, target) & sym.v0
        got, steps = games.symbolic_attractor(
            sym, player, lifted.node,
            helpers.lift_region(game, sym, region).node)
        got = Bdd(st, got)
        assert helpers.game_positions(sym, got) == want
        # one step per frontier, and a last one that adds nothing
        added = st.sat_count(got & ~lifted, sym.vertex_vars())
        assert 1 <= steps <= added + 1 or not target


def textbook_attractor(game, player, target, region):
    """mu X. T | (own & pre X) | (opp & !pre(region - X)), within region."""
    own, opp = (game.v1, game.v0) if player else (game.v0, game.v1)
    x = target & region
    while True:
        pre = helpers.pre_exists
        nxt = region & (target | (own & pre(game, x))
                        | (opp & ~pre(game, region & ~x)))
        if nxt == x:
            return x
        x = nxt


def random_subset(rng, game, within):
    """``within`` cut by a disjunction of a few random literal cubes."""
    st, vars_ = game.store, game.vertex_vars()
    f = st.false
    for _ in range(rng.randint(1, 3)):
        cube = st.true
        for v in rng.sample(vars_, min(len(vars_), rng.randint(1, 3))):
            cube &= st.var(v) if rng.random() < 0.5 else ~st.var(v)
        f |= cube
    return within & f


def trap_region(rng, game):
    """The vertices outside a random player's attractor to a random set,
    a trap for that player, or all vertices when the attractor has them
    all; every vertex of the region keeps an edge into it."""
    player = rng.randint(0, 1)
    seed = random_subset(rng, game, game.vertices)
    region = game.vertices & ~textbook_attractor(game, player, seed,
                                                 game.vertices)
    return game.vertices if region.is_false() else region


def assert_attractors_are_textbook(rng, game, rounds):
    st = game.store
    for _ in range(rounds):
        region = trap_region(rng, game)
        target = random_subset(rng, game, region)
        for player in (0, 1):
            got, _ = games.symbolic_attractor(game, player, target.node,
                                              region.node)
            assert Bdd(st, got) == textbook_attractor(
                game, player, target, region)


def test_attractor_is_the_textbook_fixpoint_on_random_games():
    rng = random.Random(53)
    for _ in range(40):
        game = random_game(rng, rng.randint(1, 24))
        sym = helpers.encode_explicit_game(game)
        assert_attractors_are_textbook(rng, sym, 4)
        # and the explicit attractor agrees on the same regions
        region = helpers.game_positions(sym, trap_region(rng, sym))
        target = {x for x in region if rng.random() < 0.3}
        for player in (0, 1):
            got, _ = games.symbolic_attractor(
                sym, player,
                (helpers.lift_region(game, sym, target) & sym.v0).node,
                helpers.lift_region(game, sym, region).node)
            assert helpers.game_positions(sym, Bdd(sym.store, got)) == \
                games.attractor(game, player, target, region)


def test_region_cap_check():
    with pytest.raises(ResourceError, match="cap"):
        games.region_cap_check(games.REGION_CAP + 1)
    games.region_cap_check(games.REGION_CAP)


def random_arenas(rng):
    """Eight arenas of random explicit games and the ``build_game``
    arenas of random models, for every path formula and coalition."""
    arenas = [helpers.encode_explicit_game(random_game(rng, rng.randint(1, 20)))
              for _ in range(8)]
    for text in PATH_FORMULAS:
        g = helpers.random_cgs(rng, rng.randint(2, 6), finals=False)
        dpa, _ = dp.obtain_dpa(fm.parse_formula(text))
        store = cgs.make_store(g, cgs.bits_for(dpa.n_states))
        sg = cgs.encode_symbolic(g, store, g.reachable_states(), COALITIONS)
        sdpa = dp.encode_dpa(dpa, sg)
        for coal in COALITIONS:
            arenas.append(imc.build_game(sg, sdpa, coal))
    return arenas


def test_attractor_to_choices_alone():
    # a target without positions: the first positions join by an edge
    # into its choices, and an opponent's first join on the choice layer
    # comes a step later than for a target with positions
    rng = random.Random(71)
    grew = 0
    for game in random_arenas(rng):
        for _ in range(3):
            region = trap_region(rng, game)
            target = random_subset(rng, game, region & game.v1)
            for player in (0, 1):
                got, _ = games.symbolic_attractor(game, player, target.node,
                                                  region.node)
                got = Bdd(game.store, got)
                assert got == textbook_attractor(game, player, target,
                                                 region)
                grew += not (got & game.v0).is_false()
    assert grew >= 60
    for _ in range(40):
        game = random_game(rng, rng.randint(1, 20))
        sym = helpers.encode_explicit_game(game)
        region = helpers.game_positions(sym, trap_region(rng, sym))
        chosen = {x for x in region if rng.random() < 0.3}
        lifted = helpers.lift_region(game, sym, region)
        # every choice of a chosen vertex within the region
        target = lifted & sym.v1 & helpers.points_bdd(
            sym.store, [sym.blocks[0][0]], [(x,) for x in chosen])
        for player in (0, 1):
            got, _ = games.symbolic_attractor(sym, player, target.node,
                                              lifted.node)
            got = Bdd(sym.store, got)
            assert got == textbook_attractor(sym, player, target, lifted)
            assert helpers.game_positions(sym, got) == \
                games.attractor(game, player, chosen, region)
