import random

import pytest

from atlstar import bench
from atlstar import cgs
from atlstar import dpa as dp
from atlstar import driver
from atlstar import formula as fm
from atlstar import games
from atlstar import infinite_mc as imc
from atlstar.bdd import TRUE
from atlstar.errors import ResourceError

import helpers
from test_games import (PATH_FORMULAS, assert_attractors_are_textbook,
                        random_arenas, random_subset)


def test_counter_response_attractor_steps_are_pinned():
    g = bench.gen_counter(bench.CounterParams(cap=100, mode="infinite"))
    res = driver.check(model=g, formula="<<a1>> G (p1 -> F counter_max)",
                       semantics="infinite")
    stats = res.details["subformulas"][0]
    assert stats["rounds"] == 101
    # the arena holds one relation, the product's, and no coalition
    # edges, pre-images are cut to their candidates after the product,
    # so steps share relational products, and a step takes one of them
    assert stats["nodes"] <= 2700


@pytest.mark.parametrize("mode, cap, text", [
    ("infinite", 100, "<<a1>> G (p1 -> F counter_max)"),
    ("finite", 35, "<<a2>> G !counter_max"),
], ids=["infinite", "finite"])
def test_one_relational_product_per_attractor_step(monkeypatch, mode, cap,
                                                   text):
    # an opponent's choice joins when it leaves the pre-image of the
    # rest, so a step takes one relational product (a pre-image whose
    # target has positions and whose cut has choices), and an attractor
    # one more for its seed
    counts = {"products": 0, "attractors": 0}
    pre, attractor = games.SymbolicParityGame._pre, games.symbolic_attractor

    def counting_pre(game, t, within=TRUE):
        if game.halves(t)[0] and game.halves(within)[1]:
            counts["products"] += 1
        return pre(game, t, within)

    def counting_attractor(*args):
        counts["attractors"] += 1
        return attractor(*args)

    monkeypatch.setattr(games.SymbolicParityGame, "_pre", counting_pre)
    monkeypatch.setattr(games, "symbolic_attractor", counting_attractor)
    g = bench.gen_counter(bench.CounterParams(cap=cap, steps=cap, mode=mode))
    res = driver.check(model=g, formula=text, semantics=mode)
    rounds = res.details["subformulas"][0]["rounds"]
    assert rounds == cap + 1
    assert counts["attractors"] >= 1
    assert counts["products"] <= rounds + counts["attractors"]


@pytest.mark.parametrize("cap", [10, 25])
def test_one_attractor_step_per_model_move(cap):
    # the counter climbs one value per model move, and each attractor
    # step adds a move's choices and then its positions; a last step
    # adds no position
    g = bench.gen_counter(bench.CounterParams(cap=cap, mode="infinite"))
    res = driver.check(model=g, formula="<<a1>> G (p1 -> F counter_max)",
                       semantics="infinite")
    assert res.details["subformulas"][0]["rounds"] == cap + 1
    g = bench.gen_counter(bench.CounterParams(cap=cap, steps=cap))
    res = driver.check(model=g, formula="<<a2>> G !counter_max",
                       semantics="finite")
    assert res.details["subformulas"][0]["rounds"] == cap + 1


def test_symbolic_pipeline_matches_explicit_on_random_models():
    rng = random.Random(37)
    for _ in range(15):
        g = helpers.random_cgs(rng, rng.randint(2, 6), finals=False)
        reachable = g.reachable_states()
        for text in PATH_FORMULAS:
            psi = fm.parse_formula(text)
            dpa, _ = dp.obtain_dpa(psi)
            store = cgs.make_store(g, cgs.bits_for(dpa.n_states))
            sg = cgs.encode_symbolic(g, store, reachable)
            sdpa = dp.encode_dpa(dpa, sg)
            for coal in ((), ("a",), ("a", "b")):
                exp = imc.winning_states_explicit(g, dpa, coal, reachable)
                sym = imc.winning_states(
                    sg, sdpa, imc.build_game(sg, sdpa, coal))
                assert sym == exp, (g.to_text(), text, coal)


def test_attractor_is_the_textbook_fixpoint_on_product_arenas():
    rng = random.Random(59)
    for text in PATH_FORMULAS:
        g = helpers.random_cgs(rng, rng.randint(2, 6), finals=False)
        dpa, _ = dp.obtain_dpa(fm.parse_formula(text))
        store = cgs.make_store(g, cgs.bits_for(dpa.n_states))
        sg = cgs.encode_symbolic(g, store, g.reachable_states())
        sdpa = dp.encode_dpa(dpa, sg)
        for coal in ((), ("a",), ("a", "b")):
            assert_attractors_are_textbook(
                rng, imc.build_game(sg, sdpa, coal), 3)


def random_codes(rng, game, count):
    """``count`` sets of random vertex-variable codes, most of which are
    no vertex."""
    blocks = helpers.vertex_blocks(game)
    return [helpers.points_bdd(game.store, blocks, [
        tuple(rng.randrange(1 << len(b)) for b in blocks)
        for _ in range(rng.randint(0, 12))]) for _ in range(count)]


def test_pre_exists_lies_within_the_vertices():
    # the move half of the pre-image is clipped to the vertices, and in
    # both arena builders every response starts at a choice vertex
    rng = random.Random(47)
    for game in random_arenas(rng):
        st = game.store
        targets = [st.true, game.v0, game.v1, game.vertices,
                   ~game.vertices, *game.priorities.values()]
        targets += random_codes(rng, game, 20)
        for x in targets:
            pre = helpers.pre_exists(game, x)
            assert (pre & ~game.vertices).is_false()


def test_pre_images_are_cut_after_the_product():
    # cutting a pre-image to ``within`` commutes with the product, and
    # codes that are no vertex have no predecessor
    rng = random.Random(61)
    for game in random_arenas(rng):
        st = game.store
        cuts = [st.false, game.v0, game.v1, game.vertices]
        cuts += [random_subset(rng, game, game.vertices) for _ in range(4)]
        codes = random_codes(rng, game, 6)
        targets = cuts + codes + [c | game.v0 for c in codes[:2]]
        targets += [st.true, ~game.vertices]
        for t in targets:
            pre = helpers.pre_exists(game, t)
            for w in cuts:
                assert helpers.pre_exists(game, t, w) == pre & w
            assert pre == helpers.pre_exists(game, t & game.vertices)


def test_explicit_game_region_cap(monkeypatch):
    # the cap fires inside explicit_arena, before any vertex is made
    rng = random.Random(43)
    g = helpers.random_cgs(rng, 6, finals=False)
    dpa, _ = dp.obtain_dpa(fm.parse_formula("G p"))
    monkeypatch.setattr(games, "REGION_CAP", 10)
    with pytest.raises(ResourceError,
                       match=r"explicit arena would have \d+ vertices "
                             r"\(cap 10\)"):
        games.explicit_arena(g, dpa, ("a",), g.reachable_states(),
                             dpa.priority)
