import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlstar.bdd import (FALSE, TRUE, Bdd, BddError, BddStore,
                         BudgetExceeded, VarBlock)

from helpers import audit_reduced, compose, cube, points_bdd


def fresh(nvars=6):
    return BddStore([("x", nvars)])


OPERATORS = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


def random_bdd(store, block, rng, depth=4):
    if depth == 0 or rng.random() < 0.2:
        choice = rng.random()
        if choice < 0.1:
            return store.true
        if choice < 0.2:
            return store.false
        return store.var(rng.choice(block.vars))
    op = rng.choice(["and", "or", "xor", "not"])
    a = random_bdd(store, block, rng, depth - 1)
    if op == "not":
        return ~a
    b = random_bdd(store, block, rng, depth - 1)
    return OPERATORS[op](a, b)


def truth_table(store, f, vars_):
    rows = []
    for bits in itertools.product([False, True], repeat=len(vars_)):
        rows.append(store.evaluate(f, dict(zip(vars_, bits))))
    return tuple(rows)


def test_canonicity_random_pairs():
    store = fresh(8)
    block = store.block("x")
    rng = random.Random(42)
    for _ in range(2000):
        f = random_bdd(store, block, rng)
        g = random_bdd(store, block, rng)
        same = truth_table(store, f, block.vars) == \
            truth_table(store, g, block.vars)
        assert (f == g) == same


def test_operators_match_truth_tables():
    store = fresh(6)
    block = store.block("x")
    rng = random.Random(7)
    ops = {
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "xor": lambda a, b: a != b,
    }
    for _ in range(300):
        f = random_bdd(store, block, rng)
        g = random_bdd(store, block, rng)
        tf = truth_table(store, f, block.vars)
        tg = truth_table(store, g, block.vars)
        for op, fn in ops.items():
            h = OPERATORS[op](f, g)
            assert truth_table(store, h, block.vars) == \
                tuple(fn(a, b) for a, b in zip(tf, tg))
        assert truth_table(store, ~f, block.vars) == \
            tuple(not a for a in tf)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_binary_kernels_are_their_ite_triples(seed):
    store = fresh(6)
    block = store.block("x")
    rng = random.Random(seed)
    f, g = random_bdd(store, block, rng), random_bdd(store, block, rng)
    a, b = f.node, g.node
    tf = truth_table(store, f, block.vars)
    tg = truth_table(store, g, block.vars)
    kernels = [
        (store._and, (a, b, FALSE), lambda x, y: x and y),
        (store._or, (a, TRUE, b), lambda x, y: x or y),
        (store._diff, (b, FALSE, a), lambda x, y: x and not y),
    ]
    for kernel, triple, fn in kernels:
        r = kernel(a, b)
        assert r == store._ite(*triple)
        assert truth_table(store, Bdd(store, r), block.vars) == \
            tuple(fn(x, y) for x, y in zip(tf, tg))
    # one normalised entry per commutative pair: the swapped operands
    # hit it and make nothing
    for kernel, key in ((store._and, (min(a, b), max(a, b), FALSE)),
                        (store._or, (min(a, b), TRUE, max(a, b)))):
        r = kernel(a, b)
        if a > 1 and b > 1 and a != b:
            assert store._ite_cache[key] == r
        entries, nodes = len(store._ite_cache), store.node_count()
        assert kernel(b, a) == r
        assert (len(store._ite_cache), store.node_count()) == \
            (entries, nodes)
    if a > 1 and b > 1 and a != b:
        assert store._ite_cache[(b, FALSE, a)] == store._diff(a, b)
    assert audit_reduced(store)


def test_ite_terminal_cases():
    store = fresh(4)
    x = store.var(0).node
    y = store.var(1).node
    assert store._ite(TRUE, x, y) == x
    assert store._ite(FALSE, x, y) == y
    assert store._ite(x, TRUE, FALSE) == x
    assert store._ite(x, y, y) == y


def test_exists_matches_truth_tables():
    store = fresh(6)
    block = store.block("x")
    rng = random.Random(13)
    for _ in range(200):
        f = random_bdd(store, block, rng)
        vs = rng.sample(block.vars, rng.randint(1, 3))
        ex = store.exists(vs, f)
        # ex holds at an assignment iff f holds at one that differs
        # from it only on vs
        for bits in itertools.product([False, True], repeat=len(block.vars)):
            at = dict(zip(block.vars, bits))
            want = any(store.evaluate(f, {**at, **dict(zip(vs, vals))})
                       for vals in itertools.product([False, True],
                                                     repeat=len(vs)))
            assert store.evaluate(ex, at) == want
    with pytest.raises(BddError, match="not in store"):
        store.exists([store.nvars], store.true)


def test_and_exists_is_relational_product():
    store = fresh(6)
    block = store.block("x")
    rng = random.Random(99)
    for _ in range(200):
        f = random_bdd(store, block, rng)
        g = random_bdd(store, block, rng)
        vs = rng.sample(block.vars, rng.randint(1, 3))
        assert store.and_exists(f, g, vs) == store.exists(vs, f & g)


def test_rename_is_a_swap():
    store = BddStore([("a", 3), ("a'", 3)])
    a = store.block("a")
    ap = store.block("a'")
    rng = random.Random(5)
    for _ in range(100):
        f = random_bdd(store, a, rng)
        assert store.rename(store.rename(f, a, ap), ap, a) == f


def test_evaluate_and_minterms():
    store = fresh(4)
    block = store.block("x")
    f = cube(store, block, 5) | cube(store, block, 9)
    assert store.minterms(f, block) == [5, 9]
    assert store.sat_count(f, block) == 2


def test_sat_count_rejects_free_variables():
    store = BddStore([("a", 2), ("b", 2)])
    f = store.var(store.block("b").vars[0])
    with pytest.raises(BddError):
        store.sat_count(f, store.block("a"))


def test_audit_reduced():
    store = fresh(6)
    block = store.block("x")
    rng = random.Random(21)
    for _ in range(50):
        random_bdd(store, block, rng)
    assert audit_reduced(store)


def memo_entries(store):
    """Quantification and renaming results the computed table holds."""
    return sum(map(len, store._memos.values()))


def test_trim_cache_bounds_the_computed_table():
    # few variables, many operations: more cached results than nodes
    store = BddStore([("x", 3), ("x'", 3)])
    block, primed = store.block("x"), store.block("x'")
    rng = random.Random(23)
    fs = [random_bdd(store, block, rng, depth=6) for _ in range(40)]
    want = [f & g for f in fs for g in fs]
    assert len(store._ite_cache) > 4 * store.node_count()
    store.trim_cache()
    assert len(store._ite_cache) == 0
    assert [f & g for f in fs for g in fs] == want
    # below the bound the table stays
    store.trim_cache()
    fs[0] | fs[1]
    assert 0 < len(store._ite_cache) <= 4 * store.node_count()
    store.trim_cache()
    assert len(store._ite_cache) > 0
    # the quantification and renaming memos are bounded the same way
    var_sets = [vs for k in (1, 2, 3)
                for vs in itertools.combinations(block.vars, k)]

    def products():
        return [store.and_exists(f, g, vs)
                for vs in var_sets for f in fs for g in fs]

    want = products()
    renamed = [store.rename(f, block, primed) for f in fs]
    assert memo_entries(store) > 4 * store.node_count()
    store.trim_cache()
    assert memo_entries(store) == 0
    assert products() == want
    assert [store.rename(f, block, primed) for f in fs] == renamed
    store.trim_cache()
    store.exists(var_sets[0], fs[0])
    assert 0 < memo_entries(store) <= 4 * store.node_count()
    store.trim_cache()
    assert memo_entries(store) > 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 8),
       after=st.integers(1, 12), other=st.integers(0, 2**32 - 1))
def test_release_drops_exactly_the_nodes_after_the_mark(seed, before, after,
                                                        other):
    store = BddStore([("x", 3), ("x'", 3)])
    x, xp = store.block("x"), store.block("x'")
    block = VarBlock("all", tuple(range(store.nvars)))
    rng = random.Random(seed)
    kept = [random_bdd(store, block, rng, depth=5) for _ in range(before)]
    kept_tables = [truth_table(store, f, block.vars) for f in kept]
    mark = store.node_count()
    later = rng.random()

    def operations():
        r = random.Random(later)
        fs = [random_bdd(store, block, r, depth=5) for _ in range(after)]
        # results that pair kept and new nodes, a quantification, a
        # relational product and a relabelling
        fs += [f ^ g for f, g in zip(kept, fs)]
        # the binary kernels on kept and new nodes
        fs += [h for f, g in zip(kept, fs[::-1])
               for h in (f & g, f | g,
                         Bdd(store, store._diff(f.node, g.node)))]
        fs.append(store.exists([block.vars[0]], fs[0]))
        fs.append(store.and_exists(fs[0], fs[-2], xp))
        fs.append(store.rename(store.exists(xp, fs[-3]), x, xp))
        # a stale table entry can make a node point at a missing or
        # shallower child, which evaluation would follow forever
        assert max(f.node for f in fs) < store.node_count()
        assert audit_reduced(store)
        return [truth_table(store, f, block.vars) for f in fs]

    want = operations()
    store.release(mark)
    assert store.node_count() == mark
    assert audit_reduced(store)
    assert store._unique == {(store._var[n], store._lo[n], store._hi[n]): n
                             for n in range(2, mark)}
    assert [truth_table(store, f, block.vars) for f in kept] == kept_tables
    # other work takes the released ids before the operations are redone
    r = random.Random(other)
    for _ in range(after):
        random_bdd(store, block, r, depth=5)
    assert operations() == want
    assert audit_reduced(store)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 12),
       after=st.integers(0, 12), again=st.integers(0, 12))
def test_release_keeps_the_unique_table_of_the_kept_nodes(seed, before,
                                                          after, again):
    # fewer or more nodes go than stay, and a second release to the same
    # mark follows the first, with or without work between them
    store = BddStore([("x", 3), ("x'", 3)])
    block = VarBlock("all", tuple(range(store.nvars)))
    rng = random.Random(seed)
    kept = [random_bdd(store, block, rng, depth=5) for _ in range(before)]
    kept_tables = [truth_table(store, f, block.vars) for f in kept]
    mark = store.node_count()

    def unique_of_kept():
        return {(store._var[n], store._lo[n], store._hi[n]): n
                for n in range(2, mark)}

    made = [random_bdd(store, block, rng, depth=5) for _ in range(after)]
    made_tables = [truth_table(store, f, block.vars) for f in made]
    for extra in (0, again):
        for _ in range(extra):
            random_bdd(store, block, rng, depth=5)
        store.release(mark)
        assert store.node_count() == mark
        assert store._unique == unique_of_kept()
        assert audit_reduced(store)
    assert [truth_table(store, f, block.vars) for f in kept] == kept_tables
    # the released functions are made again, to canonical nodes
    rng = random.Random(seed)
    again_made = [random_bdd(store, block, rng, depth=5)
                  for _ in range(before + after)][before:]
    assert [truth_table(store, f, block.vars)
            for f in again_made] == made_tables
    assert len(store._unique) == store.node_count() - 2
    assert audit_reduced(store)


def test_computed_table_matches_a_fresh_store():
    # results that the computed table keeps across calls and trims must
    # be those of a store that computes each operation from scratch
    layout = [("a", 1), ("a'", 1), ("b", 1), ("b'", 1)]
    store = BddStore(layout)
    allvars = VarBlock("all", tuple(range(store.nvars)))
    a, ap, b = (store.block(n).vars for n in ("a", "a'", "b"))
    # operands read every variable (renames compose the swap) or one
    # side of each pair (renames relabel)
    reads = [allvars, VarBlock("ab", a + b), VarBlock("a'b", ap + b)]
    var_sets = [vs for k in (1, 2)
                for vs in itertools.combinations(allvars.vars, k)]
    renames = [(["a"], ["a'"]), (["a", "b"], ["a'", "b'"]), (["b'"], ["b"])]
    rng = random.Random(31)
    # operands recur, so results outnumber nodes and some trims clear
    pool = [random_bdd(store, rng.choice(reads), rng, depth=5)
            for _ in range(24)]
    cleared = 0

    def rebuild(ref, f):
        def holds(x):
            return store.evaluate(
                f, {v: bool(x >> v & 1) for v in allvars.vars})

        return ref.from_points(
            [allvars], [[x for x in range(1 << store.nvars) if holds(x)]])

    for _ in range(3000):
        kind = rng.choice(["exists", "forall", "and_exists", "rename"])
        f, g = rng.choice(pool), rng.choice(pool)
        vs = rng.choice(var_sets)
        src, dst = rng.choice(renames)
        ref = BddStore(layout)
        fr, gr = rebuild(ref, f), rebuild(ref, g)
        if kind == "exists":
            got, want = store.exists(vs, f), ref.exists(vs, fr)
        elif kind == "forall":  # by duality
            got, want = ~store.exists(vs, ~f), ~ref.exists(vs, ~fr)
        elif kind == "and_exists":
            got, want = store.and_exists(f, g, vs), ref.and_exists(fr, gr, vs)
        else:
            got = store.rename(f, [store.block(n) for n in src],
                               [store.block(n) for n in dst])
            want = ref.rename(fr, [ref.block(n) for n in src],
                              [ref.block(n) for n in dst])
        assert truth_table(store, got, allvars.vars) == \
            truth_table(ref, want, allvars.vars), kind
        if rng.random() < 0.1:
            pool.append(got)
        if rng.random() < 0.2:
            held = memo_entries(store)
            store.trim_cache()
            cleared += held > 0 and memo_entries(store) == 0
    assert audit_reduced(store)
    # some trims cleared the memos, and some calls ran after them
    assert cleared >= 2


def test_release_bounds():
    store = fresh(6)
    block = store.block("x")
    with pytest.raises(BddError, match="mark"):
        store.release(1)
    with pytest.raises(BddError, match="mark"):
        store.release(store.node_count() + 1)
    # fewer nodes go than stay, then more
    f = cube(store, block, 5) | cube(store, block, 9)
    for extra in (1, 40):
        mark = store.node_count()
        for i in range(extra):
            cube(store, block, i)
        store.release(mark)
        assert store.node_count() == mark
        assert cube(store, block, 5) | cube(store, block, 9) == f
    store.release(store.node_count())
    assert audit_reduced(store)


def test_budget_exceeded():
    store = BddStore([("x", 24)], byte_budget=20_000)
    block = store.block("x")
    with pytest.raises(BudgetExceeded):
        acc = store.false
        for i in range(1 << 12):
            acc = acc | cube(store, block, i * 7919 % (1 << 24))


def test_cross_store_mixing_rejected():
    s1 = fresh(3)
    s2 = fresh(3)
    with pytest.raises(BddError):
        s1.true & s2.true


def nodes_below(store, f):
    """Non-terminal nodes reachable from f."""
    seen = set()
    stack = [f.node]
    while stack:
        n = stack.pop()
        if n > 1 and n not in seen:
            seen.add(n)
            stack += [store._lo[n], store._hi[n]]
    return len(seen)


@st.composite
def point_sets(draw):
    """A store layout (some blocks with a primed partner, so bits
    interleave), a subset of its blocks in any order, and points over it."""
    layout = []
    room = 8          # variables in all, so the truth table stays small
    for i in range(draw(st.integers(1, 3))):
        if room == 0:
            break
        width = draw(st.integers(1, min(3, room)))
        layout.append((f"b{i}", width))
        room -= width
        if width <= room and draw(st.booleans()):
            layout.append((f"b{i}'", width))
            room -= width
    names = draw(st.permutations([name for name, _ in layout]))
    names = names[:draw(st.integers(1, len(names)))]
    widths = dict(layout)
    point = st.tuples(*[st.integers(0, (1 << widths[n]) - 1) for n in names])
    return layout, names, draw(st.lists(point, max_size=12))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_from_points_is_the_disjunction_of_cubes(case):
    layout, names, points = case
    store = BddStore(layout)
    blocks = [store.block(n) for n in names]
    before = store.node_count()
    f = points_bdd(store, blocks, points)
    # every node the constructor made is a node of the result
    assert store.node_count() - before == nodes_below(store, f)
    assert f == store.big_or([
        store.big_and([cube(store, b, x) for b, x in zip(blocks, p)])
        for p in points
    ])
    # the same function, read off variable by variable
    allvars = range(store.nvars)
    wanted = set(points)
    for bits in itertools.product([False, True], repeat=store.nvars):
        env = dict(zip(allvars, bits))
        point = tuple(sum(env[v] << i for i, v in enumerate(b.vars))
                      for b in blocks)
        assert store.evaluate(f, env) == (point in wanted)


@st.composite
def wide_point_sets(draw):
    """Like point_sets, over up to 16 variables and a few hundred points
    with duplicates, so that both the truth tables of the deepest
    variables and the fold above them do work."""
    layout = []
    room = 16
    for i in range(draw(st.integers(1, 4))):
        if room == 0:
            break
        width = draw(st.integers(1, min(6, room)))
        layout.append((f"b{i}", width))
        room -= width
        if width <= room and draw(st.booleans()):
            layout.append((f"b{i}'", width))
            room -= width
    names = draw(st.permutations([name for name, _ in layout]))
    names = names[:draw(st.integers(1, len(names)))]
    widths = dict(layout)
    point = st.tuples(*[st.integers(0, (1 << widths[n]) - 1) for n in names])
    points = draw(st.lists(point, min_size=1, max_size=300))
    points += draw(st.lists(st.sampled_from(points), max_size=40))
    return layout, names, draw(st.permutations(points)), draw(st.randoms())


@settings(max_examples=60, deadline=None)
@given(wide_point_sets())
def test_from_points_on_wide_point_sets(case):
    layout, names, points, rng = case
    store = BddStore(layout)
    blocks = [store.block(n) for n in names]
    before = store.node_count()
    f = points_bdd(store, blocks, points)
    assert store.node_count() - before == nodes_below(store, f)
    assert points_bdd(store, blocks, points[::-1]) == f
    assert store.node_count() - before == nodes_below(store, f)
    assert f == store.big_or([
        store.big_and([cube(store, b, x) for b, x in zip(blocks, p)])
        for p in points
    ])
    # every point holds whatever the free variables are, and sampled
    # assignments hold exactly where they spell a point
    wanted = set(points)
    envs = [{v: rng.random() < 0.5 for v in range(store.nvars)}
            for _ in range(len(points) + 64)]
    for p, env in zip(points, envs):
        for b, x in zip(blocks, p):
            env.update((v, bool(x >> i & 1)) for i, v in enumerate(b.vars))
    for env in envs:
        point = tuple(sum(env[v] << i for i, v in enumerate(b.vars))
                      for b in blocks)
        assert store.evaluate(f, env) == (point in wanted)
    assert audit_reduced(store)


def test_from_points_hits_the_budget():
    # scattered keys share few nodes: the fold above the truth tables
    # makes more nodes than the smallest budget allows
    store = BddStore([("x", 20)], byte_budget=1)
    rng = random.Random(7)
    values = [rng.randrange(1 << 20) for _ in range(3000)]
    with pytest.raises(BudgetExceeded, match="budget exceeded"):
        store.from_points([store.block("x")], [values])
    assert store.node_count() == store.max_nodes
    assert audit_reduced(store)


def test_from_points_empty_and_out_of_range():
    store = BddStore([("a", 2), ("b", 3)])
    a, b = store.block("a"), store.block("b")
    before = store.node_count()
    assert store.from_points([a, b], [[], []]) == store.false
    assert store.node_count() == before
    for bad in [(4, 0), (0, 8), (-1, 0)]:
        with pytest.raises(BddError, match="does not fit"):
            points_bdd(store, [a, b], [(0, 0), bad])
    assert store.from_points([a, b], [[]], product=[range(0)]) == store.false
    assert store.node_count() == before
    for columns in ([[1]], [[1], [0], [0]], [[1, 2], [0]]):
        with pytest.raises(BddError, match="as many columns of one length"):
            store.from_points([a, b], columns)
    # a product of 3 points needs columns of 3 values, for the blocks
    # the product leaves
    for columns, product in (([[1, 2]], [range(3)]), ([], [range(3)]),
                             ([[0, 1, 2], [0, 1, 2]], [range(3)])):
        with pytest.raises(BddError, match="one length, .* product of 3"):
            store.from_points([a, b], columns, product=product)
    with pytest.raises(BddError, match="share variables"):
        store.from_points([a, a], [[1], [1]])


@st.composite
def relations(draw):
    """A model relation's shape: 1-3 agents, each with an action count
    whose block may be wider than it needs (padded), states whose block
    may be padded too, and a successor per (state, joint action) drawn
    from few states, so successors repeat."""
    n_states = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    pad = st.integers(0, 1)
    q_width = max(1, (n_states - 1).bit_length()) + draw(pad)
    widths = [max(1, (k - 1).bit_length()) + draw(pad) for k in counts]
    rows = n_states * math.prod(counts)
    targets = draw(st.integers(1, n_states))
    successors = draw(st.lists(st.integers(0, targets - 1), min_size=rows,
                               max_size=rows))
    return n_states, counts, q_width, widths, successors


@settings(max_examples=150, deadline=None)
@given(relations())
def test_from_points_product_is_the_per_column_form(case):
    n_states, counts, q_width, widths, successors = case
    store = BddStore([("q", q_width), ("q'", q_width)]
                     + [(f"a{i}", w) for i, w in enumerate(widths)])
    q, qn = store.block("q"), store.block("q'")
    actions = [store.block(f"a{i}") for i in range(len(counts))]
    blocks = [q] + actions + [qn]
    ranges = [range(n_states)] + [range(k) for k in counts]
    f = store.from_points(blocks, [successors], product=ranges)
    # the per-column form spells out every row's source and actions,
    # and finds every node already made
    made = store.node_count()
    rows = list(itertools.product(*ranges))
    columns = [list(c) for c in zip(*rows)] + [successors]
    assert store.from_points(blocks, columns) == f
    assert store.node_count() == made
    assert audit_reduced(store)
    # a value too wide for its block names the block, whether it is in
    # the product or in a column
    for i, blk in enumerate(blocks[:-1]):
        wide = ranges[:i] + [range((1 << len(blk)) + 1)] + ranges[i + 1:]
        with pytest.raises(BddError,
                           match=f"does not fit in block {blk.name}$"):
            store.from_points(blocks, [[0] * math.prod(map(len, wide))],
                              product=wide)
    too_wide = successors[:-1] + [1 << q_width]
    with pytest.raises(BddError, match="does not fit in block q'$"):
        store.from_points(blocks, [too_wide], product=ranges)


# a, a' and b, b' are interleaved partner pairs; c, c' are not (d sits
# between them), so no swap of c with c' keeps an order with d
RENAME_LAYOUT = [("a", 2), ("a'", 2), ("b", 1), ("b'", 1),
                 ("c", 2), ("d", 1), ("c'", 2)]
RENAME_PAIRS = [("a", "a'"), ("b", "b'"), ("c", "c'")]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       reads=st.sets(st.sampled_from([n for n, _ in RENAME_LAYOUT]),
                     min_size=1),
       pairs=st.sets(st.sampled_from(range(len(RENAME_PAIRS))), min_size=1),
       backwards=st.booleans())
def test_rename_equals_the_composed_swap(seed, reads, pairs, backwards):
    # f reads the blocks in ``reads``: one side of a pair (the direct
    # relabel), both partners (the composed fallback) or neither
    store = BddStore(RENAME_LAYOUT)
    reads = VarBlock("reads", tuple(v for n in sorted(reads)
                                    for v in store.block(n).vars))
    f = random_bdd(store, reads, random.Random(seed), depth=5)
    src = [store.block(RENAME_PAIRS[i][0]) for i in sorted(pairs)]
    dst = [store.block(RENAME_PAIRS[i][1]) for i in sorted(pairs)]
    if backwards:
        src, dst = dst, src
    sub = {}
    for fb, tb in zip(src, dst):
        for x, y in zip(fb.vars, tb.vars):
            sub[x] = store.var(y)
            sub[y] = store.var(x)
    got = store.rename(f, src, dst)
    assert got == compose(store, f, sub)
    assert store.rename(got, dst, src) == f
    if len(src) == 1:
        assert store.rename(f, src[0], dst[0]) == got
    assert audit_reduced(store)


def test_rename_rejects_mismatched_blocks():
    store = BddStore([("a", 2), ("b", 3)])
    a, b = store.block("a"), store.block("b")
    with pytest.raises(BddError, match="mismatch"):
        store.rename(store.true, a, b)
    with pytest.raises(BddError, match="as many"):
        store.rename(store.true, [a], [a, b])
