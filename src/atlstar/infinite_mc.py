"""Infinite-trace strategic checking via parity games.

The coalition and its opponents induce a two-player parity game on the
product of the game structure with a deterministic parity automaton for
the path formula.  Coalition vertices pick a joint coalition action,
opponent vertices resolve the remaining agents and advance the
automaton.  Acceptance is min-even throughout: player 0 wins a play iff
the minimal priority occurring infinitely often is even.

Zielonka's recursive attractor decomposition is implemented twice: on
an explicit arena (the oracle) and on the BDD node ids of a symbolic
arena, where attractors iterate pre-images (the default solver).  A
set-based small-progress-measures iteration on the same node ids is the
alternative symbolic solver.  Both symbolic solvers run on every
symbolic arena: those the checker builds and those that
``encode_explicit_game`` makes from explicit games for cross-checks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import cgs as cgsmod
from . import finite_mc
from .bdd import Bdd


class InfiniteMcError(Exception):
    pass


# ---------------------------------------------------------------------------
# Explicit parity games

@dataclass
class ExplicitGame:
    """Adjacency-list parity game; every vertex must have a successor."""

    owner: list        # vertex -> 0 or 1
    priority: list     # vertex -> non-negative int
    succ: list         # vertex -> list of successor ids
    names: list = None

    def n(self):
        return len(self.owner)

    def validate(self):
        for v, ss in enumerate(self.succ):
            if not ss:
                raise InfiniteMcError(f"vertex {v} has no successors")
            for w in ss:
                if not 0 <= w < self.n():
                    raise InfiniteMcError(f"vertex {v}: bad successor {w}")


def attractor(game, player, target, region):
    """Vertices in ``region`` from which ``player`` can force ``target``."""
    region = set(region)
    attr = set(target) & region
    pred = [[] for _ in range(game.n())]
    for v in region:
        for w in game.succ[v]:
            if w in region:
                pred[w].append(v)
    # count of escape edges for opponent vertices
    out = {
        v: sum(1 for w in game.succ[v] if w in region)
        for v in region if game.owner[v] != player
    }
    work = list(attr)
    while work:
        w = work.pop()
        for v in pred[w]:
            if v in attr:
                continue
            if game.owner[v] == player:
                attr.add(v)
                work.append(v)
            else:
                out[v] -= 1
                if out[v] == 0:
                    attr.add(v)
                    work.append(v)
    return attr


def solve_zielonka(game):
    """Full winning-region partition (W0, W1) by attractor decomposition."""
    game.validate()

    def solve(region):
        if not region:
            return set(), set()
        p = min(game.priority[v] for v in region)
        player = p % 2
        target = {v for v in region if game.priority[v] == p}
        a = attractor(game, player, target, region)
        w0, w1 = solve(region - a)
        win_opp = w1 if player == 0 else w0
        if not win_opp:
            full = set(region)
            return (full, set()) if player == 0 else (set(), full)
        b = attractor(game, 1 - player, win_opp, region)
        w0b, w1b = solve(region - b)
        if player == 0:
            return w0b, w1b | b
        return w0b | b, w1b

    return solve(set(range(game.n())))


def region_cap_check(n, cap=1 << 20):
    if n > cap:
        raise InfiniteMcError(
            f"explicit arena would have {n} vertices (cap {cap}); "
            "use the symbolic solver"
        )


def build_explicit_game(g, dpa, coalition, reachable=None):
    """Explicit product arena of a Cgs and a state-based min-even Dpa.

    Vertex keys are (q, s) for coalition positions and (q, s, move) for
    opponent positions, where ``move`` fixes the coalition's actions.
    ``reachable`` is the model's reachable state set, computed here when
    not given.  Returns (game, index map key -> vertex id).
    """
    coalition = tuple(coalition)
    others = [a for a in g.agents if a not in coalition]
    cidx = [g.agents.index(a) for a in coalition]
    oidx = [g.agents.index(a) for a in others]
    letters = [dpa.letter(g.labels[q]) for q in range(len(g.states))]

    import itertools
    coal_moves = list(itertools.product(
        *[range(len(g.actions[a])) for a in coalition]))
    opp_moves = list(itertools.product(
        *[range(len(g.actions[a])) for a in others]))

    if reachable is None:
        reachable = g.reachable_states()
    reach = sorted(reachable)
    region_cap_check(len(reach) * dpa.n_states * (1 + len(coal_moves)))

    ids = {}
    owner, priority, succ, names = [], [], [], []

    def get(key):
        if key not in ids:
            ids[key] = len(owner)
            owner.append(0 if len(key) == 2 else 1)
            priority.append(dpa.priority[key[1]])
            succ.append([])
            names.append(key)
        return ids[key]

    def joint(cmove, omove):
        ja = [0] * len(g.agents)
        for i, m in zip(cidx, cmove):
            ja[i] = m
        for i, m in zip(oidx, omove):
            ja[i] = m
        return tuple(ja)

    # per coalition move, the joint actions of all opponent responses
    joints = {m: [joint(m, o) for o in opp_moves] for m in coal_moves}

    # entry points: the automaton reads the label of the current state
    entry = {q: dpa.delta[(dpa.initial, letters[q])] for q in reach}
    work = [(q, entry[q]) for q in reach]
    for key in work:
        get(key)
    done = set()
    while work:
        key = work.pop()
        if key in done:
            continue
        done.add(key)
        v = ids[key]
        if len(key) == 2:
            q, s = key
            for m in coal_moves:
                t = (q, s, m)
                if t not in ids:
                    work.append(t)
                succ[v].append(get(t))
        else:
            q, s, m = key
            for ja in joints[m]:
                qq = g.transitions[(q, ja)]
                ss = dpa.delta[(s, letters[qq])]
                t = (qq, ss)
                if t not in ids:
                    work.append(t)
                succ[v].append(get(t))

    game = ExplicitGame(owner=owner, priority=priority, succ=succ,
                        names=names)
    return game, ids


def winning_states_explicit(g, dpa, coalition, reachable=None):
    """CGS states from which the coalition wins, by the explicit solver.

    ``reachable`` is the model's reachable state set, computed here when
    not given.
    """
    if reachable is None:
        reachable = g.reachable_states()
    game, ids = build_explicit_game(g, dpa, coalition, reachable)
    w0, _ = solve_zielonka(game)
    letters = {q: dpa.letter(g.labels[q]) for q in reachable}
    out = set()
    for q, a in letters.items():
        v = ids.get((q, dpa.delta[(dpa.initial, a)]))
        if v is not None and v in w0:
            out.add(q)
    return out


# ---------------------------------------------------------------------------
# PGSolver interchange format

def write_pgsolver(game):
    lines = [f"parity {game.n() - 1};"]
    for v in range(game.n()):
        ss = ",".join(str(w) for w in game.succ[v])
        name = ""
        if game.names:
            name = f' "{game.names[v]}"'
        lines.append(f"{v} {game.priority[v]} {game.owner[v]} {ss}{name};")
    return "\n".join(lines) + "\n"


def parse_pgsolver(text):
    owner, priority, succ, names = {}, {}, {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("parity"):
            continue
        line = line.rstrip(";")
        name = None
        if '"' in line:
            line, _, rest = line.partition('"')
            name = rest.rstrip('"')
        parts = line.split()
        if len(parts) != 4:
            raise InfiniteMcError(f"malformed pgsolver line: {raw!r}")
        v, p, o = int(parts[0]), int(parts[1]), int(parts[2])
        if o not in (0, 1):
            raise InfiniteMcError(f"vertex {v}: owner must be 0 or 1")
        owner[v] = o
        priority[v] = p
        succ[v] = [int(x) for x in parts[3].split(",")]
        names[v] = name
    if not owner:
        raise InfiniteMcError("empty parity game")
    n = max(owner) + 1
    if set(owner) != set(range(n)):
        raise InfiniteMcError("vertex ids must be contiguous from 0")
    game = ExplicitGame(
        owner=[owner[v] for v in range(n)],
        priority=[priority[v] for v in range(n)],
        succ=[succ[v] for v in range(n)],
        names=[names[v] for v in range(n)],
    )
    game.validate()
    return game


# ---------------------------------------------------------------------------
# Symbolic parity games

@dataclass
class SymbolicParityGame:
    """Arena over (layer, q, s, coalition actions) with primed copies."""

    store: object
    blocks: list         # (unprimed VarBlock, primed VarBlock) pairs in use
    v0: object           # coalition position vertices (layer 0)
    v1: object           # opponent choice vertices (layer 1)
    e: object            # edge relation over both copies
    priorities: dict     # p -> Bdd over unprimed vertex vars
    rounds: int = None   # iterations of the last solve: attractor steps
                         # (Zielonka) or lifting rounds (progress measures)

    @property
    def vertices(self):
        return self.v0 | self.v1

    def vertex_vars(self):
        out = []
        for b, _ in self.blocks:
            out.extend(b.vars)
        return out

    def primed_vars(self):
        out = []
        for _, bp in self.blocks:
            out.extend(bp.vars)
        return out

    def prime(self, f):
        return self.store.rename(f, [b for b, _ in self.blocks],
                                 [bp for _, bp in self.blocks])

    def pre_exists(self, target, within=None):
        """Vertices with some edge into ``target``, among ``within`` when
        given; both arena builders give every edge a source in
        ``vertices``."""
        e = self.e if within is None else self.e & within
        return self.store.and_exists(e, self.prime(target),
                                     self.primed_vars())


def _block_eq(store, b1, b2):
    parts = []
    for v1, v2 in zip(b1.vars, b2.vars):
        parts.append(store.apply("iff", store.var(v1), store.var(v2)))
    return store.big_and(parts)


def _zero(store, block):
    return store.cube(block, 0)


def build_game(sg, sdpa, coalition):
    """Parity-game arena for a coalition against a min-even DPA.

    The store must have been created with ``game=True`` so the layer bit
    and primed action blocks exist.  Coalition positions carry action
    value 0 as a normal form; priorities come from the automaton state
    on both layers.
    """
    st = sg.store
    coalition = tuple(coalition)
    try:
        l = st.block("l")
        lp = st.block("l'")
    except KeyError:
        raise InfiniteMcError("store lacks game blocks; build with game=True")

    members = [a for a in sg.g.agents if a in set(coalition)]
    ablocks = [st.block(cgsmod.action_block_name(a)) for a in members]
    apblocks = [st.block(cgsmod.action_block_name(a) + "'") for a in members]
    avars, avail = cgsmod.coalition_actions(sg, coalition)
    ovars = [v for a in sg.g.agents if a not in coalition
             for v in sg.action_blocks[a].vars]

    layer0 = ~st.var(l.vars[0])
    layer1 = st.var(l.vars[0])
    layer0p = ~st.var(lp.vars[0])
    layer1p = st.var(lp.vars[0])

    azero = st.big_and([_zero(st, b) for b in ablocks]) if ablocks else st.true
    azero_p = (st.big_and([_zero(st, b) for b in apblocks])
               if apblocks else st.true)
    avail_p = st.rename(avail, ablocks, apblocks)

    base = sg.valid & sdpa.valid
    v0 = layer0 & base & azero
    v1 = layer1 & base & avail

    eq_q = _block_eq(st, sg.q, st.block("q'"))
    eq_s = _block_eq(st, sdpa.s, st.block("s'"))
    eq_a = st.big_and([_block_eq(st, b, bp)
                       for b, bp in zip(ablocks, apblocks)]) \
        if ablocks else st.true

    # coalition picks an available joint action; position data unchanged
    e0 = v0 & layer1p & eq_q & eq_s & avail_p
    # opponents respond; the automaton reads the successor's label
    # (delta holds valid joint actions only, so no availability filter)
    move = st.exists(ovars, sg.delta) & sdpa.delta
    e1 = v1 & layer0p & azero_p & move

    # re-express e0 target actions: primed copy carries the chosen action
    e = e0 | e1

    blocks = [(l, lp), (sg.q, st.block("q'")), (sdpa.s, st.block("s'"))]
    blocks += list(zip(ablocks, apblocks))

    priorities = {}
    for p, pset in sdpa.priority_sets.items():
        cls = (v0 | v1) & pset
        if not cls.is_false():
            priorities[p] = cls

    return SymbolicParityGame(
        store=st, blocks=blocks, v0=v0, v1=v1, e=e, priorities=priorities,
    )


def encode_explicit_game(game, byte_budget=64 * 1024 * 1024):
    """Symbolic arena for an explicit game (for solver cross-checks)."""
    from .bdd import new_store
    from .cgs import bits_for

    game.validate()
    nb = bits_for(game.n())
    st = new_store([("v", nb), ("v'", nb)], byte_budget=byte_budget)
    v = st.block("v")
    vp = st.block("v'")
    v0 = st.from_points([v], [(x,) for x in range(game.n())
                              if game.owner[x] == 0])
    v1 = st.from_points([v], [(x,) for x in range(game.n())
                              if game.owner[x] == 1])
    e = st.from_points([v, vp], [(x, w) for x in range(game.n())
                                 for w in game.succ[x]])
    classes = {}
    for x in range(game.n()):
        classes.setdefault(game.priority[x], []).append((x,))
    priorities = {p: st.from_points([v], xs)
                  for p, xs in sorted(classes.items())}
    return SymbolicParityGame(
        store=st, blocks=[(v, vp)], v0=v0, v1=v1, e=e, priorities=priorities,
    )


# ---------------------------------------------------------------------------
# Set-based small progress measures

TOP = "top"


def _prog_value(value, p, odds, caps):
    """Least measure m with m >=_p value (strict when p is odd)."""
    if value is TOP:
        return TOP
    # components of odd priorities above p are reset
    k = bisect.bisect_right(odds, p)
    out = list(value[:k]) + [0] * (len(odds) - k)
    if p % 2 == 0:
        return tuple(out)
    # strict increase on the components up to and including p
    i = k - 1
    while i >= 0:
        if out[i] < caps[i]:
            out[i] += 1
            return tuple(out)
        out[i] = 0
        i -= 1
    return TOP


def _lift(game):
    """Worklist lifting on the store node ids of a symbolic arena.

    Returns the final partition (value -> vertex set) and the number of
    rounds.  Round 1 lifts every vertex; each later round lifts only the
    predecessors of the vertices whose value changed in the round before,
    and the first round that changes nothing is the last.
    """
    st = game.store
    # node-level operations skip the handle checks of the Bdd API;
    # node 0 is the empty set
    and_, or_, not_ = st._and, st._or, st._not
    v0, v1 = game.v0.node, game.v1.node
    priorities = {p: s.node for p, s in game.priorities.items()}
    pre_cache = {}

    def pre(t):
        """Vertices with an edge into t; sets recur, so this caches."""
        hit = pre_cache.get(t)
        if hit is None:
            hit = pre_cache[t] = game.pre_exists(Bdd(st, t)).node
        return hit

    odds = sorted(p for p in priorities if p % 2 == 1)
    vertex_vars = game.vertex_vars()
    caps = [int(st.sat_count(game.priorities[p], vertex_vars)) for p in odds]
    memo = {}           # (value, priority) -> progressed value

    lift = or_(v0, v1)
    measure = {(0,) * len(odds): lift}      # value -> vertex set
    rounds = 0
    while True:
        rounds += 1
        # no operation is in flight between rounds
        st.trim_cache()

        # best successor value per lifted vertex: the first class hit by
        # an ascending scan for player 0, by a descending one for player 1
        ordered = sorted(measure.items(), key=lambda c: (c[0] is TOP, c[0]))
        best = []
        for owner, scan in ((v0, ordered), (v1, ordered[::-1])):
            todo = and_(owner, lift)
            for value, sset in scan:
                if not todo:
                    break
                got = and_(todo, pre(sset))
                if got:
                    best.append((value, got))
                    todo = and_(todo, not_(got))

        # progress step per own priority
        lifted = {}         # new value -> lifted vertices that get it
        for value, sset in best:
            for p, pset in priorities.items():
                part = and_(sset, pset)
                if part:
                    nv = memo.get((value, p))
                    if nv is None:
                        nv = memo[value, p] = _prog_value(value, p, odds, caps)
                    lifted[nv] = or_(lifted.get(nv, 0), part)
        changed = 0
        for value, sset in lifted.items():
            changed = or_(changed, and_(sset, not_(measure.get(value, 0))))
        # take the changed vertices out of their old classes, searched
        # from the top, where vertices that keep climbing sit
        moved = changed
        for value, sset in reversed(ordered):
            if not moved:
                break
            out = and_(sset, moved)
            if out:
                measure[value] = and_(sset, not_(out))
                moved = and_(moved, not_(out))
        for value, sset in lifted.items():
            measure[value] = or_(measure.get(value, 0), sset)
        measure = {value: s for value, s in measure.items() if s}
        if not changed:
            return measure, rounds
        lift = pre(changed)


def solve_progress_measure(game):
    """Winning region of player 0 by set-based small progress measures.

    The measure assignment is kept as a partition of the vertex set into
    value classes.  A lifting round gives a vertex the progress step,
    for its own priority, of its best successor value (least for player
    0, greatest for player 1) under the previous round's assignment.
    Only vertices with a successor whose value changed in the previous
    round are lifted again: any other vertex would get the value it
    already has, so the rounds are those of a full sweep.  Measures only
    rise in a finite lattice, so the iteration always ends.  Returns
    (w0, w1) vertex BDDs and leaves the round count in ``game.rounds``.
    """
    measure, game.rounds = _lift(game)
    w1 = Bdd(game.store, measure.get(TOP, 0))
    return game.vertices & ~w1, w1


# ---------------------------------------------------------------------------
# Symbolic Zielonka

def _attractor(game, player, target, region):
    """Vertices of ``region`` from which ``player`` forces a visit to
    ``target`` (a subset of ``region``), on node ids.  Only edges inside
    ``region`` count.  Returns (attractor, iterations).

    The attractor grows from its last frontier: a vertex of ``player``
    joins when it has an edge into the frontier, and an opponent vertex
    whose edge into the frontier makes it a candidate joins when it has
    no edge left into the rest of the region.  An opponent vertex that
    stays out is a candidate again once its last escape joins.
    """
    st = game.store
    and_, or_, not_ = st._and, st._or, st._not
    own, opp = (game.v1.node, game.v0.node) if player else \
        (game.v0.node, game.v1.node)

    def pre(t, within=None):
        if within is not None:
            within = Bdd(st, within)
        return game.pre_exists(Bdd(st, t), within).node

    attr = frontier = target
    steps = 0
    while frontier:
        steps += 1
        # no operation is in flight between steps
        st.trim_cache()
        reach = and_(pre(frontier), and_(region, not_(attr)))
        grab = and_(reach, own)
        attr = or_(attr, grab)
        cand = and_(reach, opp)
        if cand:
            rest = and_(region, not_(attr))
            forced = and_(cand, not_(pre(rest, cand))) if rest else cand
            attr = or_(attr, forced)
            grab = or_(grab, forced)
        frontier = grab
    return attr, steps


def solve_symbolic_zielonka(game):
    """Winning regions (w0, w1) of a symbolic arena by Zielonka's
    attractor decomposition.

    A region's least priority p names its player; that player's
    attractor to the p-vertices is cut off and the rest solved.  If the
    opponent wins nothing there, the player wins the region; otherwise
    the opponent's attractor to what it won is the opponent's, and the
    loop goes on with the region without it.  The first recursive call
    loses the least priority, so the recursion is no deeper than the
    number of priorities.  Leaves the total attractor iterations in
    ``game.rounds``.
    """
    st = game.store
    and_, or_, not_ = st._and, st._or, st._not
    prios = sorted((p, s.node) for p, s in game.priorities.items())
    steps = 0

    def attractor(player, target, region):
        nonlocal steps
        attr, n = _attractor(game, player, target, region)
        steps += n
        return attr

    def solve(region):
        won = [0, 0]
        while region:
            p, pset = next((p, s) for p, s in prios if and_(region, s))
            player = p % 2
            a = attractor(player, and_(region, pset), region)
            lost = solve(and_(region, not_(a)))[1 - player]
            if not lost:
                won[player] = or_(won[player], region)
                break
            b = attractor(1 - player, lost, region)
            won[1 - player] = or_(won[1 - player], b)
            region = and_(region, not_(b))
        return won

    w0, w1 = solve(game.vertices.node)
    game.rounds = steps
    return Bdd(st, w0), Bdd(st, w1)


SOLVERS = {"zielonka": solve_symbolic_zielonka,
           "progress": solve_progress_measure}


def winning_states(sg, sdpa, coalition, game=None, *, solver):
    """CGS state ids from which the coalition wins, symbolically;
    ``solver`` names a key of ``SOLVERS`` (the driver's default is
    ``CheckRequest.solver``)."""
    if game is None:
        game = build_game(sg, sdpa, coalition)
    st = sg.store
    w0, _ = SOLVERS[solver](game)

    # a state's position vertex holds the automaton state entered on
    # its own label
    pos = w0 & game.v0 & finite_mc.entry_relation(sg, sdpa) & sg.reach
    other_vars = [x for b, _ in game.blocks if b is not sg.q
                  for x in b.vars]
    states = st.exists(other_vars, pos)
    return set(st.minterms(states & sg.valid, sg.q))
