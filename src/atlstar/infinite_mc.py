"""Infinite-trace strategic checking via parity games.

The coalition and its opponents induce a two-player parity game on the
product of the game structure with a deterministic parity automaton for
the path formula.  Coalition vertices pick a joint coalition action,
opponent vertices resolve the remaining agents and advance the
automaton.  Acceptance is min-even throughout: player 0 wins a play iff
the minimal priority occurring infinitely often is even.

Zielonka's recursive attractor decomposition is implemented twice: on
an explicit arena (the oracle) and on the BDD node ids of a symbolic
arena, where attractors iterate pre-images.  The symbolic solver runs
on every symbolic arena: those the checker builds and those that
``encode_explicit_game`` makes from explicit games for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cgs as cgsmod
from . import finite_mc
from .bdd import Bdd
from .errors import InputError, ResourceError


class InfiniteMcError(InputError):
    """A malformed parity game."""


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
        raise ResourceError(
            f"explicit arena would have {n} vertices (cap {cap}); "
            "use the symbolic solver"
        )


def build_explicit_game(g, dpa, coalition, reachable=None):
    """Explicit parity arena of a Cgs and a state-based min-even Dpa.

    Each node (q, s) of ``finite_mc.explicit_product`` is a coalition
    vertex, with the same id, and has one opponent vertex per coalition
    move, whose successors are the nodes that the other agents' responses
    reach; every vertex carries its automaton state's priority.
    ``reachable`` is the model's reachable state set, computed here when
    not given.  Returns (game, entry), ``entry`` mapping each reachable
    state to the vertex it enters the arena at.
    """
    if reachable is None:
        reachable = g.reachable_states()
    n_moves = math.prod(len(g.actions[a]) for a in coalition)
    region_cap_check(len(reachable) * dpa.n_states * (1 + n_moves))
    nodes, entry, moves = finite_mc.explicit_product(
        g, dpa, coalition, reachable)
    n = len(nodes)
    prio = [dpa.priority[s] for _, s in nodes]
    game = ExplicitGame(
        owner=[0] * n + [1] * (n * n_moves),
        priority=prio + [p for p in prio for _ in range(n_moves)],
        succ=[list(range(n + v * n_moves, n + (v + 1) * n_moves))
              for v in range(n)]
        + [list(succ) for per_move in moves for succ in per_move],
    )
    return game, entry


def winning_states_explicit(g, dpa, coalition, reachable=None):
    """CGS states from which the coalition wins, by the explicit solver.

    ``reachable`` is the model's reachable state set, computed here when
    not given.
    """
    game, entry = build_explicit_game(g, dpa, coalition, reachable)
    w0, _ = solve_zielonka(game)
    return {q for q, v in entry.items() if v in w0}


# ---------------------------------------------------------------------------
# PGSolver interchange format

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
        try:
            v, p, o, ws = line.split()
            v, p, o = int(v), int(p), int(o)
            ws = [int(x) for x in ws.split(",")]
        except ValueError:
            raise InfiniteMcError(
                f"malformed pgsolver line: {raw!r}") from None
        if o not in (0, 1):
            raise InfiniteMcError(f"vertex {v}: owner must be 0 or 1")
        if p < 0:
            raise InfiniteMcError(f"vertex {v}: priority {p} is negative")
        if v in owner:
            raise InfiniteMcError(f"vertex {v} is declared twice")
        owner[v] = o
        priority[v] = p
        succ[v] = ws
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
    rounds: int = None   # attractor steps of the last solve, summed over
                         # all its attractors

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

    def __post_init__(self):
        # the priming swap and the primed variable set, built once per
        # arena for the pre-images
        self._swap = self.store.renaming([b for b, _ in self.blocks],
                                         [bp for _, bp in self.blocks])
        self._primed = frozenset(self.primed_vars())
        self._last = max(self._primed)

    def pre_exists(self, target, within=None):
        """Vertices with some edge into ``target``, among ``within`` when
        given; both arena builders give every edge a source in
        ``vertices``."""
        return Bdd(self.store, self._pre(
            target.node, None if within is None else within.node))

    def _pre(self, t, within=None):
        """``pre_exists`` on node ids."""
        st = self.store
        e = self.e.node if within is None else st._and(self.e.node, within)
        vs = self._primed
        return st._and_exists(e, st._rename(t, self._swap), vs, self._last,
                              st._quant_memo(vs))


def _block_eq(store, b1, b2):
    parts = []
    for v1, v2 in zip(b1.vars, b2.vars):
        parts.append(store.apply("iff", store.var(v1), store.var(v2)))
    return store.big_and(parts)


def build_game(sg, sdpa, coalition):
    """Parity-game arena for a coalition against a min-even DPA.

    Vertices pair every CGS state with every automaton state, the space
    of ``finite_mc.build_product`` too, on two layers told apart by the
    store's layer bit.  A coalition vertex
    (layer 0) moves to the opponent vertex (layer 1) that holds its
    chosen action, and the opponents' response leads back to layer 0;
    every store has the layer bit and the primed action blocks these
    edges need.  Coalition positions carry action value 0 as a normal
    form; priorities come from the automaton state on both layers.
    """
    st = sg.store
    coalition = tuple(coalition)
    l = st.block("l")
    lp = st.block("l'")

    members = [(i, a) for i, a in enumerate(sg.g.agents) if a in coalition]
    ablocks = [sg.action_blocks[a] for _, a in members]
    apblocks = [st.block(cgsmod.action_block_name(i) + "'")
                for i, _ in members]
    _, avail, moves = cgsmod.coalition_moves(sg, coalition)

    layer0 = ~st.var(l.vars[0])
    layer1 = st.var(l.vars[0])
    layer0p = ~st.var(lp.vars[0])
    layer1p = st.var(lp.vars[0])

    # with no coalition member there is no action to fix
    azero, azero_p = (st.from_points(bs, [[0]] * len(bs)) if bs else st.true
                      for bs in (ablocks, apblocks))
    avail_p = st.rename(avail, ablocks, apblocks)

    base = sg.valid & sdpa.valid
    v0 = layer0 & base & azero
    v1 = layer1 & base & avail

    eq_q = _block_eq(st, sg.q, st.block("q'"))
    eq_s = _block_eq(st, sdpa.s, st.block("s'"))

    # coalition picks an available joint action; position data unchanged
    e0 = v0 & layer1p & eq_q & eq_s & avail_p
    # opponents respond; the automaton reads the successor's label
    e1 = v1 & layer0p & azero_p & moves & sdpa.delta
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
    ids = range(game.n())
    v0, v1 = (st.from_points([v], [[x for x in ids if game.owner[x] == o]])
              for o in (0, 1))
    e = st.from_points([v, vp], [[x for x in ids for _ in game.succ[x]],
                                 [w for ws in game.succ for w in ws]])
    classes = {}
    for x in ids:
        classes.setdefault(game.priority[x], []).append(x)
    priorities = {p: st.from_points([v], [xs])
                  for p, xs in sorted(classes.items())}
    return SymbolicParityGame(
        store=st, blocks=[(v, vp)], v0=v0, v1=v1, e=e, priorities=priorities,
    )


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
    stays out is a candidate again once its last escape joins.  The rest
    of the region is kept up to date by taking each step's new vertices
    out of it, and the attractor is the region without its rest.
    """
    st = game.store
    and_, or_, diff = st._and, st._or, st._diff
    own, opp = (game.v1.node, game.v0.node) if player else \
        (game.v0.node, game.v1.node)
    pre = game._pre

    frontier = target
    rest = diff(region, target)
    steps = 0
    while frontier:
        steps += 1
        # no operation is in flight between steps
        st.trim_cache()
        reach = and_(pre(frontier), rest)
        grab = and_(reach, own)
        rest = diff(rest, grab)
        cand = and_(reach, opp)
        if cand:
            forced = diff(cand, pre(rest, cand)) if rest else cand
            rest = diff(rest, forced)
            grab = or_(grab, forced)
        frontier = grab
    return diff(region, rest), steps


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
    and_, or_, diff = st._and, st._or, st._diff
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
            lost = solve(diff(region, a))[1 - player]
            if not lost:
                won[player] = or_(won[player], region)
                break
            b = attractor(1 - player, lost, region)
            won[1 - player] = or_(won[1 - player], b)
            region = diff(region, b)
        return won

    w0, w1 = solve(game.vertices.node)
    game.rounds = steps
    return Bdd(st, w0), Bdd(st, w1)


def winning_states(sg, sdpa, coalition, game=None):
    """CGS state ids from which the coalition wins, by symbolic
    Zielonka on ``game`` (built here when not given)."""
    if game is None:
        game = build_game(sg, sdpa, coalition)
    w0, _ = solve_symbolic_zielonka(game)
    # a state's position vertex holds the automaton state entered on
    # its own label
    return finite_mc.project_states(sg, w0 & game.v0 & sdpa.entry)
