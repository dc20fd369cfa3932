"""Infinite-trace strategic checking via parity games.

The coalition and its opponents induce a two-player parity game on the
product of the game structure with a deterministic parity automaton for
the path formula.  Coalition vertices pick a joint coalition action,
opponent vertices resolve the remaining agents and advance the
automaton.  Acceptance is min-even throughout: player 0 wins a play iff
the minimal priority occurring infinitely often is even.

Zielonka's recursive attractor decomposition is implemented twice: on
an explicit arena (the oracle) and on the BDD node ids of a symbolic
arena, where attractors iterate pre-images.  The symbolic arena is a
``SymbolicParityGame`` in layered form.  ``finite_mc.build_product``
makes it, with no priorities, for both semantics: ``build_game`` adds
the priority classes here, and the finite-trace safety games of
``finite_mc`` are solved on it by the same attractor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import finite_mc
from .bdd import FALSE, TRUE, Bdd
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

    def n(self):
        return len(self.owner)

    def validate(self):
        if not self.owner:
            raise InfiniteMcError("empty parity game")
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


def depth_check(n_priorities):
    """Zielonka recurses once per distinct priority: refuse a game that
    would come near the interpreter's recursion limit."""
    cap = sys.getrecursionlimit() // 2
    if n_priorities > cap:
        raise ResourceError(f"parity game has {n_priorities} distinct "
                            f"priorities; Zielonka takes at most {cap}")


def solve_zielonka(game):
    """Full winning-region partition (W0, W1) by attractor decomposition,
    recursing and looping as ``solve_symbolic_zielonka`` does."""
    game.validate()
    depth_check(len(set(game.priority)))

    def solve(region):
        won = (set(), set())
        while region:
            p = min(game.priority[v] for v in region)
            player = p % 2
            target = {v for v in region if game.priority[v] == p}
            a = attractor(game, player, target, region)
            lost = solve(region - a)[1 - player]
            if not lost:
                won[player].update(region)
                break
            b = attractor(game, 1 - player, lost, region)
            won[1 - player].update(b)
            region = region - b
        return won

    return solve(set(range(game.n())))


# the most vertices an explicit arena may have
REGION_CAP = 1 << 20


def region_cap_check(n):
    if n > REGION_CAP:
        raise ResourceError(
            f"explicit arena would have {n} vertices (cap {REGION_CAP}); "
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
    """An ExplicitGame from PGSolver text; a vertex's quoted name is
    read and dropped."""
    owner, priority, succ = {}, {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("parity"):
            continue
        line = line.rstrip(";").partition('"')[0]
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
    if not owner:
        raise InfiniteMcError("empty parity game")
    n = max(owner) + 1
    if set(owner) != set(range(n)):
        raise InfiniteMcError("vertex ids must be contiguous from 0")
    game = ExplicitGame(
        owner=[owner[v] for v in range(n)],
        priority=[priority[v] for v in range(n)],
        succ=[succ[v] for v in range(n)],
    )
    game.validate()
    return game


# ---------------------------------------------------------------------------
# Symbolic parity games

@dataclass
class SymbolicParityGame:
    """Arena over (l, position, coalition actions), ``l`` the store's top
    variable.  Player 0 moves from a position (l=0) to a choice (l=1) of
    the same position by picking the actions; player 1 responds with a
    position that ``delta`` relates to the choice.  Positions read no
    action bits: a position is one vertex per action code, all with the
    same choices, and a response keeps the choice's code, so a set whose
    positions do read action bits still has an exact pre-image.  A
    pre-image is cut to its ``within`` set after the product, so that
    set must read no primed variable."""

    store: object
    blocks: list         # (block, primed block) pairs of a position
    actions: list        # the coalition's action blocks
    v0: object           # position vertices (layer 0), player 0's
    v1: object           # choice vertices (layer 1), player 1's
    delta: object        # Bdd over (position, actions, primed position)
    priorities: dict     # p -> Bdd over vertex vars
    rounds: int = None   # attractor steps of the last solve, summed over
                         # all its attractors

    @property
    def vertices(self):
        return self.v0 | self.v1

    @property
    def reachable(self):
        """The positions as a BDD over the position blocks: ``v0``
        with the layer bit cofactored away."""
        return Bdd(self.store, self._halves(self.v0.node)[0])

    def vertex_vars(self):
        blocks = [self.store.block("l"), *(b for b, _ in self.blocks),
                  *self.actions]
        return [v for b in blocks for v in b.vars]

    def __post_init__(self):
        # what the pre-images need, built once per arena
        self._swap = self.store.renaming(*zip(*self.blocks))
        self._acts = frozenset(v for b in self.actions for v in b.vars)
        self._primed = frozenset(v for _, bp in self.blocks for v in bp.vars)
        self._last_a = max(self._acts, default=-1)

    def _halves(self, n):
        """Node ``n``'s cofactors at l=0 and l=1."""
        st = self.store
        return (st._lo[n], st._hi[n]) if st._var[n] == 0 else (n, n)

    def _pre(self, t, within=TRUE):
        """Vertices with some edge into ``t``, a target within the
        vertices, among ``within``: each half is the pre-image of the
        whole target, cut to its half of ``within`` (reading no primed
        variable) after the product, or FALSE when that half is empty.
        Both halves lie within the vertices.  The relation is never
        conjoined with ``within``, so steps with like targets share
        products."""
        st = self.store
        (t0, t1), (w0, w1) = self._halves(t), self._halves(within)
        # positions: some action's choice is in t; choices: some
        # response is a position in t
        lo = w0 and st._and(w0, st._exists(
            t1, self._acts, self._last_a, st._quant_memo(self._acts)))
        hi = w1 and st._and(w1, st._and_exists(
            self.delta.node, st._rename(t0, self._swap), self._primed,
            max(self._primed), st._quant_memo(self._primed)))
        return st._mk(0, lo, hi)


def build_game(sg, sdpa, coalition):
    """Parity-game arena for a coalition against a min-even DPA: the
    arena of ``finite_mc.build_product``, with priorities from the
    automaton state on both layers."""
    game = finite_mc.build_product(sg, sdpa, coalition)
    dpa = sdpa.aut
    classes = {}
    for s in range(dpa.n_states):
        classes.setdefault(dpa.priority[s], []).append(s)
    game.priorities = {
        p: cls for p, ss in sorted(classes.items())
        if not (cls := game.vertices & sdpa.states(ss)).is_false()}
    return game


# ---------------------------------------------------------------------------
# Symbolic Zielonka

def _attractor(game, player, target, region):
    """Vertices of ``region`` from which ``player`` forces a visit to
    ``target`` (a subset of ``region``), on node ids.  The region lies
    within the vertices, and only edges inside it count.  Returns
    (attractor, iterations).

    The attractor grows from its last frontier: a vertex of ``player``
    joins when it has an edge into the frontier, and an opponent vertex
    whose edge into the frontier makes it a candidate joins when it has
    no edge left into the rest of the region.  An opponent vertex that
    stays out is a candidate again once its last escape joins.  The rest
    of the region is kept up to date by taking each step's new vertices
    out of it, and the attractor is the region without its rest.
    """
    st = game.store
    and_, or_, diff, mk = st._and, st._or, st._diff, st._mk
    pre = game._pre

    frontier = target
    rest = diff(region, target)
    steps = 0
    while frontier:
        steps += 1
        # no operation is in flight between steps
        st.trim_cache()
        lo, hi = game._halves(and_(pre(frontier), rest))
        # a vertex's layer is its owner
        grab, cand = mk(0, FALSE, hi), mk(0, lo, FALSE)
        if not player:
            grab, cand = cand, grab
        rest = diff(rest, grab)
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
    number of priorities, which ``depth_check`` bounds.  Leaves the total
    attractor iterations in ``game.rounds``.
    """
    depth_check(len(game.priorities))
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


def winning_states(sg, sdpa, game):
    """CGS state ids from which the coalition wins, by symbolic
    Zielonka on ``game``, the arena ``build_game`` made of ``sg`` and
    ``sdpa``."""
    w0, _ = solve_symbolic_zielonka(game)
    # a state's position vertex holds the automaton state entered on
    # its own label
    return finite_mc.project_states(sg, w0 & game.v0 & sdpa.entry)
