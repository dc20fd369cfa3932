"""Two-player games on the product of a model with an automaton.

Every strategic check reduces to one game: the coalition (player 0)
against the other agents (player 1) on the product of the model with a
deterministic automaton for the path formula.  For finite traces it is
a safety game, for infinite traces a parity game; the semantics picks
only the objective (``finite_mc`` and ``infinite_mc``), and everything
both share is here.  Acceptance is min-even throughout: player 0 wins a
play iff the minimal priority occurring infinitely often is even.

Each arena comes in two forms.  The explicit one (``explicit_arena``,
an ``ExplicitGame``) is the oracle's.  The symbolic one (``arena``, a
``SymbolicParityGame``) is the layered arena over BDDs: positions pair
every model state with every automaton state, and each position's
choices carry the coalition's actions.  Both forms are solved by an
attractor (``attractor`` and ``symbolic_attractor``), the primitive of
both objectives, and by Zielonka's recursive attractor decomposition
(``solve_zielonka`` and ``solve_symbolic_zielonka``; Zielonka,
"Infinite games on finitely coloured graphs with applications to
automata on infinite trees", TCS 1998).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import cgs as cgsmod
from .bdd import FALSE, TRUE, Bdd
from .errors import InputError, ResourceError


class GameError(InputError):
    """A malformed parity game."""


# ---------------------------------------------------------------------------
# Explicit games

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
            raise GameError("empty parity game")
        for v, ss in enumerate(self.succ):
            if not ss:
                raise GameError(f"vertex {v} has no successors")
            for w in ss:
                if not 0 <= w < self.n():
                    raise GameError(f"vertex {v}: bad successor {w}")


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


def explicit_arena(g, aut, coalition, reachable, priority=None):
    """Explicit arena of a model with a deterministic automaton (a
    ``Dfa`` or a ``Dpa``), explored from the entry node (q, delta(s0,
    lambda(q))) of each reachable state q.

    Each node (q, s) is a coalition vertex, numbered in discovery order,
    with one opponent vertex per coalition move, whose successors are
    the nodes that some response of the other agents reaches.  Every
    vertex carries the priority that ``priority`` maps its automaton
    state to, or 0 when ``priority`` is None.  Returns (game, nodes,
    entry): ``nodes`` lists the (q, s) pairs of the coalition vertices,
    and ``entry`` maps each reachable state to the vertex it enters the
    arena at.
    """
    coalition = set(coalition)
    # the joint action indices grouped by the coalition's part of them
    groups = {}
    for j, ja in enumerate(g.joint_actions()):
        mine = tuple(m for a, m in zip(g.agents, ja) if a in coalition)
        groups.setdefault(mine, []).append(j)
    groups = list(groups.values())
    k = len(groups)
    region_cap_check(len(reachable) * aut.n_states * (1 + k))
    letters = [aut.letter(row) for row in g.labels]
    delta, succ, n_joint = aut.delta, g.successors, g.n_joint()

    ids = {}
    nodes = []

    def node(q, s):
        v = ids.setdefault((q, s), len(nodes))
        if v == len(nodes):
            nodes.append((q, s))
        return v

    entry = {q: node(q, delta[aut.initial, letters[q]])
             for q in sorted(reachable)}
    moves = [[{node(t, delta[s, letters[t]])
               for t in {succ[q * n_joint + j] for j in grp}}
              for grp in groups]
             for q, s in nodes]  # nodes grows while it is walked
    n = len(nodes)
    prio = [0 if priority is None else priority[s] for _, s in nodes]
    game = ExplicitGame(
        owner=[0] * n + [1] * (n * k),
        priority=prio + [p for p in prio for _ in range(k)],
        succ=[list(range(n + v * k, n + (v + 1) * k)) for v in range(n)]
        + [list(succ) for per_move in moves for succ in per_move],
    )
    return game, nodes, entry


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
            raise GameError(f"malformed pgsolver line: {raw!r}") from None
        if o not in (0, 1):
            raise GameError(f"vertex {v}: owner must be 0 or 1")
        if p < 0:
            raise GameError(f"vertex {v}: priority {p} is negative")
        if v in owner:
            raise GameError(f"vertex {v} is declared twice")
        owner[v] = o
        priority[v] = p
        succ[v] = ws
    if not owner:
        raise GameError("empty parity game")
    n = max(owner) + 1
    if set(owner) != set(range(n)):
        raise GameError("vertex ids must be contiguous from 0")
    game = ExplicitGame(
        owner=[owner[v] for v in range(n)],
        priority=[priority[v] for v in range(n)],
        succ=[succ[v] for v in range(n)],
    )
    game.validate()
    return game


# ---------------------------------------------------------------------------
# Symbolic games

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
                         # all its attractors; a step covers one model
                         # move, its choices and then its positions

    @property
    def vertices(self):
        return self.v0 | self.v1

    @property
    def reachable(self):
        """The positions as a BDD over the position blocks: ``v0``
        with the layer bit cofactored away."""
        return Bdd(self.store, self.halves(self.v0.node)[0])

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

    def halves(self, n):
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
        products.  ``symbolic_attractor`` asks for one half at a time,
        and for the choice half, the one relational product, at most
        once per step."""
        st = self.store
        (t0, t1), (w0, w1) = self.halves(t), self.halves(within)
        # positions: some action's choice is in t; choices: some
        # response is a position in t
        lo = w0 and st._and(w0, st._exists(
            t1, self._acts, self._last_a, st._quant_memo(self._acts)))
        hi = w1 and st._and(w1, st._and_exists(
            self.delta.node, st._rename(t0, self._swap), self._primed,
            max(self._primed), st._quant_memo(self._primed)))
        return st._mk(0, lo, hi)


def arena(sg, sd, coalition):
    """The layered arena, with no priorities, of a CGS with an encoded
    automaton for a coalition: the arena of both semantics, to which
    the parity objective adds priorities.

    Its positions pair every CGS state with every automaton state.
    Whether a state is winning depends only on the states reachable
    from it, so on the entry points of reachable states a fixpoint over
    this arena agrees with the fixpoint over the part reachable from
    them.  Its one relation is the coalition's moves with the automaton
    reading the successor's label.
    """
    avail, moves = cgsmod.coalition_moves(sg, coalition)
    delta = moves & sd.delta
    positions = sg.valid & sd.valid
    layer = sg.store.var(0)
    return SymbolicParityGame(
        store=sg.store, blocks=[(sg.q, sg.q_next), (sd.s, sd.s_next)],
        actions=[sg.action_blocks[a] for a in sg.g.agents
                 if a in coalition],
        v0=~layer & positions, v1=layer & positions & avail,
        delta=delta, priorities={},
    )


def project_states(sg, win):
    """Reachable CGS states ``q`` for which some assignment to every
    other variable of the store satisfies ``win``."""
    store = sg.store
    q = set(sg.q.vars)
    states = store.exists([v for v in range(store.nvars) if v not in q], win)
    return set(store.minterms(states & sg.reach, sg.q))


def symbolic_attractor(game, player, target, region):
    """Vertices of ``region`` from which ``player`` forces a visit to
    ``target`` (a subset of ``region``), on node ids.  The region lies
    within the vertices, and only edges inside it count.  Returns
    (attractor, iterations).

    One step covers one model move: it first adds the choices with an
    edge into the positions the last step added, then the positions with
    an edge into the choices it just added (at the first step, into the
    target's too).  A vertex of ``player`` with such an edge joins at
    once.  An opponent vertex joins when its last edge into the rest of
    the region is gone: the step takes the pre-image of the other
    layer's rest, uncut, and the opponent vertices of the rest that
    were in the last such pre-image but are not in this one join.  The
    rest only ever loses a step's new vertices, so those are exactly
    the vertices with an edge into the new ones and none into the rest.
    The first such pre-image is of the region's other layer, which at
    the opponent's first join is the rest with the new vertices.  So a
    step takes at most one pre-image per layer, and so at most one
    relational product, on the choice layer; and a step that adds no
    positions is the last.  The rest of the region is kept as one
    cofactor per layer, each step's new vertices taken out of it, and
    the attractor is the region without its rest.
    """
    st = game.store
    and_, or_, diff, mk = st._and, st._or, st._diff, st._mk
    halves, pre = game.halves, game._pre

    def on(l, n):
        return mk(0, FALSE, n) if l else mk(0, n, FALSE)

    def join(l, new, rest, escapes):
        # layer l's vertices of ``rest`` that join, given ``new`` and
        # ``escapes``, the other layer's new vertices and its rest.  A
        # vertex's layer is its owner.
        nonlocal seen
        if l == player:
            return halves(pre(on(1 - l, new), on(l, rest)))[l]
        now = halves(pre(on(1 - l, escapes), on(l, TRUE)))[l]
        got = diff(and_(seen, rest), now)
        seen = now
        return got

    new0, new1 = halves(target)
    rest0, rest1 = halves(diff(region, target))
    # the opponent's vertices with an edge into the region's other
    # layer, which is the rest and the new vertices at its first join
    opp = 1 - player
    seen = halves(pre(on(player, halves(region)[player]),
                      on(opp, TRUE)))[opp]
    steps = 0
    while new0 or new1:
        steps += 1
        # no operation is in flight between steps
        st.trim_cache()
        if new0:
            got = join(1, new0, rest1, rest0)
            rest1 = diff(rest1, got)
            new1 = or_(new1, got)
        new0 = join(0, new1, rest0, rest1) if new1 else FALSE
        rest0 = diff(rest0, new0)
        new1 = FALSE
    return diff(region, mk(0, rest0, rest1)), steps


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
        attr, n = symbolic_attractor(game, player, target, region)
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
