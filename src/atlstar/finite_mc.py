"""Finite-trace strategic checking via DFA products and safety games.

For a strategic subformula <<A>> psi the path formula psi is translated
to a DFA, the complement automaton is run in lockstep with the game
structure, and the coalition wins from exactly the states where it can
keep the product inside the safe region forever: outside the opponents'
attractor to the unsafe states.  The product (``build_product``) is the
layered arena of ``infinite_mc`` with no priorities, so both semantics
solve one arena by one attractor.  It pairs every CGS state with every
automaton state; its reachable part is never computed.  Each model
state enters the product with the automaton state its own label leads
to; that entry relation comes with the automaton's encoding
(``ltlf2dfa.encode_automaton``).  Everything here works on the symbolic
encodings from ``cgs`` and ``ltlf2dfa``, except the explicit baseline:
``explicit_product``, the one explicit product of a model with a
deterministic automaton that both explicit oracles solve, and this
module's safety solver on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cgs as cgsmod
from . import infinite_mc
from .bdd import Bdd
from .errors import ResourceError


class FiniteMcError(ResourceError):
    pass


def build_product(sg, sd, coalition):
    """The layered arena, with no priorities, of a CGS with an encoded
    automaton for a coalition: the arena of both semantics, which
    ``infinite_mc.build_game`` gives priorities.

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
    return infinite_mc.SymbolicParityGame(
        store=sg.store, blocks=[(sg.q, sg.q_next), (sd.s, sd.s_next)],
        actions=[sg.action_blocks[a] for a in sg.g.agents
                 if a in coalition],
        v0=~layer & positions, v1=layer & positions & avail,
        delta=delta, priorities={},
    )


@dataclass
class SafetyResult:
    winning: object        # Bdd over (q, s)
    iterations: int        # attractor steps


def solve_safety(sg, sd, game):
    """The product states from which the coalition can stay safe: the
    positions of ``game``, the arena ``build_product`` made of ``sg``
    and ``sd``, outside the opponents' attractor to the unsafe
    positions.  Leaves the attractor steps in ``game.rounds``.

    A position is unsafe where the trace may stop (a final CGS state)
    with the complement automaton accepting, i.e. the DFA for psi
    rejecting.
    """
    st = sg.store
    unsafe = game.v0 & sg.final & ~sd.states(sd.aut.finals)
    attr, game.rounds = infinite_mc._attractor(game, 1, unsafe.node,
                                               game.vertices.node)
    safe, _ = game._halves(st._diff(game.v0.node, attr))
    return SafetyResult(winning=Bdd(st, safe), iterations=game.rounds)


def winning_states(sg, sd, game):
    """CGS state ids from which the coalition wins the safety game on
    ``game``, the arena ``build_product`` made of ``sg`` and ``sd``."""
    res = solve_safety(sg, sd, game)
    return project_states(sg, res.winning & sd.entry)


def project_states(sg, win):
    """Reachable CGS states ``q`` for which some assignment to every
    other variable of the store satisfies ``win``."""
    store = sg.store
    q = set(sg.q.vars)
    states = store.exists([v for v in range(store.nvars) if v not in q], win)
    return set(store.minterms(states & sg.reach, sg.q))


# ---------------------------------------------------------------------------
# Explicit baseline

DEFAULT_PRODUCT_CAP = 4096


def explicit_product(g, aut, coalition, reachable):
    """Explicit product of a model with a deterministic automaton (a
    ``Dfa`` or a ``Dpa``), explored from the entry node (q, delta(s0,
    lambda(q))) of each reachable state q.

    Returns ``(nodes, entry, moves)``: ``nodes`` lists the (q, s) pairs
    in discovery order, ``entry`` maps each reachable state to the index
    of its entry node, and ``moves[v]`` holds, per coalition move, the
    set of nodes that some response of the other agents reaches from
    node ``v``.  Both oracles solve their games on this product.
    """
    coalition = set(coalition)
    # the joint action indices grouped by the coalition's part of them
    groups = {}
    for j, ja in enumerate(g.joint_actions()):
        mine = tuple(m for a, m in zip(g.agents, ja) if a in coalition)
        groups.setdefault(mine, []).append(j)
    groups = list(groups.values())
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
    return nodes, entry, moves


def explicit_game_solving(g, dfa, coalition,
                          product_cap=DEFAULT_PRODUCT_CAP, reachable=None):
    """Explicit-state safety-game solver over the same product.

    Removes the product nodes from which the coalition cannot avoid the
    unsafe region.  Intended as an oracle for the symbolic engine on
    small models; raises when |states| x |DFA| exceeds ``product_cap``,
    which bounds the product.  ``reachable`` is the model's reachable
    state set, computed here when not given.
    """
    if len(g.states) * dfa.n_states > product_cap:
        raise FiniteMcError(
            f"explicit product {len(g.states)} x {dfa.n_states} exceeds "
            f"{product_cap} states; use the symbolic engine or raise "
            "product_cap"
        )
    if reachable is None:
        reachable = g.reachable_states()
    nodes, entry, moves = explicit_product(g, dfa, coalition, reachable)
    alive = {v for v, (q, s) in enumerate(nodes)
             if q not in g.final or s in dfa.finals}
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not any(succ <= alive for succ in moves[v]):
                alive.discard(v)
                changed = True
    return {q for q, v in entry.items() if v in alive}
