"""Finite-trace strategic checking via DFA products and safety games.

For a strategic subformula <<A>> psi the path formula psi is translated
to a DFA, the complement automaton is run in lockstep with the game
structure, and the coalition wins from exactly the states where it can
keep the product inside the safe region forever.  The product space is
every CGS state paired with every automaton state, as for the parity
arenas of ``infinite_mc``; the product's reachable part is never
computed.  Everything here works on the
symbolic encodings from ``cgs`` and ``ltlf2dfa``; an explicit
product construction is kept alongside as an independent baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cgs as cgsmod
from . import ltlf2dfa
from .errors import ResourceError


class FiniteMcError(ResourceError):
    pass


@dataclass
class ProductSpace:
    """Safety-game arena of a CGS and a symbolic DFA."""

    sg: object
    sd: object
    action_vars: list      # coalition action variables
    avail: object          # coalition action availability Bdd
    delta: object          # Bdd over (q, s, aA, q', s'): coalition moves only
    entry: object          # Bdd over (q, s): automaton state entered at q
    reachable: object      # Bdd over (q, s): the whole arena, every
                           # CGS state with every automaton state
    unsafe: object         # Bdd over (q, s): final CGS state, non-final DFA


def entry_relation(sg, sd):
    """Pair each CGS state with the automaton state reached on its own
    label.

    The automaton (a symbolic DFA here, a symbolic DPA in
    ``infinite_mc``) starts in its initial state and immediately reads
    the label of the current CGS state, so state q enters the product
    at delta(s0, lambda(q)).
    """
    store = sg.store
    step = sd.init & sd.delta          # over (q', s') after fixing s = s0
    step = store.exists(sd.s.vars, step)
    step = store.rename(step, [sg.q_next, sd.s_next], [sg.q, sd.s])
    return step


def build_product(sg, sd, coalition):
    """Assemble the safety-game arena for a coalition against a DFA.

    The arena pairs every CGS state with every automaton state, as the
    parity arena of ``infinite_mc`` does.  Whether a state is winning
    depends only on the states reachable from it, so on the entry points
    of reachable states the safety fixpoint over this arena agrees with
    the fixpoint over the part reachable from them.
    """
    avars, avail, moves = cgsmod.coalition_moves(sg, coalition)
    # unsafe: the trace may stop here (final CGS state) with the
    # complement automaton accepting, i.e. the DFA for psi rejecting
    unsafe = sg.final & sd.valid & ~sd.finals
    return ProductSpace(
        sg=sg, sd=sd, action_vars=avars, avail=avail,
        delta=moves & sd.delta, entry=entry_relation(sg, sd),
        reachable=sg.valid & sd.valid, unsafe=unsafe,
    )


@dataclass
class SafetyResult:
    winning: object        # Bdd over (q, s)
    iterations: int


def solve_safety(prod):
    """Greatest fixpoint of Y -> Safe(Y): states the coalition can hold.

    Pre(Y) holds where some coalition action forces every successor of
    the product into Y, regardless of the opponents' response.
    """
    sg, sd = prod.sg, prod.sd
    store = sg.store
    qsn = sg.q_next.vars + sd.s_next.vars
    safe0 = prod.reachable & ~prod.unsafe

    def pre(y):
        yn = store.rename(y, [sg.q, sd.s], [sg.q_next, sd.s_next])
        # bad: this joint coalition choice admits a successor outside Y
        bad = store.and_exists(prod.delta, ~yn, qsn)
        forced = prod.avail & ~bad
        return store.exists(prod.action_vars, forced)

    y = safe0
    n = 0
    while True:
        # no operation is in flight between iterations
        store.trim_cache()
        nxt = y & pre(y)
        n += 1
        if nxt == y:
            return SafetyResult(winning=y, iterations=n)
        y = nxt


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


def explicit_game_solving(g, psi, coalition, dfa=None,
                          product_cap=DEFAULT_PRODUCT_CAP, reachable=None):
    """Explicit-state safety-game solver over the same product.

    Builds the product adjacency structure directly and removes states
    from which the coalition cannot avoid the unsafe region.  Intended
    as an oracle for the symbolic engine on small models; raises once
    the product exceeds ``product_cap`` states.  ``reachable`` is the
    model's reachable state set, computed here when not given.
    """
    if dfa is None:
        dfa = ltlf2dfa.translate(psi)
    if len(g.states) * dfa.n_states > product_cap:
        raise FiniteMcError(
            f"explicit product {len(g.states)} x {dfa.n_states} exceeds "
            f"{product_cap} states; use the symbolic engine or raise "
            "product_cap"
        )
    coalition = tuple(coalition)

    def entry(q):
        return dfa.step(dfa.initial, g.labels[q])

    nodes = {}
    order = []

    def get(q, s):
        key = (q, s)
        if key not in nodes:
            if len(order) >= product_cap:
                raise FiniteMcError(
                    f"explicit product exceeds {product_cap} states; "
                    "use the symbolic engine or raise product_cap"
                )
            nodes[key] = len(order)
            order.append(key)
        return nodes[key]

    reach_g = g.reachable_states() if reachable is None else reachable
    frontier = [(q, entry(q)) for q in sorted(reach_g)]
    for key in frontier:
        get(*key)
    # moves[v] : coalition joint action -> set of successor product nodes
    moves = {}
    i = 0
    while i < len(order):
        q, s = order[i]
        per_action = {}
        for ja in g.joint_actions():
            mine = tuple(ja[g.agents.index(a)] for a in coalition)
            ti = g.transitions[(q, ja)]
            ts = dfa.step(s, g.labels[ti])
            per_action.setdefault(mine, set()).add(get(ti, ts))
        moves[i] = per_action
        i += 1

    unsafe = {
        v for v, (q, s) in enumerate(order)
        if q in g.final and s not in dfa.finals
    }
    alive = set(range(len(order))) - unsafe
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not any(succ <= alive for succ in moves[v].values()):
                alive.discard(v)
                changed = True
    return {q for q in reach_g if nodes.get((q, entry(q))) in alive}
