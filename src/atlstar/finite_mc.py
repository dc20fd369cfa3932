"""Finite-trace strategic checking: the safety objective.

For a strategic subformula <<A>> psi the path formula psi is translated
to a DFA, the complement automaton is run in lockstep with the game
structure, and the coalition wins from exactly the states where it can
keep the product inside the safe region forever: outside the opponents'
attractor to the unsafe positions, where the trace may stop (a final
model state) with the DFA for psi rejecting.  The arena and the
attractors are those of ``games``, the same as for infinite traces;
this module supplies only the objective, on the symbolic arena
(``solve_safety``, ``winning_states``) and on the explicit one
(``explicit_game_solving``, the oracle).  ``build_product`` and
``project_states`` are ``games.arena`` and ``games.project_states``
under the names the finite-trace layers go by.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import games
from .bdd import Bdd
from .errors import ResourceError
from .games import arena as build_product, project_states


class FiniteMcError(ResourceError):
    pass


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
    attr, game.rounds = games.symbolic_attractor(game, 1, unsafe.node,
                                                 game.vertices.node)
    safe, _ = game.halves(st._diff(game.v0.node, attr))
    return SafetyResult(winning=Bdd(st, safe), iterations=game.rounds)


def winning_states(sg, sd, game):
    """CGS state ids from which the coalition wins the safety game on
    ``game``, the arena ``build_product`` made of ``sg`` and ``sd``."""
    res = solve_safety(sg, sd, game)
    return project_states(sg, res.winning & sd.entry)


# ---------------------------------------------------------------------------
# Explicit baseline

DEFAULT_PRODUCT_CAP = 4096


def explicit_game_solving(g, dfa, coalition, reachable,
                          product_cap=DEFAULT_PRODUCT_CAP):
    """Explicit-state safety-game solver over ``games.explicit_arena``:
    the states whose entry vertex lies outside the opponents' attractor
    to the unsafe positions.  ``reachable`` is the model's reachable
    state set.

    Intended as an oracle for the symbolic engine on small models;
    raises when |states| x |DFA| exceeds ``product_cap``, which bounds
    the product.
    """
    if len(g.states) * dfa.n_states > product_cap:
        raise FiniteMcError(
            f"explicit product {len(g.states)} x {dfa.n_states} exceeds "
            f"{product_cap} states; use the symbolic engine or raise "
            "product_cap"
        )
    game, nodes, entry = games.explicit_arena(g, dfa, coalition, reachable)
    unsafe = {v for v, (q, s) in enumerate(nodes)
              if q in g.final and s not in dfa.finals}
    lost = games.attractor(game, 1, unsafe, range(game.n()))
    return {q for q, v in entry.items() if v not in lost}
