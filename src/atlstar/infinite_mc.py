"""Infinite-trace strategic checking: the parity objective.

The coalition and its opponents play a parity game on the product of
the game structure with a deterministic parity automaton for the path
formula.  The arena is that of ``games``, the same as for finite
traces; this module gives its vertices the priority of their automaton
state and solves it by Zielonka's algorithm: on the symbolic arena
(``build_game``, ``winning_states``) and on the explicit one
(``winning_states_explicit``, the oracle).
"""

from __future__ import annotations

from . import games


def build_game(sg, sdpa, coalition):
    """Parity-game arena for a coalition against a min-even DPA: the
    arena of ``games.arena``, with priorities from the automaton state
    on both layers."""
    game = games.arena(sg, sdpa, coalition)
    dpa = sdpa.aut
    classes = {}
    for s in range(dpa.n_states):
        classes.setdefault(dpa.priority[s], []).append(s)
    game.priorities = {
        p: cls for p, ss in sorted(classes.items())
        if not (cls := game.vertices & sdpa.states(ss)).is_false()}
    return game


def winning_states(sg, sdpa, game):
    """CGS state ids from which the coalition wins, by symbolic
    Zielonka on ``game``, the arena ``build_game`` made of ``sg`` and
    ``sdpa``."""
    w0, _ = games.solve_symbolic_zielonka(game)
    # a state's position vertex holds the automaton state entered on
    # its own label
    return games.project_states(sg, w0 & game.v0 & sdpa.entry)


def winning_states_explicit(g, dpa, coalition, reachable):
    """CGS states from which the coalition wins, by the explicit solver
    on ``games.explicit_arena``.  ``reachable`` is the model's reachable
    state set."""
    game, _, entry = games.explicit_arena(g, dpa, coalition, reachable,
                                          dpa.priority)
    w0, _ = games.solve_zielonka(game)
    return {q for q, v in entry.items() if v in w0}
