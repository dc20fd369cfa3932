"""Helpers that only the tests call: a one-call finite-trace check, an
encoding audit and a PGSolver writer."""

from atlstar import finite_mc
from atlstar import ltlf2dfa
from atlstar.cgs import CgsError


def game_solving(sg, psi, coalition, dfa=None):
    """States of the CGS from which the coalition can enforce psi.

    Returns a set of explicit CGS state ids.  A pre-translated DFA can
    be supplied to share work across calls.
    """
    if dfa is None:
        dfa = ltlf2dfa.translate(psi)
    sd = ltlf2dfa.encode_dfa(dfa, sg)
    prod = finite_mc.build_product(sg, sd, coalition)
    res = finite_mc.solve_safety(prod)
    return finite_mc.project_states(sg, res.winning & prod.entry)


def all_action_vars(sg):
    out = []
    for a in sg.g.agents:
        out.extend(sg.action_blocks[a].vars)
    return out


def audit_determinism(sg):
    """Check that each (state, joint action) has exactly one successor."""
    st = sg.store
    avs = all_action_vars(sg)
    g = sg.g
    for s in range(len(g.states)):
        for j in g.joint_actions():
            parts = [st.cube(sg.q, s)]
            for i, a in enumerate(g.agents):
                parts.append(st.cube(sg.action_blocks[a], j[i]))
            row = st.big_and(parts) & sg.delta
            succ = st.exists(list(sg.q.vars) + avs, row)
            if len(st.minterms(succ, sg.q_next)) != 1:
                raise CgsError(
                    f"nondeterministic encoding at state {s}, action {j}"
                )
    return True


def write_pgsolver(game):
    """An ExplicitGame in the PGSolver format that
    ``infinite_mc.parse_pgsolver`` reads."""
    lines = [f"parity {game.n() - 1};"]
    for v in range(game.n()):
        ss = ",".join(str(w) for w in game.succ[v])
        name = ""
        if game.names:
            name = f' "{game.names[v]}"'
        lines.append(f"{v} {game.priority[v]} {game.owner[v]} {ss}{name};")
    return "\n".join(lines) + "\n"
