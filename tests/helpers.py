"""Helpers that only the tests call: a random model builder, a model's
rows by state, BDDs of cubes and point lists, a one-call finite-trace
check, an encoding audit, a PGSolver writer and the explicit vertices
of a symbolic arena made from an explicit game."""

from atlstar import cgs
from atlstar import finite_mc
from atlstar import ltlf2dfa
from atlstar.cgs import CgsError


def random_cgs(rng, n_states, n_actions=2, agents=("a", "b"), finals=True):
    """A random model over atoms p and q: each atom labels a state with
    probability 0.4, each (state, joint action) has a uniform successor
    and, when ``finals`` holds, each state is final with probability
    0.3 (drawn last, so ``finals=False`` draws the same model without
    final states)."""
    states = [f"s{i}" for i in range(n_states)]
    actions = {ag: [f"m{j}" for j in range(n_actions)] for ag in agents}
    atoms = ["p", "q"]
    labels = [frozenset(x for x in atoms if rng.random() < 0.4)
              for _ in states]
    successors = [rng.randrange(n_states)
                  for _ in range(n_states * n_actions ** len(agents))]
    final = frozenset()
    if finals:
        final = frozenset(q for q in range(n_states) if rng.random() < 0.3)
    return cgs.Cgs(agents=list(agents), atoms=atoms, states=states,
                   initial=0, final=final, actions=actions,
                   successors=successors, labels=labels)


def moves_from(g, q):
    """The (joint action, successor) pairs of state ``q``, in row order."""
    n_joint = g.n_joint()
    return zip(g.joint_actions(), g.successors[q * n_joint:(q + 1) * n_joint])


def cube(store, block, value):
    """The BDD of ``value`` in the bits of ``block`` (bit 0 = LSB)."""
    return store.from_points([block], [[value]])


def points_bdd(store, blocks, points):
    """The BDD of ``points``, tuples with one value per block."""
    return store.from_points(
        blocks, [[p[i] for p in points] for i in range(len(blocks))])


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
    return finite_mc.project_states(sg, res.winning & sd.entry)


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
            parts = [cube(st, sg.q, s)]
            for i, a in enumerate(g.agents):
                parts.append(cube(st, sg.action_blocks[a], j[i]))
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


def vertex_blocks(game):
    """The blocks a symbolic arena's vertices range over: the layer bit,
    the position blocks and the coalition's action blocks."""
    return ([game.store.block("l")] + [b for b, _ in game.blocks]
            + list(game.actions))


def game_positions(game, w):
    """The explicit vertices whose layer-0 position lies in ``w``, for
    an arena of ``infinite_mc.encode_explicit_game``."""
    st, (v, _) = game.store, game.blocks[0]
    others = [x for x in game.vertex_vars() if x not in v.vars]
    return set(st.minterms(st.exists(others, w & game.v0), v))


def lift_region(game, sym, region):
    """An explicit region of ``game`` as vertices of its arena ``sym``:
    its positions, over every action code, the one choice of each
    player-1 vertex and the player-0 choices whose successor lies in
    the region, so that no edge leaving the region makes a vertex of
    it."""
    st, (v, _) = sym.store, sym.blocks[0]
    choices = []
    for x in region:
        if game.owner[x]:
            choices.append((1, x, 0))
        else:
            choices += [(1, x, k) for k, w in enumerate(game.succ[x])
                        if w in region]
    return (points_bdd(st, [st.block("l"), v], [(0, x) for x in region])
            | points_bdd(st, vertex_blocks(sym), choices))
