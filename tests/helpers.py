"""Helpers that only the tests call: a random model builder, a model's
rows by state, BDDs of cubes and point lists, functional composition
(the reference for renaming), a one-call finite-trace check, the
finite-trace semantics and the acceptance of a DFA on a trace and of a
DPA on a lasso (the translators' oracles), a model's coalitions and its
joint relation, an encoding audit, a structural audit of a store's node
table, the symbolic arena of an explicit game and its explicit
vertices, a PGSolver writer, the state ids of an encoded state set, the
pre-image of a symbolic arena, a formula with its fresh atoms replaced
back and the model parser as it read every label line on its own,
which the parser's differential test compares against."""

import itertools
import math

from atlstar import cgs
from atlstar import finite_mc
from atlstar import formula as fm
from atlstar import games
from atlstar import ltlf2dfa
from atlstar.bdd import TRUE, Bdd, BddError, BddStore
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


def compose(store, f, substitution):
    """f with each variable v in ``substitution`` replaced by the BDD
    substitution[v], all at once."""
    (a,) = store._check(f)
    sub = {}
    for v, g in substitution.items():
        if not 0 <= v < store.nvars:
            raise BddError(f"substitution key {v} not in store")
        (sub[v],) = store._check(g)
    if not sub:
        return f
    return Bdd(store, store._compose(a, sub, {}))


def game_solving(sg, psi, coalition, dfa=None):
    """States of the CGS from which the coalition can enforce psi.

    Returns a set of explicit CGS state ids.  A pre-translated DFA can
    be supplied to share work across calls.
    """
    if dfa is None:
        dfa = ltlf2dfa.translate(psi)
    sd = ltlf2dfa.encode_dfa(dfa, sg)
    game = finite_mc.build_product(sg, sd, coalition)
    return finite_mc.winning_states(sg, sd, game)


def all_action_vars(sg):
    out = []
    for a in sg.g.agents:
        out.extend(sg.action_blocks[a].vars)
    return out


def eval_finite_trace(psi, trace, i=0):
    """Evaluate a pure LTLf formula on trace suffix starting at ``i``.

    ``trace`` is a sequence of label sets.  Implements the finite-trace
    semantics directly: X needs a successor position, U needs a witness
    inside the trace.
    """
    if not 0 <= i < len(trace):
        raise fm.FormulaError(
            f"position {i} out of range for trace of length {len(trace)}")

    def ev(f, i):
        k = f.kind
        if k == "atom":
            return f.name in trace[i]
        if k == "true":
            return True
        if k == "false":
            return False
        if k == "not":
            return not ev(f.children[0], i)
        if k == "and":
            return ev(f.children[0], i) and ev(f.children[1], i)
        if k == "or":
            return ev(f.children[0], i) or ev(f.children[1], i)
        if k == "next":
            return i + 1 < len(trace) and ev(f.children[0], i + 1)
        if k == "wnext":
            return i + 1 >= len(trace) or ev(f.children[0], i + 1)
        if k == "finally":
            return any(ev(f.children[0], j) for j in range(i, len(trace)))
        if k == "globally":
            return all(ev(f.children[0], j) for j in range(i, len(trace)))
        if k == "until":
            a, b = f.children
            for j in range(i, len(trace)):
                if ev(b, j):
                    return True
                if not ev(a, j):
                    return False
            return False
        if k == "release":
            a, b = f.children
            for j in range(i, len(trace)):
                if not ev(b, j):
                    return False
                if ev(a, j):
                    return True
            return True
        if k == "strategic":
            raise fm.FormulaError(
                "eval_finite_trace: formula is not pure LTLf")
        raise fm.FormulaError(f"unknown kind {k!r}")

    return ev(psi, i)


def dfa_step(dfa, state, labels):
    """The state ``dfa`` moves to from ``state`` on the letter that the
    label set ``labels`` shows it; a letter outside its alphabet raises
    ``TranslationError``."""
    try:
        return dfa.delta[(state, dfa.letter(labels))]
    except KeyError:
        shown = ",".join(p for p in dfa.atoms if p in labels)
        raise ltlf2dfa.TranslationError(
            f"letter {{{shown}}} is outside the automaton's alphabet"
        ) from None


def dfa_accepts(dfa, trace):
    """Whether ``dfa`` accepts ``trace``, a non-empty sequence of label
    sets; a letter outside its alphabet raises ``TranslationError``."""
    if len(trace) < 1:
        raise ltlf2dfa.TranslationError(
            "traces must have at least one position")
    s = dfa.initial
    for labels in trace:
        s = dfa_step(dfa, s, labels)
    return s in dfa.finals


def accepts_lasso(d, prefix, loop):
    """Whether the DPA ``d`` accepts the ultimately periodic word
    prefix . loop^omega; ``prefix``/``loop`` are sequences of letter
    masks, loop nonempty."""
    s = d.initial
    for a in prefix:
        s = d.delta[(s, a)]
    # run the loop until a (state, loop position) pair repeats; the
    # states from its first visit on are exactly the recurring ones
    seen = {}
    pos = 0
    path = []
    while (s, pos % len(loop)) not in seen:
        seen[(s, pos % len(loop))] = len(path)
        path.append(s)
        s = d.delta[(s, loop[pos % len(loop)])]
        pos += 1
    start = seen[(s, pos % len(loop))]
    recurring = path[start:]
    return min(d.priority[q] for q in recurring) % 2 == 0


def coalitions(g):
    """Every coalition of ``g``'s agents, the empty one included."""
    return [c for k in range(len(g.agents) + 1)
            for c in itertools.combinations(g.agents, k)]


def joint_relation(sg):
    """The moves of the coalition of every agent: the model relation
    over (q, each agent's action, q'), which ``sg`` must have encoded."""
    return cgs.coalition_moves(sg, sg.g.agents)[1]


def audit_determinism(sg):
    """Check that each (state, joint action) has exactly one successor
    in the joint relation."""
    st = sg.store
    avs = all_action_vars(sg)
    g = sg.g
    delta = joint_relation(sg)
    for s in range(len(g.states)):
        for j in g.joint_actions():
            parts = [cube(st, sg.q, s)]
            for i, a in enumerate(g.agents):
                parts.append(cube(st, sg.action_blocks[a], j[i]))
            row = st.big_and(parts) & delta
            succ = st.exists(list(sg.q.vars) + avs, row)
            if len(st.minterms(succ, sg.q_next)) != 1:
                raise CgsError(
                    f"nondeterministic encoding at state {s}, action {j}"
                )
    return True


def audit_reduced(store):
    """Structural check of ``store``'s node table: no redundant nodes,
    strictly ascending variables."""
    for n in range(2, store.node_count()):
        if store._lo[n] == store._hi[n]:
            raise BddError(f"node {n} has identical children")
        for child in (store._lo[n], store._hi[n]):
            if child > 1 and store._var[child] <= store._var[n]:
                raise BddError(f"node {n} violates variable order")
    return True


def encode_explicit_game(game):
    """Symbolic arena of an explicit game in ``games.arena``'s layered
    form, for solver cross-checks.  Vertex x is the position (l=0, x).
    If player 0 owns x, its choice (l=1, x, k) responds with its k-th
    successor; else its one choice (l=1, x, 0) responds with any.  Both
    layers carry x's priority."""
    game.validate()
    n = game.n()
    # every (choice, response) pair
    xs, ks, ws = zip(*[(x, k * (1 - game.owner[x]), w)
                       for x, ss in enumerate(game.succ)
                       for k, w in enumerate(ss)])
    nb = cgs.bits_for(n)
    st = BddStore([("l", 1), ("v", nb), ("v'", nb),
                   ("a", cgs.bits_for(max(ks) + 1))])
    l, v, vp, a = (st.block(name) for name in ("l", "v", "v'", "a"))
    v0 = st.from_points([l, v], [[0] * n, range(n)])
    v1 = st.from_points([l, v, a], [[1] * len(xs), xs, ks])
    classes = {}
    for x in range(n):
        classes.setdefault(game.priority[x], []).append(x)
    priorities = {p: st.from_points([v], [ys]) & (v0 | v1)
                  for p, ys in sorted(classes.items())}
    return games.SymbolicParityGame(
        store=st, blocks=[(v, vp)], actions=[a], v0=v0, v1=v1,
        delta=st.from_points([v, a, vp], [xs, ks, ws]),
        priorities=priorities,
    )


def substitute_atoms(f, mapping):
    """f with each atom in ``mapping`` replaced by its formula: the
    inverse of ``formula.extract_state_subformulas``."""
    if f.kind == "atom" and f.name in mapping:
        return mapping[f.name]
    if not f.children:
        return f
    return fm.Formula(
        f.kind, tuple(substitute_atoms(c, mapping) for c in f.children),
        f.name, f.coalition,
    )


def write_pgsolver(game):
    """An ExplicitGame in the PGSolver format that
    ``games.parse_pgsolver`` reads."""
    lines = [f"parity {game.n() - 1};"]
    for v in range(game.n()):
        ss = ",".join(str(w) for w in game.succ[v])
        lines.append(f"{v} {game.priority[v]} {game.owner[v]} {ss};")
    return "\n".join(lines) + "\n"


def vertex_blocks(game):
    """The blocks a symbolic arena's vertices range over: the layer bit,
    the position blocks and the coalition's action blocks."""
    return ([game.store.block("l")] + [b for b, _ in game.blocks]
            + list(game.actions))


def game_positions(game, w):
    """The explicit vertices whose layer-0 position lies in ``w``, for
    an arena of ``encode_explicit_game``."""
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


def decode(sg, f, block=None):
    """Sorted state ids of the encoded model ``sg`` in a BDD over its
    state block, or over ``block``."""
    return [s for s in sg.store.minterms(f, block or sg.q)
            if s < len(sg.g.states)]


def pre_exists(game, target, within=None):
    """Vertices of the symbolic arena ``game`` with some edge into
    ``target``, among ``within`` when given; both halves of the
    pre-image lie within the vertices.  ``within`` cuts the pre-image
    after the product, so it must read no primed variable."""
    st = game.store
    return Bdd(st, game._pre(st._and(target.node, game.vertices.node),
                             TRUE if within is None else within.node))


def reference_parse_model(text):
    """``cgs.parse_model`` as it was when it split, checked and froze
    each label line on its own: the reference of the parser's
    differential test."""
    agents = None
    atoms = None
    states = None
    initial = None
    final = []
    actions = {}
    label_lines = []
    trans_lines = []

    def err(lineno, msg):
        raise CgsError(f"line {lineno}: {msg}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        # nearly every line of a model is a transition row; its action
        # text is resolved once per distinct text, after the scan
        if line.startswith("trans "):
            rest = line[len("trans "):]
            src_part, arrow, dst = rest.partition("->")
            src, paren, acts = src_part.partition("(")
            if not arrow or not paren or ")" not in rest:
                err(lineno, "malformed trans line")
            trans_lines.append(
                (src.strip(), acts.rsplit(")", 1)[0], dst.strip(), lineno))
        elif not line:
            continue
        elif line.startswith("agents:"):
            if agents is not None:
                err(lineno, "duplicate agents declaration")
            agents = line[len("agents:"):].split()
            if len(set(agents)) != len(agents):
                err(lineno, "duplicate agent names")
        elif line.startswith("atoms:"):
            if atoms is not None:
                err(lineno, "duplicate atoms declaration")
            atoms = line[len("atoms:"):].split()
            if len(set(atoms)) != len(atoms):
                err(lineno, "duplicate atoms")
        elif line.startswith("states:"):
            if states is not None:
                err(lineno, "duplicate states declaration")
            states = line[len("states:"):].split()
            if len(set(states)) != len(states):
                err(lineno, "duplicate state names")
        elif line.startswith("initial:"):
            if initial is not None:
                err(lineno, "duplicate initial declaration")
            initial = (line[len("initial:"):].strip(), lineno)
        elif line.startswith("final:"):
            final.append((line[len("final:"):].split(), lineno))
        elif line.startswith("actions "):
            rest = line[len("actions "):]
            if ":" not in rest:
                err(lineno, "malformed actions line")
            agent, acts = rest.split(":", 1)
            agent = agent.strip()
            if agent in actions:
                err(lineno, f"duplicate actions declaration for agent {agent}")
            actions[agent] = (acts.split(), lineno)
        elif line.startswith("label "):
            rest = line[len("label "):]
            if ":" not in rest:
                err(lineno, "malformed label line")
            state, props = rest.split(":", 1)
            label_lines.append((state.strip(), props.split(), lineno))
        else:
            err(lineno, f"unrecognized line: {line!r}")

    if agents is None:
        raise CgsError("missing agents declaration")
    if states is None:
        raise CgsError("missing states declaration")
    if atoms is None:
        atoms = []
    if initial is None:
        raise CgsError("missing initial declaration")

    sidx = {name: i for i, name in enumerate(states)}
    init_name, lineno = initial
    if init_name not in sidx:
        err(lineno, f"undefined initial state {init_name!r}")
    init = sidx[init_name]

    finals = set()
    for names, lineno in final:
        for n in names:
            if n not in sidx:
                err(lineno, f"undefined final state {n!r}")
            finals.add(sidx[n])

    act_lists = {}
    aidx = {}
    for a in agents:
        if a not in actions:
            raise CgsError(f"missing actions declaration for agent {a}")
        acts, lineno = actions[a]
        if not acts:
            err(lineno, f"agent {a} must have at least one action")
        if len(set(acts)) != len(acts):
            err(lineno, f"duplicate actions for agent {a}")
        act_lists[a] = acts
        aidx[a] = {n: i for i, n in enumerate(acts)}
    for a in actions:
        if a not in agents:
            raise CgsError(f"actions declared for unknown agent {a}")

    atom_set = set(atoms)
    labels = [()] * len(states)
    seen_labels = set()
    for state, props, lineno in label_lines:
        if state not in sidx:
            err(lineno, f"undefined state {state!r} in label")
        if state in seen_labels:
            err(lineno, f"duplicate label declaration for state {state}")
        seen_labels.add(state)
        for p in props:
            if p not in atom_set:
                err(lineno, f"undefined atom {p!r} in label")
        labels[sidx[state]] = props

    # the row of a state and joint action is its slot in the successor
    # column; a slot still None after the scan is a missing row
    n_joint = math.prod(map(len, act_lists.values()))
    joint = {}          # action text -> joint action index
    successors = [None] * (len(states) * n_joint)
    for src, acts, dst, lineno in trans_lines:
        s = sidx.get(src)
        if s is None:
            err(lineno, f"undefined state {src!r} in trans")
        t = sidx.get(dst)
        if t is None:
            err(lineno, f"undefined state {dst!r} in trans")
        j = joint.get(acts)
        if j is None:
            names = [a.strip() for a in acts.split(",")]
            if len(names) != len(agents):
                err(lineno,
                    f"expected {len(agents)} actions, got {len(names)}")
            j = 0
            for name, a in zip(names, agents):
                if name not in aidx[a]:
                    err(lineno, f"undefined action {name!r} for agent {a}")
                j = j * len(act_lists[a]) + aidx[a][name]
            joint[acts] = j
        row = s * n_joint + j
        if successors[row] is not None:
            names = ",".join(a.strip() for a in acts.split(","))
            err(lineno, f"duplicate transition row for {src} ({names})")
        successors[row] = t

    g = cgs.Cgs(
        agents=list(agents),
        atoms=list(atoms),
        states=list(states),
        initial=init,
        final=frozenset(finals),
        actions=act_lists,
        successors=successors,
        labels=[frozenset(row) for row in labels],
    )
    cgs._validate_header(g)
    # every row read names a real state and joint action and fills its
    # own slot, so the rows are total exactly when no slot is empty; a
    # model handed to the driver is validated in full there
    if None in successors:
        cgs.validate(g)
    return g
