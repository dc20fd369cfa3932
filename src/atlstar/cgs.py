"""Concurrent game structures: data model, expansion from functions,
CGSL text format, BDD encoding."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bdd import BddStore, new_store
from .errors import InputError
from .formula import is_agent_name, is_atom_name


class CgsError(InputError):
    pass


@dataclass
class Cgs:
    """Explicit concurrent game structure with final states.

    States and actions are kept by name; indices follow declaration order.
    ``transitions`` maps (state index, tuple of per-agent action indices)
    to a successor index and is total by construction.
    """

    agents: list
    atoms: list
    states: list
    initial: int
    final: frozenset
    actions: dict            # agent name -> list of action names
    transitions: dict        # (state, joint action) -> state
    labels: list             # state -> frozenset of atoms

    def joint_actions(self):
        ranges = [range(len(self.actions[a])) for a in self.agents]
        return itertools.product(*ranges)

    def joint_moves(self):
        """Each joint action with its action names, one per agent."""
        return [(j, tuple(self.actions[a][i] for a, i in zip(self.agents, j)))
                for j in self.joint_actions()]

    def reachable_states(self):
        joint = list(self.joint_actions())
        step = self.transitions
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for j in joint:
                t = step[(s, j)]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    def to_text(self):
        lines = []
        lines.append("agents: " + " ".join(self.agents))
        lines.append("atoms: " + " ".join(self.atoms))
        lines.append("states: " + " ".join(self.states))
        lines.append("initial: " + self.states[self.initial])
        if self.final:
            lines.append(
                "final: " + " ".join(self.states[s] for s in sorted(self.final))
            )
        for a in self.agents:
            lines.append(f"actions {a}: " + " ".join(self.actions[a]))
        for name, row in zip(self.states, self.labels):
            if row:
                lines.append(f"label {name}: " + " ".join(sorted(row)))
        joint = [(j, ",".join(moves)) for j, moves in self.joint_moves()]
        for s, name in enumerate(self.states):
            for j, acts in joint:
                t = self.transitions[(s, j)]
                lines.append(f"trans {name} ({acts}) -> {self.states[t]}")
        return "\n".join(lines) + "\n"


def validate(g):
    """Check that ``g`` is a well-formed CGS with a total transition
    function; returns ``g``."""
    _validate_header(g)
    joint = g.joint_moves()
    for s in range(len(g.states)):
        for j, moves in joint:
            if (s, j) not in g.transitions:
                raise CgsError(
                    "transition function not total: no row for "
                    f"state {g.states[s]} and joint action "
                    f"({','.join(moves)})")
    if len(g.transitions) != len(g.states) * _n_joint(g):
        raise CgsError("spurious transition rows present")
    return g


def _validate_header(g):
    """The checks of :func:`validate` that do not read the transitions."""
    if not g.agents:
        raise CgsError("at least one agent required")
    if not g.states:
        raise CgsError("at least one state required")
    for a in g.agents:
        if not is_agent_name(a):
            raise CgsError(f"agent name {a!r} cannot be written in a formula")
        if not g.actions.get(a):
            raise CgsError(f"agent {a} has no actions")
    if not 0 <= g.initial < len(g.states):
        raise CgsError("initial state out of range")
    for s in g.final:
        if not 0 <= s < len(g.states):
            raise CgsError("final state out of range")
    for p in g.atoms:
        # no model atom starts with '_', so none clashes with the
        # driver's fresh atoms; their '__' prefix gets its own message
        if not is_atom_name(p):
            if p.startswith("__"):
                raise CgsError(f"atom {p!r} uses the reserved '__' prefix")
            raise CgsError(f"atom name {p!r} cannot be written in a formula")


def _n_joint(g):
    njoint = 1
    for a in g.agents:
        njoint *= len(g.actions[a])
    return njoint


def _shared_rows(rows):
    """The label ``rows`` as frozensets; states that carry the same atoms
    share one object."""
    distinct = {}
    return [distinct.setdefault(row, row) for row in map(frozenset, rows)]


# ---------------------------------------------------------------------------
# Expansion of a state space given by functions

def expand(agents, atoms, actions, keys, name, label, final, initial, step):
    """Build a validated Cgs from a state space given by functions.

    ``keys`` lists distinct hashable state keys in declaration order and
    ``actions`` maps each agent to its action names.  ``name(k)`` is a
    state's name, ``label(k)`` its atoms, ``final(k)`` whether it is
    final, and ``step(k, moves)`` its successor key when ``moves`` holds
    one action name per agent.  The checks the parser applies to model
    text apply here too.
    """
    states = [name(k) for k in keys]
    for names, what in [(agents, "agent names"), (atoms, "atoms"),
                        (states, "state names")] + [
            (actions.get(a, ()), f"actions for agent {a}") for a in agents]:
        if len(set(names)) != len(names):
            raise CgsError(f"duplicate {what}")
    index = {k: i for i, k in enumerate(keys)}
    if initial not in index:
        raise CgsError(f"initial key {initial!r} is not a state")

    labels = _shared_rows(label(k) for k in keys)
    declared = frozenset(atoms)
    for k, row in zip(keys, labels):
        if not row <= declared:
            raise CgsError(f"undefined atom {min(row - declared)!r} "
                           f"in label of state {name(k)}")

    g = Cgs(
        agents=list(agents),
        atoms=list(atoms),
        states=states,
        initial=index[initial],
        final=frozenset(i for i, k in enumerate(keys) if final(k)),
        actions={a: list(actions.get(a, ())) for a in agents},
        transitions={},
        labels=labels,
    )
    _validate_header(g)
    joint = g.joint_moves()
    transitions = g.transitions
    for s, k in enumerate(keys):
        for j, moves in joint:
            nk = step(k, moves)
            t = index.get(nk)
            if t is None:
                raise CgsError(
                    f"successor {nk!r} of state {states[s]} under "
                    f"({','.join(moves)}) is not a state")
            transitions[(s, j)] = t
    return g


# ---------------------------------------------------------------------------
# CGSL parser

def parse_model(text):
    """Parse the CGSL model format into a validated Cgs."""
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

    joint = {}          # action text -> joint action
    transitions = {}
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
            j = []
            for name, a in zip(names, agents):
                if name not in aidx[a]:
                    err(lineno, f"undefined action {name!r} for agent {a}")
                j.append(aidx[a][name])
            j = joint[acts] = tuple(j)
        key = (s, j)
        if key in transitions:
            names = ",".join(a.strip() for a in acts.split(","))
            err(lineno, f"duplicate transition row for {src} ({names})")
        transitions[key] = t

    g = Cgs(
        agents=list(agents),
        atoms=list(atoms),
        states=list(states),
        initial=init,
        final=frozenset(finals),
        actions=act_lists,
        transitions=transitions,
        labels=_shared_rows(labels),
    )
    _validate_header(g)
    # every row read names a real state and joint action, and no row
    # repeats, so the rows are total exactly when none is missing; a
    # model handed to the driver is validated in full there
    if len(transitions) != len(states) * _n_joint(g):
        validate(g)
    return g


# ---------------------------------------------------------------------------
# Symbolic encoding

def bits_for(n):
    if n <= 1:
        return 1
    return (n - 1).bit_length()


def action_block_name(i):
    """Name of the action block of the ``i``-th agent.  Blocks are named
    by position, so no agent name can collide with a block name."""
    return f"a{i}"


def store_blocks(g, automaton_bits):
    """Block layout for a store hosting this model plus an automaton.

    Every block has a primed partner, which the store interleaves with
    it: the vertex-layer bit of parity arenas, the model state, the
    automaton state and each agent's action.  The layer bit comes first,
    the automaton block follows the model state block and action blocks
    come last.  A layout serves both semantics: variables a product does
    not use make no nodes.
    """
    nq = bits_for(len(g.states))
    blocks = [("l", 1), ("l'", 1), ("q", nq), ("q'", nq),
              ("s", automaton_bits), ("s'", automaton_bits)]
    for i, a in enumerate(g.agents):
        name, na = action_block_name(i), bits_for(len(g.actions[a]))
        blocks += [(name, na), (name + "'", na)]
    return blocks


def make_store(g, automaton_bits, byte_budget=256 * 1024 * 1024):
    return new_store(store_blocks(g, automaton_bits), byte_budget=byte_budget)


@dataclass
class SymbolicCgs:
    """Bit-level encoding of a Cgs in a shared store."""

    g: Cgs
    store: BddStore
    q: object            # VarBlock for current state bits
    q_next: object
    action_blocks: dict  # agent -> VarBlock
    delta: object        # Bdd over (q, a, q')
    final: object
    valid: object        # encodings of real states
    reach: object        # states reachable from the initial one
    action_valid: dict   # agent -> Bdd excluding padded action encodings

    def decode(self, f, block=None):
        """Sorted state ids in a BDD over the state block."""
        return [
            s for s in self.store.minterms(f, block or self.q)
            if s < len(self.g.states)
        ]


def encode_symbolic(g, store, reachable=None):
    """Encode a Cgs into BDDs over the store's q/q'/action blocks.

    ``reachable`` is the set of states reachable from the initial one,
    if the caller already holds it; otherwise it is computed here.
    """
    q = store.block("q")
    qn = store.block("q'")
    action_blocks = {a: store.block(action_block_name(i))
                     for i, a in enumerate(g.agents)}

    blocks = [q] + [action_blocks[a] for a in g.agents] + [qn]
    delta = store.from_points(
        blocks, [(s,) + j + (t,) for (s, j), t in g.transitions.items()])

    def states(ids):
        return store.from_points([q], [(s,) for s in ids])

    valid = states(range(len(g.states)))
    final = states(g.final)
    if reachable is None:
        reachable = g.reachable_states()
    reach = states(reachable)
    action_valid = {
        a: store.from_points([action_blocks[a]],
                             [(i,) for i in range(len(g.actions[a]))])
        for a in g.agents
    }

    return SymbolicCgs(
        g=g, store=store, q=q, q_next=qn, action_blocks=action_blocks,
        delta=delta, final=final, valid=valid,
        reach=reach, action_valid=action_valid,
    )


def coalition_actions(sg, coalition):
    """Joint-action vars for a coalition and its availability BDD."""
    members = [a for a in sg.g.agents if a in set(coalition)]
    vars_ = []
    act = sg.store.true
    for a in members:
        vars_.extend(sg.action_blocks[a].vars)
        act = act & sg.action_valid[a]
    return vars_, act


def coalition_moves(sg, coalition):
    """The coalition's action vars, their availability BDD and its move
    relation over (q, coalition actions, q'): the successors that some
    response of the other agents yields.  ``delta`` holds valid joint
    actions only, so the response needs no availability filter."""
    vars_, avail = coalition_actions(sg, coalition)
    others = [v for a in sg.g.agents if a not in coalition
              for v in sg.action_blocks[a].vars]
    return vars_, avail, sg.store.exists(others, sg.delta)
