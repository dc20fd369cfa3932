"""Concurrent game structures: data model, expansion from functions,
CGSL text format, BDD encoding."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import repeat

from .bdd import BddStore
from .errors import InputError
from .formula import is_agent_name, is_atom_name


class CgsError(InputError):
    pass


@dataclass
class Cgs:
    """Explicit concurrent game structure with final states.

    States and actions are kept by name; indices follow declaration order.
    The transition function is total, so its rows, taken state by state
    and within a state in :meth:`joint_actions` order, are told by their
    targets alone: ``successors[s * n_joint() + j]`` is the successor of
    state ``s`` under the ``j``-th joint action.
    """

    agents: list
    atoms: list
    states: list
    initial: int
    final: frozenset
    actions: dict            # agent name -> list of action names
    successors: list         # state * n_joint() + joint action -> state
    labels: list             # state -> frozenset of atoms

    def n_joint(self):
        """The number of joint actions."""
        return math.prod(len(self.actions[a]) for a in self.agents)

    def joint_actions(self):
        ranges = [range(len(self.actions[a])) for a in self.agents]
        return itertools.product(*ranges)

    def joint_moves(self):
        """The action names of each joint action, one per agent, in
        :meth:`joint_actions` order."""
        return list(itertools.product(*(self.actions[a] for a in self.agents)))

    def reachable_states(self):
        n_joint = self.n_joint()
        succ = self.successors
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            new = set(succ[s * n_joint:(s + 1) * n_joint]) - seen
            seen |= new
            frontier += new
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
        joint = map(",".join, self.joint_moves())
        rows = itertools.product(self.states, joint)
        for (name, acts), t in zip(rows, self.successors):
            lines.append(f"trans {name} ({acts}) -> {self.states[t]}")
        return "\n".join(lines) + "\n"


def validate(g):
    """Check that ``g`` is a well-formed CGS with a total transition
    function into its states; returns ``g``."""
    _validate_header(g)
    n, n_joint = len(g.states), g.n_joint()
    succ = g.successors
    if len(succ) != n * n_joint:
        raise CgsError(f"{len(succ)} successors for {n} states and "
                       f"{n_joint} joint actions")
    if None in succ or min(succ) < 0 or max(succ) >= n:
        i, t = next((i, t) for i, t in enumerate(succ)
                    if t is None or not 0 <= t < n)
        state = g.states[i // n_joint]
        acts = ",".join(g.joint_moves()[i % n_joint])
        if t is None:
            raise CgsError("transition function not total: no row for "
                           f"state {state} and joint action ({acts})")
        raise CgsError(
            f"successor {t} of state {state} under ({acts}) is not a state")
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
    bad = _unwritable(g.states, _STATE_SIGNS)
    if bad is not None:
        raise CgsError(f"state name {bad!r} cannot be written in CGSL")
    for a in g.agents:
        bad = _unwritable(g.actions[a], _ACTION_SIGNS)
        if bad is not None:
            raise CgsError(
                f"action name {bad!r} of agent {a} cannot be written in CGSL")
    # a label line names its state up to the first ':'
    if ":" in " ".join(g.states):
        bad = next((s for s, row in zip(g.states, g.labels)
                    if row and ":" in s), None)
        if bad is not None:
            raise CgsError(
                f"labelled state name {bad!r} cannot be written in CGSL")


# what a state or action name cannot hold and still read back from CGSL
# text: a '(' or '->' in a trans row's source, or a ',' or '->' in its
# action text, splits the row elsewhere, and '#' starts a comment
_STATE_SIGNS = ("(", "#", "->")
_ACTION_SIGNS = (",", "#", "->")


def _unwritable(names, signs):
    """The first of ``names`` that CGSL text cannot carry, or None: an
    empty name, or one with whitespace or any of ``signs``.  A model
    with no such name pays one join and one split."""
    joined = " ".join(names)
    if joined.split() == list(names) and not any(map(joined.__contains__,
                                                     signs)):
        return None
    return next(n for n in names
                if n.split() != [n] or any(map(n.__contains__, signs)))


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
    # each distinct row is checked once, in order of first appearance, so
    # the first state with an undefined atom is the first such row's
    # first carrier
    for row in dict.fromkeys(labels):
        if not row <= declared:
            raise CgsError(f"undefined atom {min(row - declared)!r} in label "
                           f"of state {name(keys[labels.index(row)])}")

    g = Cgs(
        agents=list(agents),
        atoms=list(atoms),
        states=states,
        initial=index[initial],
        final=frozenset(i for i, k in enumerate(keys) if final(k)),
        actions={a: list(actions.get(a, ())) for a in agents},
        successors=[],
        labels=labels,
    )
    _validate_header(g)
    joint = g.joint_moves()
    for s, k in enumerate(keys):
        for moves in joint:
            nk = step(k, moves)
            t = index.get(nk)
            if t is None:
                raise CgsError(
                    f"successor {nk!r} of state {states[s]} under "
                    f"({','.join(moves)}) is not a state")
            g.successors.append(t)
    return g


# ---------------------------------------------------------------------------
# CGSL parser

def parse_model(text):
    """Parse the CGSL model format into a validated Cgs.

    The trans block that :meth:`Cgs.to_text` writes last is read as
    three token columns.  A text whose block is not in that form, whose
    rows do not run in that order or resolve, or that has any other
    error, is read again line by line and row by row, so both ways give
    the same Cgs, and an error is always the line reader's first.
    """
    head, columns = _trans_block(text)
    if columns is not None:
        # a model built from the columns has passed _validate_header, so
        # no source holds '(' or '->' and no action '->' or ',': each of
        # its rows reads the same line by line
        try:
            g = _parse(head, columns)
        except CgsError:
            g = None
        if g is not None:
            return g
    return _parse(text, None)


def _trans_block(text):
    """``text`` split before its trans block and the block's source,
    action and target token columns, or ``text`` and None.

    The block is every line from the first ``trans`` line after line 1
    to the end, and each of its lines must read exactly
    ``trans SRC (ACTS) -> DST``: one split of the block gives its
    tokens, and rebuilding the block from them proves that form.
    """
    cut = text.find("\ntrans ") + 1
    if not cut:
        return text, None
    block = text[cut:]
    toks = block.split()
    srcs, acts, dsts = toks[1::5], toks[2::5], toks[4::5]
    rows = zip(repeat("trans "), srcs, repeat(" "), acts, repeat(" -> "),
               dsts, repeat("\n"))
    if "".join(itertools.chain.from_iterable(rows)) != block:
        return text, None
    return text[:cut], (srcs, acts, dsts)


def _parse(text, columns):
    """Parse ``text`` line by line.  With the trans block's token
    ``columns``, which follow ``text``, take the resolved target column
    as the successor column, or return None unless the block holds
    every row in :meth:`Cgs.to_text`'s order; without them, resolve and
    check the rows one by one."""
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
        # the trans block aside, nearly every line of a model is a label
        # or transition row; its atom or action text is resolved once per
        # distinct text, after the scan
        if line.startswith("label "):
            state, colon, props = line[len("label "):].partition(":")
            if not colon:
                err(lineno, "malformed label line")
            label_lines.append((state.strip(), props, lineno))
        elif line.startswith("trans "):
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

    # each distinct label text is split, checked and frozen once, and
    # states that carry the same atoms share one row object
    atom_set = set(atoms)
    empty = frozenset()
    distinct = {empty: empty}     # row -> its one object
    read = {}                     # label text -> its row
    labels = [empty] * len(states)
    seen_labels = set()
    for state, props, lineno in label_lines:
        if state not in sidx:
            err(lineno, f"undefined state {state!r} in label")
        if state in seen_labels:
            err(lineno, f"duplicate label declaration for state {state}")
        seen_labels.add(state)
        row = read.get(props)
        if row is None:
            names = props.split()
            if not atom_set.issuperset(names):
                p = next(p for p in names if p not in atom_set)
                err(lineno, f"undefined atom {p!r} in label")
            row = frozenset(names)
            row = read[props] = distinct.setdefault(row, row)
        labels[sidx[state]] = row

    if columns is None:
        successors = _row_successors(trans_lines, agents, act_lists, aidx,
                                     sidx)
    else:
        successors = _column_successors(trans_lines, columns, states,
                                        act_lists, sidx)
        if successors is None:
            return None

    g = Cgs(
        agents=list(agents),
        atoms=list(atoms),
        states=list(states),
        initial=init,
        final=frozenset(finals),
        actions=act_lists,
        successors=successors,
        labels=labels,
    )
    _validate_header(g)
    # every row read names a real state and joint action and fills its
    # own slot, so the rows are total exactly when no slot is empty; a
    # model handed to the driver is validated in full there
    if None in successors:
        validate(g)
    return g


def _row_successors(trans_lines, agents, act_lists, aidx, sidx):
    """The successor column of the rows ``trans_lines`` read one by one,
    each checked in line order; a slot no row fills stays None."""
    def err(lineno, msg):
        raise CgsError(f"line {lineno}: {msg}")

    # the row of a state and joint action is its slot in the successor
    # column
    n_joint = math.prod(map(len, act_lists.values()))
    joint = {}          # action text -> joint action index
    successors = [None] * (len(sidx) * n_joint)
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
    return successors


def _column_successors(trans_lines, columns, states, act_lists, sidx):
    """The block's target column, resolved, as the successor column, or
    None unless no row came before the block and the source and action
    columns run in :meth:`Cgs.to_text`'s order: each state's rows in
    joint action order."""
    srcs, acts, dsts = columns
    tokens = ["(" + ",".join(m) + ")"
              for m in itertools.product(*act_lists.values())]
    if trans_lines or acts != tokens * len(states) or srcs != list(
            itertools.chain.from_iterable(
                map(repeat, states, repeat(len(tokens))))):
        return None
    try:
        return list(map(sidx.__getitem__, dsts))
    except KeyError:
        return None


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

    The vertex-layer bit of parity arenas comes first, then the model
    state and the automaton state, each interleaved with its primed
    partner, and each agent's action last.  A layout serves both
    semantics: variables a product does not use make no nodes.
    """
    nq = bits_for(len(g.states))
    blocks = [("l", 1), ("q", nq), ("q'", nq),
              ("s", automaton_bits), ("s'", automaton_bits)]
    for i, a in enumerate(g.agents):
        blocks.append((action_block_name(i), bits_for(len(g.actions[a]))))
    return blocks


def make_store(g, automaton_bits):
    return BddStore(store_blocks(g, automaton_bits))


@dataclass
class SymbolicCgs:
    """Bit-level encoding of a Cgs in a shared store.  The model's
    relation is kept only as each encoded coalition's moves: the joint
    relation over every agent's actions is never built."""

    g: Cgs
    store: BddStore
    q: object            # VarBlock for current state bits
    q_next: object
    action_blocks: dict  # agent -> VarBlock
    moves: dict          # frozenset of agents -> Bdd over (q, actions, q')
    final: object
    valid: object        # encodings of real states
    reach: object        # states reachable from the initial one
    action_valid: dict   # agent -> Bdd excluding padded action encodings


def encode_symbolic(g, store, reachable, coalitions):
    """Encode a Cgs into BDDs over the store's q/q'/action blocks.

    ``reachable`` is the set of states reachable from the initial one,
    and ``coalitions`` the coalitions whose moves a check reads.  Each
    distinct coalition's moves, the successors some response of the
    other agents yields, are built straight from the rows, in one
    :meth:`BddStore.from_points` call: the rows run state-major over
    the joint actions, so their sources and actions are the product of
    the state and action ranges, and each other agent's range enters
    that product with no block, which projects its action out.
    """
    q = store.block("q")
    qn = store.block("q'")
    action_blocks = {a: store.block(action_block_name(i))
                     for i, a in enumerate(g.agents)}

    product = [range(len(g.states))] + [range(len(g.actions[a]))
                                        for a in g.agents]
    moves = {}
    for coalition in dict.fromkeys(map(frozenset, coalitions)):
        blocks = [q] + [action_blocks[a] if a in coalition else None
                        for a in g.agents] + [qn]
        moves[coalition] = store.from_points(blocks, [g.successors],
                                             product=product)

    valid = store.from_points([q], [range(len(g.states))])
    final = store.from_points([q], [list(g.final)])
    reach = store.from_points([q], [list(reachable)])
    action_valid = {
        a: store.from_points([action_blocks[a]], [range(len(g.actions[a]))])
        for a in g.agents
    }

    return SymbolicCgs(
        g=g, store=store, q=q, q_next=qn, action_blocks=action_blocks,
        moves=moves, final=final, valid=valid,
        reach=reach, action_valid=action_valid,
    )


def coalition_moves(sg, coalition):
    """The coalition's action availability BDD and its move relation
    over (q, coalition actions, q'), as :func:`encode_symbolic` built
    it; the coalition must be one it was given.  The moves hold valid
    actions only, so the other agents' responses need no availability
    filter."""
    avail = sg.store.big_and(sg.action_valid[a] for a in sg.g.agents
                             if a in coalition)
    return avail, sg.moves[frozenset(coalition)]
