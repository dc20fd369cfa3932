"""LTLf path formulas to minimal DFAs, plus the symbolic encoding of any
deterministic automaton, DFA or DPA.

The construction progresses the formula letter by letter: a translation
state is the obligation on the unread suffix, canonicalized as a BDD over
the temporal subformulas of the input.  The resulting automaton is then
minimized by Moore's partition refinement.  It reads either all
2^|atoms| letters or, when a model is known, only the letters that the
model's states carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from .bdd import FALSE, TRUE, Bdd, BddStore
from .errors import InputError


class TranslationError(InputError):
    pass


def letter_mask(atoms, labels):
    """The letter a label set shows to an automaton over ``atoms``."""
    mask = 0
    for i, p in enumerate(atoms):
        if p in labels:
            mask |= 1 << i
    return mask


@dataclass
class Dfa:
    """Total deterministic automaton over an alphabet of letter bitmasks.

    Letters are bitmasks over ``atoms`` (bit i set = atoms[i] holds).
    ``alphabet`` is the sorted tuple of letters the automaton reads: all
    2^|atoms| of them, or only those that a model's states carry when
    :func:`translate` is given ``labels``.  ``delta`` is total over it.
    """

    atoms: tuple
    n_states: int
    initial: int
    finals: frozenset
    delta: dict  # (state, letter mask) -> state
    alphabet: tuple

    def letter(self, labels):
        return letter_mask(self.atoms, labels)

    def step(self, state, labels):
        try:
            return self.delta[(state, self.letter(labels))]
        except KeyError:
            shown = ",".join(p for p in self.atoms if p in labels)
            raise TranslationError(
                f"letter {{{shown}}} is outside the automaton's alphabet"
            ) from None

    def accepts(self, trace):
        if len(trace) < 1:
            raise TranslationError("traces must have at least one position")
        s = self.initial
        for labels in trace:
            s = self.step(s, labels)
        return s in self.finals

    def letters(self):
        return self.alphabet


# ---------------------------------------------------------------------------
# Formula progression

def _obligation_vars(f, out):
    """Collect (formula, weak) obligation keys for the progression.

    A key ``(g, weak)`` stands for "the remaining suffix satisfies g",
    evaluating to ``weak`` when the word has ended.
    """
    k = f.kind
    if k == "next":
        out.setdefault((f.children[0], False), None)
    elif k == "wnext":
        out.setdefault((f.children[0], True), None)
    elif k == "until":
        out.setdefault((f, False), None)
    elif k == "release":
        out.setdefault((f, True), None)
    for c in f.children:
        _obligation_vars(c, out)


def _empty_value(f):
    """Truth of an NNF formula on the empty suffix (weak closure)."""
    k = f.kind
    if k == "true" or k == "wnext" or k == "release":
        return True
    if k in ("false", "atom", "next", "until"):
        return False
    if k == "not":
        return not _empty_value(f.children[0])
    if k == "and":
        return all(_empty_value(c) for c in f.children)
    if k == "or":
        return any(_empty_value(c) for c in f.children)
    raise TranslationError(f"unexpected kind {k!r}")


class _Progression:
    """The progression of an NNF path formula, on node ids of its own store.

    The store has one variable per obligation key (see
    ``_obligation_vars``).  ``table`` lists the distinct subformulas of
    the core, children before parents, so that :meth:`prog` progresses
    all of them over a letter in one pass.
    """

    def __init__(self, psi):
        if fm.has_strategic(psi):
            raise TranslationError("formula contains a strategic operator")
        self.core = fm.normalize(psi)
        self.atoms = tuple(sorted(fm.atoms_of(self.core)))
        keys = {}
        _obligation_vars(self.core, keys)
        self.store = BddStore([("t", max(1, len(keys)))])
        blk = self.store.block("t")
        var_index = {key: blk.vars[i] for i, key in enumerate(keys)}
        var_node = {key: self.store.var(v).node
                    for key, v in var_index.items()}
        # the empty suffix's assignment: each obligation holds iff weak
        self.at_end = {v: weak for (_, weak), v in var_index.items()}

        rows = {}
        # (kind, operand, ...): operands are row numbers, except the node
        # ids of constants and obligation variables
        self.table = []

        def row(f):
            r = rows.get(f)
            if r is not None:
                return r
            k = f.kind
            # every child gets a row, an X operand too: the substitution
            # reads it
            kids = tuple(row(c) for c in f.children)
            if k == "atom":
                op = ("atom", self.atoms.index(f.name))
            elif k == "true":
                op = ("node", TRUE)
            elif k == "false":
                op = ("node", FALSE)
            elif k in ("not", "and", "or"):  # NNF: negation only on atoms
                op = (k,) + kids
            elif k == "next":
                op = ("node", var_node[(f.children[0], False)])
            elif k == "wnext":
                op = ("node", var_node[(f.children[0], True)])
            elif k == "until":
                op = (k,) + kids + (var_node[(f, False)],)
            elif k == "release":
                op = (k,) + kids + (var_node[(f, True)],)
            else:
                raise TranslationError(f"unexpected kind {k!r}")
            r = rows[f] = len(self.table)
            self.table.append(op)
            return r

        self.core_row = row(self.core)
        # each obligation variable is replaced by its formula's progression
        self.sub_rows = [(v, rows[g]) for (g, _), v in var_index.items()]

    def prog(self, letter):
        """Progress the core and every obligation over ``letter``.

        Returns the node of the obligation left after reading ``letter``
        from the pre-initial state, and the substitution (variable ->
        node) that takes any later state's obligation across ``letter``.
        Both depend on the letter alone.
        """
        st = self.store
        vals = []
        for op in self.table:
            k = op[0]
            if k == "atom":
                r = TRUE if (letter >> op[1]) & 1 else FALSE
            elif k == "node":
                r = op[1]
            elif k == "not":
                r = st._not(vals[op[1]])
            elif k == "and":
                r = st._and(vals[op[1]], vals[op[2]])
            elif k == "or":
                r = st._or(vals[op[1]], vals[op[2]])
            elif k == "until":
                _, a, b, v = op
                r = st._or(vals[b], st._and(vals[a], v))
            else:  # release
                _, a, b, v = op
                r = st._and(vals[b], st._or(vals[a], v))
            vals.append(r)
        return vals[self.core_row], {v: vals[r] for v, r in self.sub_rows}

    def accepting(self, node):
        return self.store.evaluate(Bdd(self.store, node), self.at_end)


def translate(psi, labels=None):
    """Minimal DFA accepting exactly the finite traces satisfying psi.

    Without ``labels`` the automaton reads all 2^|atoms| letters.  Given
    an iterable of state label sets, it reads only the distinct letters
    those sets give, projected onto psi's atoms, and is minimal over
    that alphabet; a model whose states carry those labels can never
    show it another letter.  Each set given is projected once, so a
    caller passes each distinct label row once.
    """
    pr = _Progression(psi)
    if labels is None:
        letters = tuple(range(1 << len(pr.atoms)))
    else:
        letters = tuple(sorted({letter_mask(pr.atoms, row) for row in labels}))

    # a letter's progression is the same from every state, so it is built
    # once, and one compose memo per letter serves every state
    compose = pr.store._compose
    steps = [(*pr.prog(a), {}) for a in letters]

    # state 0 is the pre-initial state (nothing read yet); progression is
    # deterministic, so its states go straight to minimization, as one
    # successor row per state in letter order
    nodes = [None]  # state id -> obligation node
    state_ids = {}  # obligation node -> state id
    rows = []
    for s, node in enumerate(nodes):  # nodes grows while it is walked
        row = []
        for first, sub, memo in steps:
            succ = first if s == 0 else compose(node, sub, memo)
            t = state_ids.get(succ)
            if t is None:
                t = state_ids[succ] = len(nodes)
                nodes.append(succ)
            row.append(t)
        rows.append(row)
    # the memos hold up to one entry per transition; free them before
    # minimization builds its own tables
    del steps, state_ids

    finals = [_empty_value(pr.core)] + [pr.accepting(n) for n in nodes[1:]]
    return _minimize(pr.atoms, letters, rows, finals)


# ---------------------------------------------------------------------------
# Moore minimization

def _refine(block, rows):
    """One Moore pass: renumber the states by (own block, successor blocks
    in letter order), in order of first appearance."""
    ids = {}
    return [ids.setdefault((b, *map(block.__getitem__, row)), len(ids))
            for b, row in zip(block, rows)]


def _minimize(atoms, letters, rows, finals):
    """Minimal DFA of the automaton whose state s reads ``letters[i]`` to
    ``rows[s][i]``, with initial state 0 and ``finals[s]`` telling whether
    s accepts; numbered canonically: BFS from the initial block, letters
    ascending."""
    ids = {}
    block = [ids.setdefault(f, len(ids)) for f in finals]
    while True:
        # blocks are numbered by first appearance, so a pass that splits
        # nothing returns the same list
        finer = _refine(block, rows)
        if finer == block:
            break
        block = finer

    rep = {}  # block -> its lowest state
    for s, b in enumerate(block):
        rep.setdefault(b, s)
    number = {block[0]: 0}
    order = [block[0]]
    for b in order:  # order grows while it is walked
        for t in rows[rep[b]]:
            if block[t] not in number:
                number[block[t]] = len(order)
                order.append(block[t])
    return Dfa(
        atoms=atoms,
        n_states=len(order),
        initial=0,
        finals=frozenset(number[b] for b in order if finals[rep[b]]),
        delta={(number[b], a): number[block[t]]
               for b in order for a, t in zip(letters, rows[rep[b]])},
        alphabet=letters,
    )


# ---------------------------------------------------------------------------
# Symbolic encoding against a CGS

@dataclass
class SymbolicAutomaton:
    """A deterministic automaton (a ``Dfa`` or a ``Dpa``) encoded against
    a CGS, its letters replaced by the model states that carry them.
    Each reader builds the state sets it needs from ``aut``."""

    aut: object     # the automaton encoded
    s: object
    s_next: object
    delta: object   # Bdd over (s, q', s')
    entry: object   # Bdd over (q, s): automaton state entered at q
    valid: object   # Bdd over s: the automaton's states

    def states(self, ids):
        """The automaton state ids ``ids`` as a Bdd over ``s``."""
        return self.delta.store.from_points([self.s], [list(ids)])


def _letter_carriers(aut, g):
    """States of the model ``g`` grouped by the letter they show the
    automaton.

    A state's letter is its label row projected onto the automaton's
    atoms, computed once per distinct row.  Letters outside the
    automaton's alphabet are left out: only states that no play reaches
    carry them.
    """
    masks = {}      # row -> its letter
    carriers = {}
    for q, row in enumerate(g.labels):
        a = masks.get(row)
        if a is None:
            a = masks[row] = letter_mask(aut.atoms, row)
        carriers.setdefault(a, []).append(q)
    alphabet = {a for _, a in aut.delta}
    return {a: qs for a, qs in carriers.items() if a in alphabet}


def encode_automaton(aut, sg, model=None):
    """Encode a deterministic automaton's transitions against a CGS.

    DFAs and DPAs alike go through here, under the names
    :func:`encode_dfa` and :func:`dpa.encode_dpa`.  The guard of a
    letter is the set of next states that carry it (see
    ``_letter_carriers``), so the automaton synchronizes on the
    successor's label.  ``model`` is the encoded model with the labels
    the automaton reads, fresh atoms included; it defaults to ``sg.g``.

    The automaton starts in its initial state and immediately reads the
    label of the current model state, so the entry relation pairs each
    state q with delta(initial, lambda(q)): the relation's step out of
    the initial state, with q' and s' renamed to q and s.
    """
    store = sg.store
    s = store.block("s")
    sn = store.block("s'")
    carriers = _letter_carriers(aut, model or sg.g)
    guards = {a: store.from_points([sg.q_next], [qs])
              for a, qs in carriers.items()}

    # state pairs that share a letter set share one guard
    letters = {}
    for (src, a), dst in aut.delta.items():
        if a in guards:
            letters.setdefault((src, dst), []).append(a)
    pairs = {}
    for pair, group in letters.items():
        pairs.setdefault(tuple(sorted(group)), []).append(pair)
    delta = store.big_or([
        store.from_points([s, sn], list(zip(*group)))
        & store.big_or([guards[a] for a in key])
        for key, group in sorted(pairs.items())
    ])
    entry = store.rename(
        store.and_exists(delta, store.from_points([s], [[aut.initial]]),
                         s.vars),
        [sg.q_next, sn], [sg.q, s])
    valid = store.from_points([s], [list(range(aut.n_states))])
    return SymbolicAutomaton(aut=aut, s=s, s_next=sn, delta=delta,
                             entry=entry, valid=valid)


encode_dfa = encode_automaton
