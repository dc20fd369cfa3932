"""LTLf path formulas to minimal DFAs, plus the symbolic DFA encoding.

The construction progresses the formula letter by letter: a translation
state is the obligation on the unread suffix, canonicalized as a BDD over
the temporal subformulas of the input.  The resulting automaton is then
minimized with Hopcroft's partition refinement.  It reads either all
2^|atoms| letters or, when a model is known, only the letters that the
model's states carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from .bdd import new_store


class TranslationError(Exception):
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
    def __init__(self, psi):
        if fm.has_strategic(psi):
            raise TranslationError("formula contains a strategic operator")
        self.core = fm.normalize(psi)
        self.atoms = tuple(sorted(fm.atoms_of(self.core)))
        keys = {}
        _obligation_vars(self.core, keys)
        self.keys = list(keys)
        self.store = new_store([("t", max(1, len(self.keys)))])
        blk = self.store.block("t")
        self.var_index = {key: blk.vars[i] for i, key in enumerate(self.keys)}
        self.var_of = {key: self.store.var(v) for key, v in self.var_index.items()}

    def letter_has(self, letter, p):
        return bool((letter >> self.atoms.index(p)) & 1)

    def prog(self, f, letter):
        """Obligation on the remaining suffix after reading ``letter``."""
        st = self.store
        k = f.kind
        if k == "atom":
            return st.true if self.letter_has(letter, f.name) else st.false
        if k == "true":
            return st.true
        if k == "false":
            return st.false
        if k == "not":  # NNF: negation only on atoms
            return ~self.prog(f.children[0], letter)
        if k == "and":
            return self.prog(f.children[0], letter) & self.prog(f.children[1], letter)
        if k == "or":
            return self.prog(f.children[0], letter) | self.prog(f.children[1], letter)
        if k == "next":
            return self.var_of[(f.children[0], False)]
        if k == "wnext":
            return self.var_of[(f.children[0], True)]
        if k == "until":
            a, b = f.children
            return self.prog(b, letter) | (
                self.prog(a, letter) & self.var_of[(f, False)]
            )
        if k == "release":
            a, b = f.children
            return self.prog(b, letter) & (
                self.prog(a, letter) | self.var_of[(f, True)]
            )
        raise TranslationError(f"unexpected kind {k!r}")

    def step(self, state_bdd, letter):
        sub = {
            self.var_index[(g, weak)]: self.prog(g, letter)
            for (g, weak) in self.keys
        }
        return self.store.compose(state_bdd, sub)

    def accepting(self, state_bdd):
        assignment = {
            self.var_index[(g, weak)]: weak for (g, weak) in self.keys
        }
        return self.store.evaluate(state_bdd, assignment)


def translate(psi, labels=None):
    """Minimal DFA accepting exactly the finite traces satisfying psi.

    Without ``labels`` the automaton reads all 2^|atoms| letters.  Given
    an iterable of state label sets, it reads only the distinct letters
    those sets give, projected onto psi's atoms, and is minimal over
    that alphabet; a model whose states carry those labels can never
    show it another letter.
    """
    pr = _Progression(psi)
    if labels is None:
        letters = tuple(range(1 << len(pr.atoms)))
    else:
        letters = tuple(sorted({letter_mask(pr.atoms, row) for row in labels}))

    # state 0 is the pre-initial state (nothing read yet); progression is
    # deterministic, so its states go straight to minimization
    state_ids = {}
    bdd_states = []  # id (from 1) -> bdd

    def state_id(b):
        if b not in state_ids:
            state_ids[b] = len(bdd_states) + 1
            bdd_states.append(b)
        return state_ids[b]

    delta = {}
    frontier = [0]
    seen = {0}
    while frontier:
        s = frontier.pop()
        for a in letters:
            if s == 0:
                succ_bdd = pr.prog(pr.core, a)
            else:
                succ_bdd = pr.step(bdd_states[s - 1], a)
            t = state_id(succ_bdd)
            delta[(s, a)] = t
            if t not in seen:
                seen.add(t)
                frontier.append(t)

    finals = {s for s in seen if s and pr.accepting(bdd_states[s - 1])}
    if _empty_value(pr.core):
        finals.add(0)
    return _minimize(pr.atoms, letters, len(seen), 0, delta, finals)


# ---------------------------------------------------------------------------
# Hopcroft minimization

def _minimize(atoms, letters, n, init, delta, finals):
    """Minimal DFA of a total deterministic automaton over ``letters``,
    numbered canonically: BFS from the initial block, letters ascending."""
    part = _hopcroft(n, letters, delta, finals)

    block_of = {}
    for i, block in enumerate(part):
        for s in block:
            block_of[s] = i
    order = []
    number = {}
    queue = [block_of[init]]
    number[block_of[init]] = 0
    order.append(block_of[init])
    while queue:
        b = queue.pop(0)
        rep = min(part[b])
        for a in letters:
            tb = block_of[delta[(rep, a)]]
            if tb not in number:
                number[tb] = len(order)
                order.append(tb)
                queue.append(tb)

    new_delta = {}
    for b in order:
        rep = min(part[b])
        for a in letters:
            new_delta[(number[b], a)] = number[block_of[delta[(rep, a)]]]
    new_finals = frozenset(
        number[b] for b in order if min(part[b]) in finals
    )
    return Dfa(
        atoms=atoms,
        n_states=len(order),
        initial=0,
        finals=new_finals,
        delta=new_delta,
        alphabet=letters,
    )


def _hopcroft(n, letters, delta, finals):
    """Return the coarsest congruence as a list of state sets."""
    preds = {a: [[] for _ in range(n)] for a in letters}
    for (s, a), t in delta.items():
        preds[a][t].append(s)

    finals = set(finals)
    nonfinals = set(range(n)) - finals
    part = [s for s in (finals, nonfinals) if s]
    work = [s.copy() for s in part]
    while work:
        splitter = work.pop()
        for a in letters:
            x = {p for t in splitter for p in preds[a][t]}
            if not x:
                continue
            new_part = []
            for block in part:
                inter = block & x
                diff = block - x
                if inter and diff:
                    new_part.append(inter)
                    new_part.append(diff)
                    if block in work:
                        work.remove(block)
                        work.append(inter)
                        work.append(diff)
                    else:
                        work.append(min(inter, diff, key=len))
                else:
                    new_part.append(block)
            part = new_part
    return part


# ---------------------------------------------------------------------------
# Symbolic encoding against a CGS

@dataclass
class SymbolicDfa:
    """DFA transition relation with labels replaced by state predicates."""

    dfa: Dfa
    store: object
    s: object
    s_next: object
    delta: object   # Bdd over (s, q', s')
    init: object    # Bdd over s
    finals: object  # Bdd over s
    valid: object   # Bdd over s


def _letter_carriers(aut, sg, extra_labels=None):
    """Model states grouped by the letter they show the automaton.

    A state's letter is its label projected onto the automaton's atoms;
    ``extra_labels`` maps fresh atoms to the explicit sets of states where
    they hold.  Letters outside the automaton's alphabet are left out:
    only states that no play reaches carry them.
    """
    extra_labels = extra_labels or {}
    g = sg.g
    for p in aut.atoms:
        if p not in g.atoms and p not in extra_labels:
            raise TranslationError(f"atom {p!r} has no labelling entry")
    carriers = {}
    for q in range(len(g.states)):
        row = g.labels[q]
        if extra_labels:
            row = row | {p for p, qs in extra_labels.items() if q in qs}
        carriers.setdefault(letter_mask(aut.atoms, row), []).append(q)
    alphabet = {a for _, a in aut.delta}
    return {a: qs for a, qs in carriers.items() if a in alphabet}


def encode_automaton(aut, sg, extra_labels=None):
    """Encode a deterministic automaton's transitions against a CGS.

    Shared by :func:`encode_dfa` and :func:`dpa.encode_dpa`.  The guard
    of a letter is the set of next states that carry it (see
    ``_letter_carriers``), so the automaton synchronizes on the
    successor's label.  Returns the ``s``/``s'`` blocks, the relation
    over (s, q', s') and a function mapping automaton state ids to a Bdd
    over ``s``.
    """
    store = sg.store
    s = store.block("s")
    sn = store.block("s'")
    if len(s.vars) < max(1, (aut.n_states - 1).bit_length()):
        raise TranslationError("store too small for automaton states")
    guards = {a: store.from_points([sg.q_next], [(q,) for q in qs])
              for a, qs in _letter_carriers(aut, sg, extra_labels).items()}

    # state pairs that share a letter set share one guard
    letters = {}
    for (src, a), dst in aut.delta.items():
        if a in guards:
            letters.setdefault((src, dst), []).append(a)
    pairs = {}
    for pair, group in letters.items():
        pairs.setdefault(tuple(sorted(group)), []).append(pair)
    delta = store.big_or([
        store.from_points([s, sn], group)
        & store.big_or([guards[a] for a in key])
        for key, group in sorted(pairs.items())
    ])

    def states(ids):
        return store.from_points([s], [(i,) for i in ids])

    return s, sn, delta, states


def encode_dfa(dfa, sg, extra_labels=None):
    """Build the symbolic transition relation over (s, q', s')."""
    s, sn, delta, states = encode_automaton(dfa, sg, extra_labels)
    return SymbolicDfa(
        dfa=dfa, store=sg.store, s=s, s_next=sn, delta=delta,
        init=states([dfa.initial]), finals=states(dfa.finals),
        valid=states(range(dfa.n_states)),
    )

