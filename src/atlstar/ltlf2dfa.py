"""LTLf path formulas to minimal DFAs, plus the symbolic DFA encoding.

The construction progresses the formula letter by letter: a translation
state is the obligation on the unread suffix, canonicalized as a BDD over
the temporal subformulas of the input.  The resulting automaton is then
minimized with Hopcroft's partition refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from .bdd import new_store


class TranslationError(Exception):
    pass


@dataclass
class Dfa:
    """Total deterministic automaton over the alphabet 2^atoms.

    Letters are bitmasks over ``atoms`` (bit i set = atoms[i] holds).
    """

    atoms: tuple
    n_states: int
    initial: int
    finals: frozenset
    delta: dict  # (state, letter mask) -> state

    def letter(self, labels):
        mask = 0
        for i, p in enumerate(self.atoms):
            if p in labels:
                mask |= 1 << i
        return mask

    def step(self, state, labels):
        return self.delta[(state, self.letter(labels))]

    def accepts(self, trace):
        if len(trace) < 1:
            raise TranslationError("traces must have at least one position")
        s = self.initial
        for labels in trace:
            s = self.step(s, labels)
        return s in self.finals

    def letters(self):
        return range(1 << len(self.atoms))

    def to_dot(self, name="dfa"):
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for s in range(self.n_states):
            shape = "doublecircle" if s in self.finals else "circle"
            lines.append(f'  s{s} [shape={shape}];')
        lines.append(f"  init [shape=point]; init -> s{self.initial};")
        for (s, a), t in sorted(self.delta.items()):
            labels = [self.atoms[i] for i in range(len(self.atoms)) if (a >> i) & 1]
            lines.append(f'  s{s} -> s{t} [label="{{{",".join(labels)}}}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass
class Nfa:
    """Intermediate nondeterministic automaton (possibly partial)."""

    atoms: tuple
    n_states: int
    initial: frozenset
    finals: frozenset
    delta: dict  # (state, letter mask) -> frozenset of states


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


def translate(psi):
    """Minimal DFA accepting exactly the finite traces satisfying psi."""
    pr = _Progression(psi)
    letters = range(1 << len(pr.atoms))

    # state 0 is the pre-initial state (nothing read yet)
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

    finals = set()
    for s in seen:
        if s == 0:
            if _empty_value(pr.core):
                finals.add(0)
        elif pr.accepting(bdd_states[s - 1]):
            finals.add(s)

    nfa = Nfa(
        atoms=pr.atoms,
        n_states=len(seen),
        initial=frozenset({0}),
        finals=frozenset(finals),
        delta={k: frozenset({v}) for k, v in delta.items()},
    )
    return determinize_minimize(nfa)


# ---------------------------------------------------------------------------
# Subset construction and Hopcroft minimization

def determinize_minimize(nfa):
    """Subset-construct and minimize; output is canonical up to isomorphism."""
    letters = list(range(1 << len(nfa.atoms)))

    subset_ids = {}
    subsets = []

    def sid(fs):
        if fs not in subset_ids:
            subset_ids[fs] = len(subsets)
            subsets.append(fs)
        return subset_ids[fs]

    init = sid(frozenset(nfa.initial))
    delta = {}
    frontier = [init]
    seen = {init}
    while frontier:
        s = frontier.pop()
        for a in letters:
            succ = frozenset(
                t for q in subsets[s] for t in nfa.delta.get((q, a), ())
            )
            t = sid(succ)
            delta[(s, a)] = t
            if t not in seen:
                seen.add(t)
                frontier.append(t)

    n = len(subsets)
    finals = {s for s in range(n) if subsets[s] & nfa.finals}

    part = _hopcroft(n, letters, delta, finals)

    # canonical renumbering: BFS from the initial block, letters ascending
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
        atoms=nfa.atoms,
        n_states=len(order),
        initial=0,
        finals=new_finals,
        delta=new_delta,
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


def encode_automaton(aut, sg, extra_labels=None):
    """Encode a deterministic automaton's transitions against a CGS.

    Shared by :func:`encode_dfa` and :func:`dpa.encode_dpa`.  Each letter
    becomes a guard over next-state bits: the conjunction of the (possibly
    negated) labelling predicates of the automaton's atoms, with the
    fresh-atom predicates in ``extra_labels`` taking part like model
    atoms, so the automaton synchronizes on the successor's label.
    Returns the ``s``/``s'`` blocks, the relation over (s, q', s') and a
    function mapping automaton state ids to a Bdd over ``s``.
    """
    store = sg.store
    s = store.block("s")
    sn = store.block("s'")
    if len(s.vars) < max(1, (aut.n_states - 1).bit_length()):
        raise TranslationError("store too small for automaton states")
    labels = dict(sg.lambda_)
    if extra_labels:
        labels.update(extra_labels)
    primed = {}
    for p in aut.atoms:
        if p not in labels:
            raise TranslationError(f"atom {p!r} has no labelling entry")
        primed[p] = store.rename(labels[p], sg.q, sg.q_next)

    def guard(letter):
        return store.big_and([
            primed[p] if (letter >> i) & 1 else ~primed[p]
            for i, p in enumerate(aut.atoms)
        ])

    # state pairs that share a letter set share one guard
    letters = {}
    for (src, a), dst in aut.delta.items():
        letters.setdefault((src, dst), []).append(a)
    pairs = {}
    for pair, group in letters.items():
        pairs.setdefault(tuple(sorted(group)), []).append(pair)
    delta = store.big_or([
        store.from_points([s, sn], group) & store.big_or(map(guard, key))
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


def dfa_accepts(dfa, trace):
    """Simulate from the initial state; accept iff the run ends final."""
    return dfa.accepts(trace)
