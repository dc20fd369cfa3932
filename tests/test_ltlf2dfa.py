import itertools
import random

import pytest

from atlstar import bench
from atlstar import driver
from atlstar import formula as fm
from atlstar import ltlf2dfa

import helpers


CORPUS = [
    "p", "!p", "p & q", "p | q", "p -> q",
    "X p", "X X p", "X (p & q)",
    "F p", "G p", "F !p", "G !p",
    "p U q", "q U p", "!(p U q)", "(p U q) U r",
    "F (p & q)", "G (p | q)", "G (p -> F q)", "F G p", "G F p",
    "p & X q", "p | G q", "F (p & X q)", "G (p -> X q)",
    "X F p", "F X p", "(F p) & (F q)", "(G p) | (F q)",
    "p U (q U r)",
]


def all_traces(atoms, max_len):
    letters = [frozenset(c) for c in _subsets(atoms)]
    for n in range(1, max_len + 1):
        yield from itertools.product(letters, repeat=n)


def _subsets(atoms):
    for bits in itertools.product([0, 1], repeat=len(atoms)):
        yield [a for a, b in zip(atoms, bits) if b]


def test_corpus_matches_trace_semantics():
    for text in CORPUS:
        psi = fm.parse_formula(text)
        dfa = ltlf2dfa.translate(psi)
        atoms = sorted(fm.atoms_of(psi))
        for trace in all_traces(atoms, 5):
            trace = list(trace)
            expected = helpers.eval_finite_trace(psi, trace, 0)
            assert helpers.dfa_accepts(dfa, trace) == expected, \
                (text, trace)


def test_known_minimal_sizes():
    # classic minimal DFA sizes over the needed alphabet
    assert ltlf2dfa.translate(fm.parse_formula("F p")).n_states == 2
    assert ltlf2dfa.translate(fm.parse_formula("G p")).n_states == 2
    assert ltlf2dfa.translate(fm.parse_formula("p U q")).n_states == 3


def test_dfa_is_total_and_canonical():
    for text in CORPUS:
        dfa = ltlf2dfa.translate(fm.parse_formula(text))
        letters = list(dfa.letters())
        for s in range(dfa.n_states):
            for a in letters:
                assert (s, a) in dfa.delta
        # canonical numbering: BFS from the initial state
        assert dfa.initial == 0


def assert_minimal(dfa, text):
    """No two states of ``dfa`` are language-equivalent over its letters."""
    n, letters = dfa.n_states, list(dfa.letters())
    classes = {s: (s in dfa.finals) for s in range(n)}
    changed = True
    while changed:
        changed = False
        sig = {
            s: (classes[s],) + tuple(
                classes[dfa.delta[(s, a)]] for a in letters)
            for s in range(n)
        }
        mapping = {}
        for s in range(n):
            mapping.setdefault(sig[s], len(mapping))
        new = {s: mapping[sig[s]] for s in range(n)}
        if new != classes:
            classes, changed = new, True
    assert len(set(classes.values())) == n, text


def test_minimality_via_refinement():
    # no two states of the output may be language-equivalent
    for text in CORPUS:
        assert_minimal(ltlf2dfa.translate(fm.parse_formula(text)), text)


def random_label_sets(rng, atoms):
    """A few state labels over ``atoms`` plus an atom no formula reads."""
    pool = list(atoms) + ["z"]
    return [frozenset(p for p in pool if rng.random() < 0.5)
            for _ in range(rng.randint(1, 5))]


def test_restricted_alphabet_agrees_and_is_minimal():
    rng = random.Random(47)
    for text in CORPUS:
        psi = fm.parse_formula(text)
        full = ltlf2dfa.translate(psi)
        for _ in range(4):
            labels = random_label_sets(rng, ["p", "q", "r"])
            dfa = ltlf2dfa.translate(psi, labels=labels)
            letters = sorted({full.letter(row) for row in labels})
            assert list(dfa.letters()) == letters, text
            assert dfa.n_states <= full.n_states, text
            for s in range(dfa.n_states):
                for a in letters:
                    assert (s, a) in dfa.delta
            assert len(dfa.delta) == dfa.n_states * len(letters)
            assert_minimal(dfa, text)
            rows = list(dict.fromkeys(labels))
            for n in range(1, 5):
                for trace in itertools.product(rows, repeat=n):
                    assert helpers.dfa_accepts(dfa, trace) == \
                        helpers.dfa_accepts(full, trace), \
                        (text, trace)


def test_letter_outside_alphabet_raises():
    psi = fm.parse_formula("p U q")
    dfa = ltlf2dfa.translate(psi, labels=[{"p"}, {"p", "z"}, {"q"}])
    assert dfa.letters() == (1, 2)
    assert helpers.dfa_accepts(dfa, [{"p"}, {"q"}])
    with pytest.raises(ltlf2dfa.TranslationError):
        helpers.dfa_step(dfa, dfa.initial, {"p", "q"})
    with pytest.raises(ltlf2dfa.TranslationError):
        helpers.dfa_accepts(dfa, [{"p"}, set()])
    # the full alphabet reads every letter
    assert len(ltlf2dfa.translate(psi).letters()) == 4


def per_state_carriers(aut, g):
    """``ltlf2dfa._letter_carriers`` computed one letter per state."""
    alphabet = set(aut.letters())
    carriers = {}
    for q, row in enumerate(g.labels):
        a = ltlf2dfa.letter_mask(aut.atoms, row)
        if a in alphabet:
            carriers.setdefault(a, []).append(q)
    return carriers


def test_letter_carriers_match_a_per_state_reference():
    # each distinct row's letter is computed once; the states carrying
    # each letter, in order, are those a per-state scan finds.  Fresh
    # atoms label states as an inner strategic subformula's would, and
    # the automaton reads the rows of some of the states only
    rng = random.Random(2609)
    for _ in range(60):
        g = helpers.random_cgs(rng, rng.randint(1, 12))
        n = len(g.states)
        labelled = g
        for i in range(rng.randint(0, 3)):
            labelled = driver._with_label(
                labelled, f"{fm.FRESH_PREFIX}{i}",
                {q for q in range(n) if rng.random() < 0.5})
        atoms = rng.sample(labelled.atoms, rng.randint(1, len(labelled.atoms)))
        body = fm.atom(atoms[0])
        for p in atoms[1:]:
            body = rng.choice([fm.until, fm.or_])(body, fm.atom(p))
        shown = rng.sample(range(n), rng.randint(1, n))
        rows = {labelled.labels[q] for q in shown}
        for aut in (ltlf2dfa.translate(body, labels=rows),
                    ltlf2dfa.translate(body)):
            assert (ltlf2dfa._letter_carriers(aut, labelled)
                    == per_state_carriers(aut, labelled))


def test_translate_deterministic():
    a = ltlf2dfa.translate(fm.parse_formula("G (p -> F q)"))
    b = ltlf2dfa.translate(fm.parse_formula("G (p -> F q)"))
    assert a.delta == b.delta and a.finals == b.finals


def test_progression_runs_once_per_letter(monkeypatch):
    # a letter's progression does not depend on the state it is read
    # from, so the number of progressions is bounded by the alphabet and
    # the obligations, not by the automaton's states
    calls = []
    real = ltlf2dfa._Progression.prog

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ltlf2dfa._Progression, "prog", counting)
    ladder = bench.counter_formula(6).children[0]
    model_labels = [frozenset(f"p{i}" for i in range(1, c + 1))
                    for c in range(7)]
    for psi, labels in [(ladder, None), (ladder, model_labels),
                        (fm.parse_formula("G (p -> F q) & (r U X q)"),
                         None)]:
        calls.clear()
        dfa = ltlf2dfa.translate(psi, labels=labels)
        obligations = {}
        ltlf2dfa._obligation_vars(fm.normalize(psi), obligations)
        letters = len(dfa.letters())
        assert dfa.n_states > 2
        assert len(calls) <= letters * (len(obligations) + 1)


def test_minimization_passes_follow_the_distinguishing_depth(monkeypatch):
    # G (p0 -> X^k p1) remembers the last k readings of p0: 2^k + 1
    # states, and two of them may first differ k letters ahead, so Moore
    # refinement splits for k passes and the (k + 1)-th finds nothing new
    passes = []
    real = ltlf2dfa._refine

    def counting(block, rows):
        passes.append(len(block))
        return real(block, rows)

    monkeypatch.setattr(ltlf2dfa, "_refine", counting)
    for k in range(2, 9):
        passes.clear()
        text = "G (p0 -> " + "X " * k + "p1)"
        dfa = ltlf2dfa.translate(fm.parse_formula(text))
        assert dfa.n_states == 2 ** k + 1, text
        assert len(passes) == k + 1, text
        assert_minimal(dfa, text)
