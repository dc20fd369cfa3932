import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from atlstar import formula as fm

import helpers


def random_formula(rng, depth, atoms=("p", "q", "r"), state_only=False):
    if depth == 0 or rng.random() < 0.25:
        c = rng.random()
        if c < 0.1:
            return fm.TRUE
        if c < 0.2:
            return fm.FALSE
        return fm.atom(rng.choice(atoms))
    kind = rng.choice(
        ["not", "and", "or", "next", "until", "finally", "globally",
         "strategic"])
    if state_only and kind in ("next", "until", "finally", "globally"):
        kind = "and"
    if kind == "strategic":
        body = random_formula(rng, depth - 1, atoms)
        return fm.strategic(("a",), body)
    if kind in ("not", "next", "finally", "globally"):
        sub = random_formula(rng, depth - 1, atoms, state_only)
        return getattr(fm, {"not": "not_", "next": "next_",
                            "finally": "finally_",
                            "globally": "globally"}[kind])(sub)
    a = random_formula(rng, depth - 1, atoms, state_only)
    b = random_formula(rng, depth - 1, atoms, state_only)
    return {"and": fm.and_, "or": fm.or_, "until": fm.until}[kind](a, b)


def test_parse_basic():
    f = fm.parse_formula("<<a,b>> F p & X q")
    assert f.kind == "strategic"
    assert f.coalition == frozenset({"a", "b"})
    body = f.children[0]
    assert body.kind == "and"


def test_parse_precedence():
    f = fm.parse_formula("p | q & r")
    assert f.kind == "or"
    assert f.children[1].kind == "and"
    g = fm.parse_formula("p -> q -> r")
    # implies is right-associative and desugars to or/not
    assert g.kind == "or"


def test_unicode_aliases():
    assert fm.parse_formula("¬p ∧ q") == fm.parse_formula("!p & q")
    assert fm.parse_formula("⟨⟨a⟩⟩ G p") == fm.parse_formula("<<a>> G p")


def test_parse_errors_have_positions():
    for text in ["p &", "<<>> p U", "(p", "p q", "P", "<<a> F p"]:
        with pytest.raises(fm.ParseError):
            fm.parse_formula(text)
    try:
        fm.parse_formula("p &\n& q")
    except fm.ParseError as e:
        assert "line 2" in str(e)


def test_roundtrip_random():
    rng = random.Random(4)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 6))
        assert fm.parse_formula(fm.to_str(f)) == f


def test_strategic_scopes_right():
    f = fm.parse_formula("<<a>> F p & q")
    assert f.kind == "strategic"
    assert f.children[0].kind == "and"
    g = fm.parse_formula("(<<a>> F p) & q")
    assert g.kind == "and"
    assert fm.parse_formula(fm.to_str(g)) == g


def test_classify():
    assert fm.classify(fm.parse_formula("p & <<a>> F q")) == "state"
    assert fm.classify(fm.parse_formula("F p")) == "path"
    assert fm.classify(fm.parse_formula("p & X q")) == "path"


def test_extract_state_subformulas():
    f = fm.parse_formula("F (p & <<a>> G q)")
    core, amap = fm.extract_state_subformulas(f, itertools.count(1))
    assert len(amap) == 1
    fresh = next(iter(amap))
    assert fresh.startswith(fm.FRESH_PREFIX)
    assert amap[fresh] == fm.parse_formula("<<a>> G q")
    # plain atoms stay put
    assert "p" in {a for a in fm.atoms_of(core)}
    assert helpers.substitute_atoms(core, amap) == f


def test_normalize_rejects_strategic():
    with pytest.raises(fm.FormulaError):
        fm.normalize(fm.parse_formula("<<a>> F p"))


def all_traces(atoms, length):
    letters = []
    for bits in itertools.product([0, 1], repeat=len(atoms)):
        letters.append(frozenset(a for a, b in zip(atoms, bits) if b))
    return itertools.product(letters, repeat=length)


def test_normalize_preserves_finite_trace_semantics():
    rng = random.Random(8)
    atoms = ("p", "q")
    for _ in range(150):
        f = random_formula(rng, rng.randint(0, 4), atoms=atoms)
        if fm.has_strategic(f):
            continue
        nf = fm.normalize(f)
        for n in (1, 2, 3):
            for trace in all_traces(atoms, n):
                trace = list(trace)
                assert fm.eval_finite_trace(f, trace, 0) == \
                    fm.eval_finite_trace(nf, trace, 0)


def test_eval_finite_trace_basics():
    p = fm.parse_formula("p")
    trace = [frozenset(), frozenset({"p"})]
    assert not fm.eval_finite_trace(p, trace, 0)
    assert fm.eval_finite_trace(fm.parse_formula("X p"), trace, 0)
    assert fm.eval_finite_trace(fm.parse_formula("F p"), trace, 0)
    assert not fm.eval_finite_trace(fm.parse_formula("G p"), trace, 0)
    # X needs a successor on finite traces
    assert not fm.eval_finite_trace(fm.parse_formula("X p"), trace, 1)


def test_fresh_atom_names_are_reserved():
    # no atom a formula or model may name starts with '__'; the
    # caller's numbers go on from one extraction to the next
    f = fm.parse_formula("(<<a>> F p) U (<<b>> G q)")
    numbers = itertools.count(1)
    _, first = fm.extract_state_subformulas(f, numbers)
    _, second = fm.extract_state_subformulas(f, numbers)
    names = [*first, *second]
    assert names == [f"{fm.FRESH_PREFIX}{i}" for i in range(1, 5)]
    assert all(n.startswith("__") and not fm.is_atom_name(n)
               for n in names)


def reads_back(text, want):
    try:
        return fm.parse_formula(text) == want
    except fm.ParseError:
        return False


@given(st.text(alphabet="aFGRUXb_9'-, <>!trusefl", min_size=1, max_size=6))
@example("true")
@example("false")
@example("F")
@example("Goal")
@example("a1")
def test_writable_names_are_those_the_parser_reads_back(name):
    assert fm.is_agent_name(name) == reads_back(
        f"<<{name}>> true", fm.strategic([name], fm.TRUE))
    assert fm.is_atom_name(name) == reads_back(name, fm.atom(name))
