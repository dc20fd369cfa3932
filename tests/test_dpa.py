import itertools
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlstar import dpa as dp
from atlstar import formula as fm


TRANS_PARITY = """\
HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: parity min even 2
Acceptance: 2 (Inf(0) | Fin(1))
--BODY--
State: 0
  [0] 0 {0}
  [!0] 1 {1}
State: 1
  [0] 0 {0}
  [!0] 1 {1}
--END--
"""

MAX_ODD = """\
HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: parity max odd 2
Acceptance: 2 (Inf(1) | Fin(0))
--BODY--
State: 0 {1}
  [0] 0
  [!0] 1
State: 1 {0}
  [0] 0
  [!0] 1
--END--
"""

BUCHI = """\
HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
  [0] 0
  [!0] 1
State: 1
  [0] 0
  [!0] 1
--END--
"""


def lassos(n_letters, max_pre, max_loop):
    letters = range(n_letters)
    for np in range(0, max_pre + 1):
        for pre in itertools.product(letters, repeat=np):
            for nl in range(1, max_loop + 1):
                for loop in itertools.product(letters, repeat=nl):
                    yield list(pre), list(loop)


def gfp_truth(prefix, loop):
    # the fixtures above all denote "G F p" over the single atom p
    return any(a & 1 for a in loop)


def test_parse_hoa_structure():
    hoa = dp.parse_hoa(TRANS_PARITY)
    assert hoa.n_states == 2 and hoa.start == 0 and hoa.aps == ["p"]
    assert hoa.acc_name[0] == "parity"
    assert len(hoa.states[0].edges) == 2
    assert hoa.states[0].edges[0].acc_sets == (0,)


def test_parse_hoa_errors():
    with pytest.raises(dp.HoaError):
        dp.parse_hoa("HOA: v1\nStates: 1\n")  # no body
    with pytest.raises(dp.HoaError):
        dp.parse_hoa("HOA: v1\nStates: 1\n--BODY--\n[t] 0\n--END--")  # no Start
    with pytest.raises(dp.HoaError):
        dp.parse_hoa(
            "HOA: v1\nStates: 2\nStart: 0\n--BODY--\nState: 0\n[t] 0\n--END--"
        )  # state 1 missing


def _one_state(body):
    return ("HOA: v1\nStates: 2\nStart: 0\nAP: 1 \"p\"\n"
            "acc-name: Buchi\nAcceptance: 1 Inf(0)\n--BODY--\n"
            f"{body}State: 1\n[t] 1\n--END--\n")


def test_hoa_state_labels_label_their_edges():
    # each unlabelled edge of a labelled state carries the state's label:
    # two edges under [t] are not deterministic, one edge under [0] is
    # not total; edges are implicit only under an unlabelled state
    for body in ("State: [t] 0 {0}\n0\n1\n", "State: [0] 0 {0}\n1\n"):
        with pytest.raises(dp.HoaError, match="deterministic-total"):
            dp.hoa_to_dpa(dp.parse_hoa(_one_state(body)))
    with pytest.raises(dp.HoaError, match="is labelled"):
        dp.parse_hoa(_one_state("State: [t] 0 {0}\n[0] 0\n"))
    d = dp.hoa_to_dpa(dp.parse_hoa(_one_state("State: [t] 0 {0}\n0\n")))
    assert d.delta == {(0, 0): 0, (0, 1): 0}
    d = dp.hoa_to_dpa(dp.parse_hoa(_one_state("State: 0 {0}\n0\n1\n")))
    assert d.delta == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_parse_hoa_rejects_undeclared_states(tmp_path):
    dangling_edge = TRANS_PARITY.replace("[0] 0 {0}", "[0] 5 {0}", 1)
    with pytest.raises(dp.HoaError, match="state 5 is not declared"):
        dp.parse_hoa(dangling_edge)
    with pytest.raises(dp.HoaError, match="state 7 is not declared"):
        dp.parse_hoa(TRANS_PARITY.replace("Start: 0", "Start: 7"))
    # in a race, a tool that prints such an automaton loses
    bad_file = tmp_path / "bad.hoa"
    bad_file.write_text(dangling_edge)
    good_file = tmp_path / "good.hoa"
    good_file.write_text(TRANS_PARITY)
    bad = _script(tmp_path, "bad.sh", f'cat "{bad_file}"\n')
    good = _script(tmp_path, "good.sh", f'sleep 0.2; cat "{good_file}"\n')
    _, tool = dp.race_translate(fm.parse_formula("G F p"), [bad, good],
                                timeout=10)
    assert "good.sh" in tool


# labels outside the HOA label syntax or past its limits, each with the
# words of its error; the state's other edge reads [0]
BAD_LABELS = {
    "tilde": ("!0 & ~0", "unexpected '~'"),
    "alias": ("@notp", "unexpected '@'"),
    "stray-letter": ("!0 z", "unexpected 'z'"),
    "ap-index": ("!0 | 5", "reads AP 5; the AP header declares 1"),
    "too-deep": (" | ".join(["!0"] * (fm.MAX_DEPTH + 1)), "nested deeper"),
}


def _buchi_with(label):
    """BUCHI with the label of state 0's [!0] edge replaced."""
    return BUCHI.replace("  [!0] 1", f"  [{label}] 1", 1)


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_parse_hoa_rejects_labels_outside_the_syntax(case):
    label, words = BAD_LABELS[case]
    with pytest.raises(dp.HoaError, match=re.escape(words)):
        dp.parse_hoa(_buchi_with(label))


def _labels(n_aps):
    """HOA label ASTs over ``n_aps`` AP indices: ("t",), ("f",),
    ("ap", i), ("!", x), ("&", x, y) and ("|", x, y)."""
    leaves = [st.just(("t",)), st.just(("f",))]
    if n_aps:
        leaves.append(st.tuples(st.just("ap"), st.integers(0, n_aps - 1)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.tuples(st.just("!"), sub),
            st.tuples(st.sampled_from("&|"), sub, sub)),
        max_leaves=12)


# binding strength: ! binds tighter than &, which binds tighter than |
_BINDS = {"|": 1, "&": 2, "!": 3}


def label_text(node, extra):
    """HOA syntax for a label AST, parenthesized only where the binding
    strengths need it, and also wherever ``extra`` draws True."""
    op = node[0]
    if op in ("t", "f"):
        text = op
    elif op == "ap":
        text = str(node[1])
    else:
        parts = [label_text(c, extra) if _BINDS.get(c[0], 4) >= _BINDS[op]
                 else f"({label_text(c, extra)})" for c in node[1:]]
        text = f"!{parts[0]}" if op == "!" else f" {op} ".join(parts)
    return f"({text})" if extra.draw(st.booleans()) else text


def label_holds(node, letter):
    """Reference truth of a label AST on a letter bitmask."""
    op = node[0]
    if op in ("t", "f"):
        return op == "t"
    if op == "ap":
        return bool(letter >> node[1] & 1)
    if op == "!":
        return not label_holds(node[1], letter)
    if op == "&":
        return label_holds(node[1], letter) and label_holds(node[2], letter)
    return label_holds(node[1], letter) or label_holds(node[2], letter)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_labels_read_as_the_reference_evaluator_reads_them(data):
    # state 0 moves to state 1 exactly on the letters the label holds on
    n_aps = data.draw(st.integers(0, 4))
    node = data.draw(_labels(n_aps))
    text = label_text(node, data)
    aps = " ".join(f'"p{i}"' for i in range(n_aps))
    hoa = (f"HOA: v1\nStates: 2\nStart: 0\nAP: {n_aps} {aps}\n"
           "acc-name: Buchi\nAcceptance: 1 Inf(0)\n--BODY--\n"
           f"State: 0\n[{text}] 1\n[!({text})] 0\n"
           "State: 1 {0}\n[t] 1\n--END--\n")
    d = dp.hoa_to_dpa(dp.parse_hoa(hoa))
    for letter in range(1 << n_aps):
        assert (d.delta[0, letter] != 0) == label_holds(node, letter), \
            (text, letter)


def test_transition_based_to_state_based_preserves_language():
    d = dp.hoa_to_dpa(dp.parse_hoa(TRANS_PARITY))
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


def test_max_odd_normalized_to_min_even():
    d = dp.hoa_to_dpa(dp.parse_hoa(MAX_ODD))
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


def test_buchi_accepted_as_parity():
    d = dp.hoa_to_dpa(dp.parse_hoa(BUCHI))
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


# acc-name -> acceptance condition as HOA spells it out: every parity
# condition with 2 and 3 sets, Büchi and co-Büchi
ACCEPTANCE = {
    "parity min even 2": "Inf(0) | Fin(1)",
    "parity min odd 2": "Fin(0) & Inf(1)",
    "parity max even 2": "Fin(1) & Inf(0)",
    "parity max odd 2": "Inf(1) | Fin(0)",
    "parity min even 3": "Inf(0) | (Fin(1) & Inf(2))",
    "parity min odd 3": "Fin(0) & (Inf(1) | Fin(2))",
    "parity max even 3": "Inf(2) | (Fin(1) & Inf(0))",
    "parity max odd 3": "Fin(2) & (Inf(1) | Fin(0))",
    "Buchi": "Inf(0)",
    "co-Buchi": "Fin(0)",
}


def condition_holds(condition, marks):
    """Truth of a HOA acceptance condition when exactly ``marks`` recur."""
    expr = re.sub(r"(Inf|Fin)\((\d+)\)",
                  lambda m: f"({m[2]} {'in' if m[1] == 'Inf' else 'not in'} "
                            "marks)", condition)
    expr = expr.replace("&", " and ").replace("|", " or ")
    return eval(expr, {"marks": marks})


def follow_p_hoa(name, n_sets, condition, marks):
    """Two states; reading p leads to state 1 and !p to state 0.  The
    edges (0, p), (0, !p), (1, p), (1, !p) carry ``marks`` in order."""
    lines = ["HOA: v1", "States: 2", "Start: 0", 'AP: 1 "p"',
             f"acc-name: {name}", f"Acceptance: {n_sets} {condition}",
             "--BODY--"]
    edges = iter(marks)
    for state in (0, 1):
        lines.append(f"State: {state}")
        for label, dest in (("0", 1), ("!0", 0)):
            m = next(edges)
            acc = " {" + " ".join(map(str, m)) + "}" if m else ""
            lines.append(f"  [{label}] {dest}{acc}")
    return "\n".join(lines + ["--END--"]) + "\n"


def follow_p_accepts(condition, marks, prefix, loop):
    """The HOA run of ``follow_p_hoa`` on prefix . loop^omega, judged
    by ``condition`` on the marks of its recurring edges."""
    state = 0
    for a in prefix:
        state = a & 1
    seen, edges, pos = {}, [], 0
    while (state, pos) not in seen:
        seen[(state, pos)] = len(edges)
        edges.append(2 * state + 1 - (loop[pos] & 1))
        state, pos = loop[pos] & 1, (pos + 1) % len(loop)
    recurring = edges[seen[(state, pos)]:]
    return condition_holds(condition, {m for e in recurring for m in marks[e]})


@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_acceptance_marks_keep_the_hoa_language(name):
    # unmarked edges and edges with two marks, under each polarity
    condition = ACCEPTANCE[name]
    n_sets = int(name[-1]) if name[-1].isdigit() else 1
    top = n_sets - 1
    options = [(), (0,), (top,), (0, top)] if top else [(), (0,)]
    for marks in itertools.product(options, repeat=4):
        hoa = follow_p_hoa(name, n_sets, condition, marks)
        d = dp.hoa_to_dpa(dp.parse_hoa(hoa))
        for pre, loop in lassos(2, 2, 2):
            assert d.accepts_lasso(pre, loop) == \
                follow_p_accepts(condition, marks, pre, loop), \
                (marks, pre, loop)


def test_marks_outside_the_acceptance_sets_are_rejected():
    with pytest.raises(dp.HoaError, match="mark 2 outside the 2 sets"):
        dp.hoa_to_dpa(dp.parse_hoa(TRANS_PARITY.replace("{1}", "{2}")))


def semantic_lasso(psi, atoms, prefix, loop):
    """Exact truth of an LTL formula on the word ``prefix . loop^omega``.

    Positions past the prefix are identified modulo the loop length, so the
    truth of every subformula depends only on the canonical position; U/R
    scans terminate once a canonical position repeats.
    """

    def labels(mask):
        return {atoms[i] for i in range(len(atoms)) if (mask >> i) & 1}

    pre = [labels(a) for a in prefix]
    lp = [labels(a) for a in loop]
    n, m = len(pre), len(lp)

    def canon(i):
        return i if i < n else n + (i - n) % m

    def lab(i):
        i = canon(i)
        return pre[i] if i < n else lp[i - n]

    memo = {}

    def ev(f, i):
        i = canon(i)
        key = (id(f), i)
        if key in memo:
            return memo[key]
        k = f.kind
        if k == "true":
            r = True
        elif k == "false":
            r = False
        elif k == "atom":
            r = f.name in lab(i)
        elif k == "not":
            r = not ev(f.children[0], i)
        elif k == "and":
            r = all(ev(c, i) for c in f.children)
        elif k == "or":
            r = any(ev(c, i) for c in f.children)
        elif k == "next":
            r = ev(f.children[0], i + 1)
        elif k in ("until", "release"):
            a, b = f.children
            seen = set()
            j, r = i, None
            while r is None:
                cj = canon(j)
                if cj in seen:
                    r = k == "release"
                    break
                seen.add(cj)
                if k == "until":
                    if ev(b, j):
                        r = True
                    elif not ev(a, j):
                        r = False
                else:
                    if not ev(b, j):
                        r = False
                    elif ev(a, j):
                        r = True
                j += 1
        else:
            raise AssertionError(k)
        memo[key] = r
        return r

    return ev(psi, 0)


FALLBACK_OK = [
    "F p", "p U q", "F (p & q)", "X p", "p & F q",
    "G p", "G (p | q)", "!p & G !q",
    "G (p -> F q)", "G F q",
    # shapes only the NNF shows as the response pattern
    "!F (p & G !q)", "false R (!p | true U q)",
]


def test_fallback_languages():
    for text in FALLBACK_OK:
        psi = fm.parse_formula(text)
        d = dp.fallback_translate(psi)
        atoms = d.atoms
        n = 1 << len(atoms)
        for pre, loop in lassos(n, 2, 2):
            got = d.accepts_lasso(pre, loop)
            want = semantic_lasso(fm.normalize(psi), atoms, pre, loop)
            assert got == want, (text, pre, loop)


def test_fallback_rejects_uncovered():
    with pytest.raises(dp.DpaError):
        dp.fallback_translate(fm.parse_formula("G (p -> F (q & X q))"))
    with pytest.raises(dp.DpaError):
        dp.fallback_translate(fm.parse_formula("(G p) | (F G q)"))


def test_obtain_dpa_builtin():
    d, tool = dp.obtain_dpa(fm.parse_formula("G p"))
    assert tool == "builtin"


def _script(tmp_path, name, body):
    p = tmp_path / name
    p.write_text("#!/bin/sh\n" + body)
    p.chmod(p.stat().st_mode | stat.S_IEXEC)
    return str(p)


def test_race_translate_winner(tmp_path):
    hoa_file = tmp_path / "out.hoa"
    hoa_file.write_text(TRANS_PARITY)
    good = _script(tmp_path, "good.sh", f'cat "{hoa_file}"\n')
    bad = _script(tmp_path, "bad.sh", "exit 3\n")
    d, tool = dp.race_translate(
        fm.parse_formula("G F p"),
        [f"{bad} '{{formula}}'", f"{good} '{{formula}}'"],
        timeout=10,
    )
    assert "good.sh" in tool
    # the transition-based marks split state 1 by incoming priority
    assert d.n_states == 3


def test_race_translate_outfile_template(tmp_path):
    hoa_file = tmp_path / "src.hoa"
    hoa_file.write_text(TRANS_PARITY)
    tool = _script(tmp_path, "copy.sh", f'cp "{hoa_file}" "$1"\n')
    d, _ = dp.race_translate(
        fm.parse_formula("G F p"), [f"{tool} {{outfile}}"], timeout=10)
    assert d.n_states == 3


def test_race_translate_all_fail(tmp_path):
    bad = _script(tmp_path, "bad.sh", "echo nonsense; exit 0\n")
    worse = _script(tmp_path, "worse.sh", "exit 1\n")
    with pytest.raises(dp.DpaError, match="all translator tools failed"):
        dp.race_translate(
            fm.parse_formula("G F p"),
            [f"{bad} '{{formula}}'", f"{worse} '{{formula}}'"],
            timeout=10,
        )


RABIN = """\
HOA: v1
States: 1
Start: 0
AP: 1 "p"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[t] 0 {1}
--END--
"""

# outputs that parse as HOA text but give no Dpa the checker can use
UNUSABLE = {
    "rabin": RABIN,
    "nondeterministic": BUCHI.replace("  [!0] 1", "  [t] 1", 1),
    **{case: _buchi_with(label) for case, (label, _) in BAD_LABELS.items()},
}


@pytest.mark.parametrize("case", sorted(UNUSABLE))
def test_a_tool_whose_automaton_does_not_convert_loses(case, tmp_path):
    # the fast tool prints first, but only the slow one's automaton
    # converts, so the slow one wins with the language G F p
    (tmp_path / "fast.hoa").write_text(UNUSABLE[case])
    (tmp_path / "slow.hoa").write_text(BUCHI)
    fast = f"cat {tmp_path / 'fast.hoa'}"
    slow = f"sleep 0.5; cat {tmp_path / 'slow.hoa'}"
    d, tool = dp.obtain_dpa(fm.parse_formula("G F p"), [fast, slow],
                            timeout=10)
    assert tool == slow
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)

