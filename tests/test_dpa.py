import itertools
import os
import stat

import pytest

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
    res = dp.race_translate(fm.parse_formula("G F p"), [bad, good],
                            timeout=10)
    assert "good.sh" in res.tool


def test_transition_based_to_state_based_preserves_language():
    d = dp.hoa_to_dpa(dp.parse_hoa(TRANS_PARITY))
    assert d.polarity == "min even"
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


def test_max_odd_normalized_to_min_even():
    d = dp.hoa_to_dpa(dp.parse_hoa(MAX_ODD))
    assert d.polarity == "min even"
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


def test_buchi_accepted_as_parity():
    d = dp.hoa_to_dpa(dp.parse_hoa(BUCHI))
    assert d.polarity == "min even"
    for pre, loop in lassos(2, 2, 2):
        assert d.accepts_lasso(pre, loop) == gfp_truth(pre, loop), (pre, loop)


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
    assert d.polarity == "min even"


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
    res = dp.race_translate(
        fm.parse_formula("G F p"),
        [f"{bad} '{{formula}}'", f"{good} '{{formula}}'"],
        timeout=10,
    )
    assert "good.sh" in res.tool
    assert res.hoa.n_states == 2


def test_race_translate_outfile_template(tmp_path):
    hoa_file = tmp_path / "src.hoa"
    hoa_file.write_text(TRANS_PARITY)
    tool = _script(tmp_path, "copy.sh", f'cp "{hoa_file}" "$1"\n')
    res = dp.race_translate(
        fm.parse_formula("G F p"), [f"{tool} {{outfile}}"], timeout=10)
    assert res.hoa.n_states == 2


def test_race_translate_all_fail(tmp_path):
    bad = _script(tmp_path, "bad.sh", "echo nonsense; exit 0\n")
    worse = _script(tmp_path, "worse.sh", "exit 1\n")
    with pytest.raises(dp.DpaError, match="all translator tools failed"):
        dp.race_translate(
            fm.parse_formula("G F p"),
            [f"{bad} '{{formula}}'", f"{worse} '{{formula}}'"],
            timeout=10,
        )
