import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlstar import bench
from atlstar import cgs
from atlstar import driver
from atlstar import formula as fm
from atlstar import ltlf2dfa

import helpers


BASIC = """
# a tiny two-agent arena
agents: a b
atoms: p goal
states: s0 s1 s2
initial: s0
final: s2
actions a: go stay
actions b: go stay
label s1: p
label s2: p goal
trans s0 (go,go) -> s2
trans s0 (go,stay) -> s1
trans s0 (stay,go) -> s1
trans s0 (stay,stay) -> s0
trans s1 (go,go) -> s2
trans s1 (go,stay) -> s2
trans s1 (stay,go) -> s1
trans s1 (stay,stay) -> s1
trans s2 (go,go) -> s2
trans s2 (go,stay) -> s2
trans s2 (stay,go) -> s2
trans s2 (stay,stay) -> s2
"""


def test_parse_basic():
    g = cgs.parse_model(BASIC)
    assert g.agents == ["a", "b"]
    assert len(g.states) == 3
    assert g.final == frozenset({2})
    assert g.labels[1] == frozenset({"p"})
    cgs.validate(g)


def test_emit_roundtrip():
    g = cgs.parse_model(BASIC)
    g2 = cgs.parse_model(g.to_text())
    assert g2.to_text() == g.to_text()
    assert g2.successors == g.successors


def test_parse_error_messages():
    missing = BASIC.replace("trans s0 (go,go) -> s2\n", "")
    with pytest.raises(cgs.CgsError, match="not total"):
        cgs.parse_model(missing)
    with pytest.raises(cgs.CgsError, match="line"):
        cgs.parse_model("agents: a\nbogus line here\n")
    with pytest.raises(cgs.CgsError):
        cgs.parse_model(BASIC.replace("atoms: p goal", "atoms: __p goal"))
    with pytest.raises(cgs.CgsError):
        cgs.parse_model(BASIC.replace("-> s1", "-> nowhere", 1))


# every way a trans line can fail: (replacement of the first trans line,
# or None to append a duplicate row, and the exact message)
TRANS_ERRORS = {
    "malformed": ("trans s0 go,go -> s2", "malformed trans line"),
    "no-arrow": ("trans s0 (go,go) s2", "malformed trans line"),
    "undefined-source": ("trans s9 (go,go) -> s2",
                         "undefined state 's9' in trans"),
    "undefined-destination": ("trans s0 (go,go) -> nowhere",
                              "undefined state 'nowhere' in trans"),
    "source-before-destination": ("trans s9 (go,go) -> nowhere",
                                  "undefined state 's9' in trans"),
    "too-few-actions": ("trans s0 (go) -> s2", "expected 2 actions, got 1"),
    "too-many-actions": ("trans s0 (go,go,go) -> s2",
                         "expected 2 actions, got 3"),
    "undefined-action": ("trans s0 (go,jump) -> s2",
                         "undefined action 'jump' for agent b"),
    "undefined-first-action": ("trans s0 (jump,jump) -> s2",
                               "undefined action 'jump' for agent a"),
    "duplicate-row": (None, "duplicate transition row for s0 (go,go)"),
}


@pytest.mark.parametrize("case", sorted(TRANS_ERRORS))
def test_trans_error_messages(case):
    line, msg = TRANS_ERRORS[case]
    first = "trans s0 (go,go) -> s2"
    if line is None:
        text = BASIC + "trans  s0 ( go , go )  ->  s1\n"
        lineno = len(BASIC.splitlines()) + 1
    else:
        text = BASIC.replace(first, line)
        lineno = BASIC.splitlines().index(first) + 1
    assert lineno in (12, 24)
    with pytest.raises(cgs.CgsError) as err:
        cgs.parse_model(text)
    assert str(err.value) == f"line {lineno}: {msg}"


def test_trans_errors_follow_line_order():
    # the earliest bad trans line is reported, whatever its failure
    text = BASIC.replace("trans s1 (go,go) -> s2", "trans s1 (go) -> s2")
    text = text.replace("trans s2 (go,go) -> s2", "trans s9 (go,go) -> s2")
    with pytest.raises(cgs.CgsError, match=r"^line 16: expected 2 actions"):
        cgs.parse_model(text)


def test_trans_parenthesis_only_after_the_arrow_is_malformed():
    # the action list must open before the arrow; this used to escape as
    # an unpacking ValueError instead of a CgsError with a line number
    text = BASIC.replace("trans s0 (go,go) -> s2", "trans s0 go,go) -> (s2")
    with pytest.raises(cgs.CgsError, match="^line 12: malformed trans line$"):
        cgs.parse_model(text)


def test_trans_whitespace_and_comments():
    text = BASIC.replace("trans s0 (go,go) -> s2",
                         "trans   s0(  go ,go )->s2   # a comment")
    assert cgs.parse_model(text).successors == \
        cgs.parse_model(BASIC).successors


def test_reserved_atom_prefix():
    with pytest.raises(cgs.CgsError, match="__"):
        cgs.parse_model(
            "agents: a\natoms: __x\nstates: s\ninitial: s\n"
            "actions a: m\nlabel s: __x\ntrans s (m) -> s\n")


def _basic_step(k, moves):
    if k == 0:
        return moves.count("go")
    return 2 if k == 2 or moves[0] == "go" else 1


def expand_basic(**changes):
    """BASIC as state keys 0-2 and functions; ``changes`` replaces
    arguments of :func:`cgs.expand`."""
    args = dict(
        agents=["a", "b"], atoms=["p", "goal"],
        actions={"a": ["go", "stay"], "b": ["go", "stay"]},
        keys=[0, 1, 2], name=lambda k: f"s{k}",
        label=lambda k: [[], ["p"], ["p", "goal"]][k],
        final=lambda k: k == 2, initial=0, step=_basic_step)
    args.update(changes)
    return cgs.expand(**args)


def test_expand_matches_the_parser():
    assert expand_basic() == cgs.parse_model(BASIC)


def test_equal_label_rows_are_one_object():
    g = bench.build_model("counter", {"cap": "3", "steps": "3"})
    parsed = cgs.parse_model(g.to_text())
    assert parsed == g
    for h in (g, parsed):
        # 16 states carry 4 distinct rows, held as 4 objects
        assert len(set(h.labels)) == len({id(r) for r in h.labels}) == 4
    # one text on three states, equal atoms in another order, and no
    # atoms on a labelled and an unlabelled state are one row each
    text = BASIC.replace("states: s0 s1 s2", "states: s0 s1 s2 s3 s4 s5 s6")
    text = text.replace("label s2: p goal\n", "label s2: p goal\n"
                        "label s3: goal  p\nlabel s4: p\nlabel s5:\n"
                        "label s6: p\n")
    text += "".join(f"trans s{i} ({a},{b}) -> s0\n" for i in range(3, 7)
                    for a in ("go", "stay") for b in ("go", "stay"))
    h = cgs.parse_model(text)
    assert h.labels == [frozenset(), {"p"}, {"p", "goal"}, {"p", "goal"},
                        {"p"}, frozenset(), {"p"}]
    for states in [(1, 4, 6), (2, 3), (0, 5)]:
        assert len({id(h.labels[i]) for i in states}) == 1


def label_mutations(rng, text):
    """``text`` with one to three label lines changed, repeated, moved
    or added, some comments, and CRLF line ends half of the time."""
    lines = text.splitlines()
    states = next(x for x in lines if x.startswith("states:")).split()[1:]
    atoms = next(x for x in lines if x.startswith("atoms:")).split()[1:]
    for _ in range(rng.randint(1, 3)):
        at = [i for i, x in enumerate(lines) if x.startswith("label ")]
        i = rng.choice(at)
        state, _, props = lines[i][len("label "):].partition(":")
        names = props.split()
        kind = rng.randrange(9)
        if kind == 0:       # another state, labelled or not, repeats a text
            line = f"label {rng.choice(states)}:{props}"
            if rng.random() < 0.5:
                lines[i] = line
            else:
                lines.insert(rng.randrange(len(lines) + 1), line)
        elif kind == 1:     # atoms reordered
            rng.shuffle(names)
            lines[i] = f"label {state}: " + "  ".join(names)
        elif kind == 2:     # an atom repeated, or a declared one added
            names.insert(rng.randrange(len(names) + 1),
                         rng.choice(names or atoms))
            lines[i] = f"label {state}: " + " ".join(names)
        elif kind == 3:     # one or two undefined atoms
            for bad in rng.sample(["nowhere", "zz"], rng.randint(1, 2)):
                names.insert(rng.randrange(len(names) + 1), bad)
            lines[i] = f"label {state}: " + " ".join(names)
        elif kind == 4:     # a duplicate declaration, same text or not
            other = rng.choice([props, " " + rng.choice(atoms)])
            lines.insert(rng.randrange(len(lines) + 1),
                         f"label {state}:{other}")
        elif kind == 5:     # the label of an undefined state
            lines[i] = f"label ghost:{props}"
        elif kind == 6:     # no ':'
            lines[i] = f"label {state}{props}"
        elif kind == 7:     # a comment after the atoms or in their place
            lines[i] = rng.choice([f"{lines[i]}  # note: {state}",
                                   f"label {state}: # {props}"])
        else:               # a comment line and an empty one
            lines[i:i] = ["# label ghost: nowhere", ""]
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(lines) + end


def parse_outcome(parse, text):
    try:
        return parse(text)
    except cgs.CgsError as e:
        return str(e)


def test_parser_matches_the_reference_on_mutated_labels():
    # the parser reads each distinct label text once; the reference reads
    # every label line on its own, and both give equal fields or the same
    # error message
    rng = random.Random(2607)
    bases = [BASIC, bench.build_model("counter", {"cap": "3", "steps": "3"}),
             bench.build_model("scheduler", {"processes": "2"}),
             bench.build_model("counter", {"cap": "4", "mode": "infinite"})]
    errors = set()
    for base in bases:
        text = base if isinstance(base, str) else base.to_text()
        for _ in range(60):
            mutated = label_mutations(rng, text)
            want = parse_outcome(helpers.reference_parse_model, mutated)
            got = parse_outcome(cgs.parse_model, mutated)
            assert got == want, mutated
            if isinstance(got, str):
                errors.add(re.sub(r"line \d+: | .*", "", got))
            else:
                assert len(set(got.labels)) == len(set(map(id, got.labels)))
    # every label error and some clean texts were met
    assert errors == {"undefined", "duplicate", "malformed"}


def trans_mutations(rng, text):
    """``text`` with one to three of its trans rows moved, shuffled,
    repeated, dropped, re-spaced or broken, or the lines around them
    changed; the result keeps or loses the block that Cgs.to_text
    writes."""
    lines = text.splitlines()
    states = next(x for x in lines if x.startswith("states:")).split()[1:]
    final_newline = True
    for _ in range(rng.randint(1, 3)):
        at = [i for i, x in enumerate(lines) if x.startswith("trans ")]
        i = rng.choice(at)
        src, _, rest = lines[i][len("trans "):].partition(" (")
        acts, _, dst = rest.partition(") -> ")
        kind = rng.randrange(13)
        if kind == 0:       # moved: anywhere, to line 1, or above states:
            row = lines.pop(i)
            top = next(j for j, x in enumerate(lines)
                       if x.startswith("states:"))
            lines.insert(rng.choice([0, top, rng.randrange(len(lines))]),
                         row)
        elif kind == 1:     # a stretch of rows shuffled
            lo = rng.randrange(len(at))
            span = at[lo:lo + rng.randint(2, 40)]
            rows = [lines[j] for j in span]
            rng.shuffle(rows)
            for j, row in zip(span, rows):
                lines[j] = row
        elif kind == 2:     # repeated, with its own target or another,
            # anywhere or on line 1, above the block
            row = rng.choice([lines[i], f"trans {src} ({acts}) -> "
                              f"{rng.choice(states)}"])
            lines.insert(rng.choice([0, rng.randrange(len(lines) + 1)]),
                         row)
        elif kind == 3:     # dropped
            del lines[i]
        elif kind == 4:     # re-spaced
            spaced = " , ".join(acts.split(","))
            lines[i] = f"trans  {src} ( {spaced} )  ->  {dst}"
        elif kind == 5:     # one separator a tab
            cut = rng.choice([m.start() for m in re.finditer(" ", lines[i])])
            lines[i] = lines[i][:cut] + "\t" + lines[i][cut + 1:]
        elif kind == 6:     # a trailing comment
            lines[i] += rng.choice(["  # note", "# -> nowhere"])
        elif kind == 7:     # '(' or '->' inside the source token
            k = rng.randint(0, len(src))
            bad = src[:k] + rng.choice(["(", "->"]) + src[k:]
            lines[i] = f"trans {bad} ({acts}) -> {dst}"
        elif kind == 8:     # an action dropped, added or undefined
            names = acts.split(",")
            k = rng.randrange(len(names))
            change = rng.randrange(3)
            if change == 0 and len(names) > 1:
                del names[k]
            elif change == 1:
                names.insert(k, names[k])
            else:
                names[k] = "jump"
            lines[i] = f"trans {src} ({','.join(names)}) -> {dst}"
        elif kind == 9:     # an undefined source or target, or the
            # action list in brackets
            lines[i] = rng.choice([f"trans ghost ({acts}) -> {dst}",
                                   f"trans {src} ({acts}) -> ghost",
                                   f"trans {src} [{acts}] -> {dst}"])
        elif kind == 10:    # an empty first line, or a form feed in the
            # header, which splits a line and so moves every line number
            if rng.random() < 0.5:
                lines.insert(0, "")
            else:
                top = [j for j, x in enumerate(lines) if not x.startswith(
                    ("trans ", "label "))]
                lines[rng.choice(top)] += "\f"
        elif kind == 11:    # no final newline, or an undefined initial
            # state, which the line reader reports after a malformed row
            if rng.random() < 0.5:
                final_newline = False
            else:
                top = next(j for j, x in enumerate(lines)
                           if x.startswith("initial:"))
                lines[top] = "initial: ghost"
        else:               # a trailing blank line
            lines.append("")
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(lines) + (end if final_newline else "")


def test_parser_matches_the_reference_on_mutated_trans_rows(monkeypatch):
    # the parser reads the trans block as token columns when the rows are
    # in column form, resolving them one by one when a target is no
    # state, and reads the block's lines like the others when they are
    # not; the reference reads every line on its own, and both give
    # equal models or the same error message
    readers = []
    parse, in_form, row_successors = (cgs._parse, cgs._in_column_form,
                                      cgs._row_successors)

    def traced_parse(text, cut, columns):
        readers.append("block" if columns is not None else "lines")
        return parse(text, cut, columns)

    def traced_form(*args):
        form = in_form(*args)
        if form:
            readers.append("form")
        return form

    def traced_rows(*args):
        readers.append("rows")
        return row_successors(*args)

    monkeypatch.setattr(cgs, "_parse", traced_parse)
    monkeypatch.setattr(cgs, "_in_column_form", traced_form)
    monkeypatch.setattr(cgs, "_row_successors", traced_rows)
    rng = random.Random(2629)
    bases = [BASIC, bench.build_model("counter", {"cap": "3", "steps": "3"}),
             bench.build_model("scheduler", {"processes": "2"}),
             bench.build_model("counter", {"cap": "4", "mode": "infinite"})]
    errors = set()
    paths = set()
    for base in bases:
        text = base if isinstance(base, str) else base.to_text()
        for _ in range(80):
            mutated = trans_mutations(rng, text)
            readers.clear()
            got = parse_outcome(cgs.parse_model, mutated)
            want = parse_outcome(helpers.reference_parse_model, mutated)
            assert got == want, mutated
            paths.add(tuple(readers))
            if isinstance(got, str):
                errors.add(re.sub(r"line \d+: |(state|action) '.*| \d+ .*|"
                                  r" row .*", r"\1", got))
    # the columns alone, the columns then their rows, the block's lines,
    # and the lines alone; each reader but the columns may stop at an
    # error before any row is read
    assert {("block", "form"), ("block", "form", "rows"), ("block", "rows"),
            ("lines", "rows")} <= paths <= {
        ("block", "form"), ("block", "form", "rows"), ("block", "rows"),
        ("block",), ("lines", "rows"), ("lines",)}
    kinds = {re.sub(r"(state|action) '.*| \d+ .*| row .*", r"\1", msg)
             for _, msg in TRANS_ERRORS.values()}
    assert kinds <= errors


def _row_reader_refused(*args):
    raise AssertionError("the per-row reader ran")


@pytest.mark.parametrize("family, params", [
    ("counter", {"cap": "3", "steps": "3"}),
    ("counter", {"cap": "6", "mode": "infinite"}),
    ("scheduler", {"processes": "3"}),
    ("cyber", {"horizon": "2", "budget": "1"}),
], ids=["counter", "counter-infinite", "scheduler", "cyber"])
def test_generated_text_takes_the_block_path(family, params, monkeypatch):
    g = bench.build_model(family, params)
    text = g.to_text()
    with monkeypatch.context() as m:
        m.setattr(cgs, "_row_successors", _row_reader_refused)
        assert cgs.parse_model(text) == g
    # with one row re-spaced the text is no block, and the line reader
    # gives the same model
    calls = []
    row_successors = cgs._row_successors
    monkeypatch.setattr(cgs, "_row_successors",
                        lambda *a: calls.append(1) or row_successors(*a))
    first = text.index("\ntrans ") + 1
    end = text.index("\n", first)
    src, _, rest = text[first + len("trans "):end].partition(" (")
    acts, _, dst = rest.partition(") -> ")
    spaced = (text[:first] + f"trans  {src} ( {' , '.join(acts.split(','))} )"
              f"  ->  {dst}" + text[end:])
    assert cgs.parse_model(spaced) == g
    assert calls == [1]


EXPAND_ERRORS = {
    "duplicate agent names": dict(agents=["a", "a"]),
    "duplicate atoms": dict(atoms=["p", "p"]),
    "duplicate actions for agent b": dict(
        actions={"a": ["go", "stay"], "b": ["go", "go"]}),
    "duplicate state names": dict(name=lambda k: f"s{min(k, 1)}"),
    "initial key 5 is not a state": dict(initial=5),
    "undefined atom 'q' in label of state s1": dict(
        label=lambda k: ["q"] if k == 1 else []),
    # s1 and s2 share the row; the first of them is named
    "undefined atom 'x' in label of state s1": dict(
        label=lambda k: ["p", "x"] if k else ["p"]),
    "atom '__x' uses the reserved '__' prefix": dict(
        atoms=["__x"], label=lambda k: []),
    "agent b has no actions": dict(actions={"a": ["go", "stay"]}),
    "successor 3 of state s0 under (go,go) is not a state": dict(
        step=lambda k, moves: 3),
}


@pytest.mark.parametrize("message", sorted(EXPAND_ERRORS))
def test_expand_applies_the_parser_checks(message):
    with pytest.raises(cgs.CgsError, match=re.escape(message)):
        expand_basic(**EXPAND_ERRORS[message])


# names that CGSL text cannot carry: the states or the actions of agent
# a that replace BASIC's, the name expand refuses, and the error that
# reading the written text gives
UNWRITABLE = {
    "state-paren": (["s0", "s(1", "s2"], None, "state name 's(1'",
                    "line 14: undefined state 's' in trans"),
    "state-arrow": (["s0", "s->1", "s2"], None, "state name 's->1'",
                    "line 14: malformed trans line"),
    "state-hash": (["s0", "s1", "s#2"], None, "state name 's#2'",
                   "line 9: malformed label line"),
    "state-space": (["a b", "s1", "s2"], None, "state name 'a b'",
                    "line 4: undefined initial state 'a b'"),
    "labelled-colon": (["s0", "x:y", "s2"], None,
                       "labelled state name 'x:y'",
                       "line 8: undefined state 'x' in label"),
    "action-comma": (None, ["go,x", "stay"], "action name 'go,x' of agent a",
                     "line 10: expected 2 actions, got 3"),
    "action-arrow": (None, ["g->o", "stay"], "action name 'g->o' of agent a",
                     "line 10: undefined state 'o,go) -> s2' in trans"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_names_cgsl_cannot_write_are_refused(case):
    states, acts, name, read_back = UNWRITABLE[case]
    changes = {}
    if states:
        changes["name"] = states.__getitem__
    if acts:
        moves = dict(zip(acts, ["go", "stay"]))
        changes["actions"] = {"a": acts, "b": ["go", "stay"]}
        changes["step"] = lambda k, m: _basic_step(k, (moves[m[0]], m[1]))
    with pytest.raises(cgs.CgsError) as err:
        expand_basic(**changes)
    assert str(err.value) == f"{name} cannot be written in CGSL"
    # the same model built past the checks: its text never read back
    g = expand_basic()
    g.states = states or g.states
    g.actions["a"] = acts or g.actions["a"]
    with pytest.raises(cgs.CgsError) as err:
        cgs.parse_model(g.to_text())
    assert str(err.value) == read_back
    with pytest.raises(cgs.CgsError, match=re.escape(name)):
        cgs.validate(g)


def test_a_comment_glued_to_a_block_target_is_a_comment():
    # the block still splits into the columns, but its target token
    # holds the comment, which the line reader drops
    g = expand_basic()
    text = g.to_text().replace(" -> s2\n", " -> s2#note\n", 1)
    assert cgs.parse_model(text) == helpers.reference_parse_model(text) == g


def test_an_unlabelled_state_may_hold_a_colon():
    g = expand_basic(name=["x:y", "s1", "s2"].__getitem__)
    assert cgs.parse_model(g.to_text()) == g


# plain letters around at most one sign, so that many draws are models
# the text carries
NAMES = st.builds(
    "{}{}{}".format, st.text(alphabet="ab0", max_size=2),
    st.sampled_from([""] * 6 + list(" #(),:->\t") + ["->"]),
    st.text(alphabet="ab0", max_size=2))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_expanded_names_read_back_or_are_refused(data):
    # whatever the names, expand refuses the model or its text reads
    # back as the same model, through the block and line by line
    states = data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    actions = {a: data.draw(st.lists(NAMES, min_size=1, max_size=2,
                                     unique=True))
               for a in ("a", "b")}
    labelled = data.draw(st.lists(st.booleans(), min_size=len(states),
                                  max_size=len(states)))
    joint = {m: j for j, m in enumerate(
        itertools.product(actions["a"], actions["b"]))}
    succ = data.draw(st.lists(st.integers(0, len(states) - 1),
                              min_size=len(states) * len(joint),
                              max_size=len(states) * len(joint)))
    try:
        g = cgs.expand(
            agents=["a", "b"], atoms=["p"], actions=actions,
            keys=range(len(states)), name=states.__getitem__,
            label=lambda k: ["p"] if labelled[k] else [],
            final=lambda k: k == 0, initial=0,
            step=lambda k, m: succ[k * len(joint) + joint[m]])
    except cgs.CgsError:
        return
    text = g.to_text()
    assert cgs.parse_model(text) == g
    assert helpers.reference_parse_model(text) == g


def two_states(successors):
    """A model built through the API: two states, one agent with two
    actions, and ``successors`` as its successor column."""
    return cgs.Cgs(agents=["a"], atoms=["p"], states=["s0", "s1"],
                   initial=0, final=frozenset({1}),
                   actions={"a": ["go", "stay"]}, successors=successors,
                   labels=[frozenset(), frozenset({"p"})])


@pytest.mark.parametrize("engine", ["symbolic", "explicit"])
@pytest.mark.parametrize("successors, message", [
    ([1, 0, 7, 1], "successor 7 of state s1 under (go) is not a state"),
    ([1, -1, 1, 1], "successor -1 of state s0 under (stay) is not a state"),
    ([1, 0, 1], "3 successors for 2 states and 2 joint actions"),
], ids=["past-the-states", "negative", "short-column"])
def test_successors_outside_the_states_are_bad_input(engine, successors,
                                                     message):
    # the driver validates a model it did not parse; a successor that is
    # no state used to escape from the reachability search as a KeyError
    with pytest.raises(cgs.CgsError) as err:
        driver.check(model=two_states(successors), formula="<<a>> F p",
                     engine=engine)
    assert str(err.value) == message


@pytest.mark.parametrize("engine", ["symbolic", "explicit"])
@pytest.mark.parametrize("changes, message", [
    (dict(agents=["a", "a"], successors=[1] * 8), "duplicate agent names"),
    (dict(labels=[frozenset()]), "the labels are not one frozenset per state"),
    (dict(labels=[set(), {"p"}]),
     "the labels are not one frozenset per state"),
    (dict(labels=[frozenset(), frozenset({"x"})]),
     "undefined atom 'x' in label of state s1"),
], ids=["duplicate-agents", "short-labels", "set-labels", "undefined-atom"])
def test_models_the_parser_refuses_are_bad_input_from_the_api(
        engine, changes, message):
    # each of these used to reach the engines, where a duplicate agent
    # made the encoding's blocks overlap, a missing row raised an
    # IndexError and a plain set could not be hashed
    g = dataclasses.replace(two_states([1, 0, 1, 1]), **changes)
    with pytest.raises(cgs.CgsError) as err:
        driver.check(model=g, formula="<<a>> F p", engine=engine)
    assert str(err.value) == message


def test_delta_implies_action_validity():
    # each coalition's moves hold only real actions of its members, so
    # the pipeline needs no availability filter on the responses
    rng = random.Random(31)
    for _ in range(40):
        agents = ("a", "b", "c")[:rng.randint(1, 3)]
        g = helpers.random_cgs(rng, rng.randint(1, 9), rng.randint(1, 5),
                               agents=agents)
        coalitions = helpers.coalitions(g)
        sg = cgs.encode_symbolic(g, cgs.make_store(g, automaton_bits=1),
                                 g.reachable_states(), coalitions)
        for coalition in coalitions:
            _, moves = cgs.coalition_moves(sg, coalition)
            for a in coalition:
                assert (moves & ~sg.action_valid[a]).is_false()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_coalition_moves_are_the_projected_joint_relation(agents, states,
                                                          actions, seed):
    # in one store, each coalition's moves, built from the rows, are the
    # node of the joint relation with the other agents' actions
    # quantified out, and of the rows projected explicitly; the
    # availability is the members' action ranges
    g = helpers.random_cgs(random.Random(seed), states, actions,
                           agents=("a", "b", "c")[:agents])
    coalitions = helpers.coalitions(g)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store, g.reachable_states(), coalitions)
    delta = helpers.joint_relation(sg)
    for coalition in coalitions:
        avail, moves = cgs.coalition_moves(sg, coalition)
        others = [v for a in g.agents if a not in coalition
                  for v in sg.action_blocks[a].vars]
        assert moves == store.exists(others, delta)
        members = [i for i, a in enumerate(g.agents) if a in coalition]
        rows = sorted({(q, *(ja[i] for i in members), t)
                       for q in range(len(g.states))
                       for ja, t in helpers.moves_from(g, q)})
        blocks = [sg.q] + [sg.action_blocks[g.agents[i]]
                           for i in members] + [sg.q_next]
        assert moves == helpers.points_bdd(store, blocks, rows)
        assert avail == store.big_and(sg.action_valid[a] for a in coalition)


def test_symbolic_encoding_soundness():
    rng = random.Random(17)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(1, 9))
        store = cgs.make_store(g, automaton_bits=2)
        sg = cgs.encode_symbolic(g, store, g.reachable_states(),
                                 [g.agents])
        helpers.audit_determinism(sg)
        delta = helpers.joint_relation(sg)
        # every explicit transition is in the joint relation, and
        # nothing else
        for q in range(len(g.states)):
            for ja, t in helpers.moves_from(g, q):
                parts = [helpers.cube(store, sg.q, q),
                         helpers.cube(store, sg.q_next, t)]
                for i, a in enumerate(g.agents):
                    parts.append(helpers.cube(store, sg.action_blocks[a],
                                              ja[i]))
                row = store.big_and(parts)
                assert not (row & delta).is_false()


def labelled_states(sg, atom):
    """Next states on which the one-atom automaton for ``F atom`` leaves
    its initial state: the guard ``encode_automaton`` builds for the
    letter {atom}."""
    dfa = ltlf2dfa.translate(fm.parse_formula(f"F {atom}"))
    hit = dfa.delta[(dfa.initial, 1)]
    assert hit != dfa.delta[(dfa.initial, 0)]
    st = sg.store
    sd = ltlf2dfa.encode_automaton(dfa, sg)
    edge = sd.delta & helpers.cube(st, sd.s, dfa.initial) & \
        helpers.cube(st, sd.s_next, hit)
    return set(helpers.decode(
        sg, st.exists(sd.s.vars + sd.s_next.vars, edge), sg.q_next))


def test_labels_inverted():
    g = cgs.parse_model(BASIC)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store, g.reachable_states(), ())
    p_states = labelled_states(sg, "p")
    assert p_states == {1, 2}
    assert labelled_states(sg, "goal") == {2}


def symbolic_reachable(sg):
    """Least fixpoint of the post-image of the joint relation from the
    initial state."""
    st = sg.store
    quantified = list(sg.q.vars) + helpers.all_action_vars(sg)
    delta = helpers.joint_relation(sg)
    r = frontier = helpers.cube(st, sg.q, sg.g.initial)
    while not frontier.is_false():
        img = st.and_exists(frontier, delta, quantified)
        img = st.rename(img, sg.q_next, sg.q)
        frontier = img & ~r
        r = r | frontier
    return r


def test_reachable_matches_bfs():
    rng = random.Random(23)
    for _ in range(20):
        g = helpers.random_cgs(rng, rng.randint(1, 12))
        store = cgs.make_store(g, automaton_bits=1)
        sg = cgs.encode_symbolic(g, store, g.reachable_states(),
                                 [g.agents])
        assert sg.reach == symbolic_reachable(sg)
        assert set(helpers.decode(sg, sg.reach)) == g.reachable_states()


@pytest.mark.parametrize("gen, params, nodes", [
    (bench.gen_counter, bench.CounterParams(cap=35, steps=35), 1153),
    (bench.gen_scheduler, bench.SchedulerParams(processes=3), 1229),
    (bench.gen_counter, bench.CounterParams(cap=100, mode="infinite"), 134),
])
def test_benchmark_models_encode_to_pinned_node_counts(gen, params, nodes):
    # the store holds the encoding's nodes and nothing else, so its size
    # is fixed by the functions encoded, however they are built; here the
    # one coalition is every agent, whose moves are the joint relation
    g = gen(params)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store, g.reachable_states(), [g.agents])
    assert store.node_count() == nodes
    assert helpers.decode(sg, sg.reach) == sorted(g.reachable_states())


@pytest.mark.parametrize("gen, params, coalitions, nodes", [
    (bench.gen_counter, bench.CounterParams(cap=35, steps=35),
     [("a1", "a2")], 1153),
    (bench.gen_scheduler, bench.SchedulerParams(processes=3),
     [("p1",), ("p2",), ("p3",)], 372),
    (bench.gen_counter, bench.CounterParams(cap=100, mode="infinite"),
     [("a1",)], 121),
])
def test_benchmark_anchor_coalitions_encode_to_pinned_node_counts(
        gen, params, coalitions, nodes):
    # as above, with the coalitions of each model's benchmark anchor
    # formula: the store holds only their moves, never the joint relation
    g = gen(params)
    store = cgs.make_store(g, automaton_bits=1)
    sg = cgs.encode_symbolic(g, store, g.reachable_states(), coalitions)
    assert store.node_count() == nodes
    assert helpers.decode(sg, sg.reach) == sorted(g.reachable_states())


def test_coalition_actions():
    # a coalition's moves are available where each member's action is;
    # with three actions an agent's availability is not TRUE
    for g in (cgs.parse_model(BASIC),
              helpers.random_cgs(random.Random(7), 3, n_actions=3)):
        store = cgs.make_store(g, automaton_bits=1)
        sg = cgs.encode_symbolic(g, store, g.reachable_states(),
                                 [("a", "b"), ()])
        avail, _ = cgs.coalition_moves(sg, ("a", "b"))
        assert avail == sg.action_valid["a"] & sg.action_valid["b"]
        avail_none, _ = cgs.coalition_moves(sg, ())
        assert avail_none == store.true


def test_store_too_small():
    # the program sizes every store itself, so a store too small for the
    # model is a fault of the program, not bad input
    g = cgs.parse_model(BASIC)
    from atlstar.bdd import BddError, BddStore
    store = BddStore([("q", 1), ("q'", 1), ("s", 1), ("s'", 1),
                      ("a0", 1), ("a1", 1)])
    with pytest.raises(BddError):
        cgs.encode_symbolic(g, store, g.reachable_states(), [g.agents])
    with pytest.raises(KeyError):
        cgs.encode_symbolic(g, BddStore([("q", 2), ("q'", 2)]),
                            g.reachable_states(), [g.agents])
