"""Deterministic parity automata for LTL path formulas.

Automata come either from external translator tools speaking the HOA v1
format or, when no tool is configured, from a built-in fallback covering
the safety / co-safety fragments plus the propositional response pattern
G(a -> F b); both routes meet in ``obtain_dpa``.  Tools run as a race in
which each racer turns its tool's text into a Dpa (``parse_hoa``, then
``hoa_to_dpa``), so the first tool whose automaton converts wins.  HOA
edge labels are read by the formula parser as propositional formulas.
Every automaton is state-based and min-even: a run is accepting exactly
when its minimal recurring priority is even.  A HOA automaton's
acceptance marks are mapped to such priorities on input, and
transition-based marks become state-based.
"""

from __future__ import annotations

import concurrent.futures
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass

from . import formula as fm
from . import ltlf2dfa
from .errors import InputError


class HoaError(InputError):
    pass


class DpaError(InputError):
    pass


# ---------------------------------------------------------------------------
# HOA v1 parsing

@dataclass
class HoaEdge:
    label: object      # propositional Formula over ap0, ap1, ...,
                       # or None for an implicit edge
    dest: int
    acc_sets: tuple


@dataclass
class HoaState:
    sid: int
    acc_sets: tuple
    edges: list


@dataclass
class HoaAutomaton:
    n_states: int
    start: int
    aps: list
    acc_name: tuple          # tokens of the acc-name header, may be empty
    acceptance: str
    states: dict             # sid -> HoaState

    def alphabet(self):
        return range(1 << len(self.aps))


# one token of a HOA label, or any other character, which is an error
_LABEL_TOKEN = re.compile(r"\s+|(\d+)|([tf])|([!&|()])|(.)", re.S)


def _ap(i):
    """The atom that stands for AP index ``i`` in a label formula."""
    return f"ap{i}"


def _parse_label(text, n_aps):
    """A HOA label expression as a propositional Formula over the atoms
    ``ap0``, ``ap1``, ...

    Each token is spelled as the formula parser spells it, and the
    parser reads the result.  Aliases, any character outside the label
    syntax and AP indices past the ``n_aps`` declared are errors.
    """
    words = []
    for m in _LABEL_TOKEN.finditer(text):
        index, const, op, other = m.groups()
        if other is not None:
            raise HoaError(f"unexpected {other!r} in label [{text}]")
        if index is not None:
            if int(index) >= n_aps:
                raise HoaError(f"label [{text}] reads AP {index}; the "
                               f"AP header declares {n_aps}")
            words.append(_ap(int(index)))
        elif const is not None:
            words.append("true" if const == "t" else "false")
        elif op is not None:
            words.append(op)
    try:
        return fm.parse_formula(" ".join(words))
    except fm.ParseError as e:
        # the parser's position counts in the spelled-out words
        reason = str(e).rsplit(" (line ", 1)[0]
        raise HoaError(f"bad label [{text}]: {reason}") from None


def parse_hoa(text):
    """Parse a HOA v1 automaton (deterministic, single start state).

    As HOA v1 defines, a state label is the label of each of the state's
    edges, which then carry none of their own; edges are implicit only
    under an unlabelled state.
    """
    if "--BODY--" not in text:
        raise HoaError("missing --BODY-- marker")
    header_text, body_text = text.split("--BODY--", 1)
    if "--END--" in body_text:
        body_text = body_text.split("--END--", 1)[0]

    n_states = None
    start = None
    aps = []
    acc_name = ()
    acceptance = ""
    for raw in header_text.splitlines():
        line = raw.strip()
        if not line or line.startswith("HOA:"):
            continue
        if ":" not in line:
            raise HoaError(f"malformed header line: {line!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "States":
            n_states = int(rest)
        elif key == "Start":
            start = int(rest)
        elif key == "AP":
            parts = re.findall(r'"((?:[^"\\]|\\.)*)"|(\S+)', rest)
            count = int([a or b for a, b in parts][0])
            aps = [a or b for a, b in parts][1:]
            if len(aps) != count:
                raise HoaError("AP count mismatch")
        elif key == "acc-name":
            acc_name = tuple(rest.split())
        elif key == "Acceptance":
            acceptance = rest
        # tool, name, etc. ignored

    if start is None:
        raise HoaError("missing Start header")

    states = {}
    current = None
    state_label = None
    for raw in body_text.splitlines():
        line = raw.strip()
        if not line or line.startswith("/*"):
            continue
        if line.startswith("State:"):
            rest = line[len("State:"):].strip()
            state_label = None
            if rest.startswith("["):
                lbl, rest = rest[1:].split("]", 1)
                state_label = _parse_label(lbl, len(aps))
                rest = rest.strip()
            m = re.match(r"(\d+)\s*(?:\"[^\"]*\")?\s*(\{[^}]*\})?", rest)
            if not m:
                raise HoaError(f"malformed State line: {line!r}")
            sid = int(m.group(1))
            acc = ()
            if m.group(2):
                acc = tuple(int(x) for x in m.group(2)[1:-1].split())
            current = HoaState(sid=sid, acc_sets=acc, edges=[])
            states[sid] = current
        else:
            if current is None:
                raise HoaError(f"edge before any State: {line!r}")
            label = state_label
            rest = line
            if rest.startswith("["):
                if state_label is not None:
                    raise HoaError(f"state {current.sid} is labelled, so "
                                   f"its edges cannot be: {line!r}")
                lbl, rest = rest[1:].split("]", 1)
                label = _parse_label(lbl, len(aps))
                rest = rest.strip()
            m = re.match(r"(\d+)\s*(\{[^}]*\})?", rest)
            if not m:
                raise HoaError(f"malformed edge line: {line!r}")
            dest = int(m.group(1))
            acc = ()
            if m.group(2):
                acc = tuple(int(x) for x in m.group(2)[1:-1].split())
            current.edges.append(HoaEdge(label=label, dest=dest, acc_sets=acc))

    if n_states is None:
        n_states = (max(states) + 1) if states else 0
    for sid in range(n_states):
        if sid not in states:
            raise HoaError(f"state {sid} missing from body")
    for sid in (start, *(e.dest for st in states.values() for e in st.edges)):
        if sid not in states:
            raise HoaError(f"state {sid} is not declared")

    return HoaAutomaton(
        n_states=n_states, start=start, aps=aps, acc_name=acc_name,
        acceptance=acceptance, states=states,
    )


# ---------------------------------------------------------------------------
# Deterministic parity automata

@dataclass
class Dpa:
    """State-based deterministic parity automaton over letter bitmasks."""

    atoms: tuple
    n_states: int
    initial: int
    delta: dict              # (state, letter mask) -> state
    priority: dict           # state -> non-negative int, min even

    def letter(self, labels):
        return ltlf2dfa.letter_mask(self.atoms, labels)


def _mark_priority(hoa):
    """The min-even priority of an edge, as a function of its marks.

    Each acceptance mark maps to a priority whose parity tells whether
    the mark accepts; an edge takes the least priority of its marks.
    Under min parity a mark keeps its rank and an unmarked edge ranks
    below every mark.  Under max parity the order flips, mark m mapping
    to K - m for a K >= k of the accepting parity, and an unmarked edge
    still ranks below every mark.  Büchi is min even with one set and
    co-Büchi min odd with one set.
    """
    name = hoa.acc_name
    if name[:1] == ("Buchi",):
        kind, par, k = "min", "even", 1
    elif name[:1] in (("co-Buchi",), ("coBuchi",)):
        kind, par, k = "min", "odd", 1
    elif name[:1] == ("parity",):
        if (len(name) != 4 or name[1] not in ("min", "max")
                or name[2] not in ("even", "odd") or not name[3].isdigit()):
            raise HoaError(f"malformed parity acc-name: {' '.join(name)}")
        kind, par, k = name[1], name[2], int(name[3])
    else:
        raise HoaError(
            f"unsupported acceptance family: {name or hoa.acceptance!r}")
    if kind == "min":
        shift = 0 if par == "even" else 1
        mapped, unmarked = (lambda m: m + shift), k + shift
    else:
        top = k if k % 2 == (par == "odd") else k + 1
        mapped, unmarked = (lambda m: top - m), top + 1

    def priority(marks):
        for m in marks:
            if not 0 <= m < k:
                raise HoaError(f"acceptance mark {m} outside the {k} sets "
                               f"of {' '.join(name)}")
        return min(map(mapped, marks), default=unmarked)

    return priority


def hoa_to_dpa(hoa):
    """Convert a parity, Büchi or co-Büchi HOA automaton to a state-based
    min-even Dpa.

    Transition-based priorities are handled by splitting states per
    incoming priority class, which preserves the language (unlike a
    first-discovered assignment).  Unreachable states are dropped.
    """
    priority_of = _mark_priority(hoa)
    letters = list(hoa.alphabet())
    # the atoms of the label formulas that hold on each letter
    holding = [{_ap(i) for i in range(len(hoa.aps)) if a >> i & 1}
               for a in letters]

    def resolve(sid, letter):
        st = hoa.states[sid]
        implicit = [e for e in st.edges if e.label is None]
        if implicit:
            if len(implicit) != len(letters):
                raise HoaError(
                    f"state {sid}: implicit edges must cover the alphabet"
                )
            return implicit[letter]
        matches = [e for e in st.edges
                   if _prop_holds(e.label, holding[letter])]
        if len(matches) != 1:
            raise HoaError(
                f"automaton not deterministic-total at state {sid}, "
                f"letter {letter}"
            )
        return matches[0]

    state_based = all(
        not e.acc_sets for st in hoa.states.values() for e in st.edges
    )

    ids = {}
    order = []

    def get_id(key):
        if key not in ids:
            ids[key] = len(order)
            order.append(key)
        return ids[key]

    start_key = (hoa.start, None)
    get_id(start_key)
    delta = {}
    priority = {}
    i = 0
    while i < len(order):
        key = order[i]
        sid, prio = key
        me = get_id(key)
        st = hoa.states[sid]
        priority[me] = priority_of(st.acc_sets) if prio is None else prio
        for a in letters:
            e = resolve(sid, a)
            if state_based:
                tkey = (e.dest, None)
            else:
                # a state's marks belong to each edge leaving it
                tkey = (e.dest, priority_of(e.acc_sets + st.acc_sets))
            delta[(me, a)] = get_id(tkey)
        i += 1

    return Dpa(
        atoms=tuple(hoa.aps),
        n_states=len(order),
        initial=0,
        delta=delta,
        priority=priority,
    )


# ---------------------------------------------------------------------------
# Symbolic encoding

# one code path encodes DFAs and DPAs
encode_dpa = ltlf2dfa.encode_automaton


# ---------------------------------------------------------------------------
# Built-in fallback translator

def _is_cosafety(f):
    k = f.kind
    if k in ("release", "globally", "wnext"):
        return False
    return all(_is_cosafety(c) for c in f.children)


def _is_safety(f):
    k = f.kind
    if k in ("until", "finally", "next"):
        return False
    return all(_is_safety(c) for c in f.children)


def _response_pattern(core):
    """Match the NNF of G(a -> F b) or G F b with propositional a, b:
    ``false R (x | true U b)`` (either disjunct first) or
    ``false R (true U b)``; return (trigger, target) or None."""
    if core.kind != "release" or core.children[0].kind != "false":
        return None
    body = core.children[1]

    def eventually(f):
        return f.kind == "until" and f.children[0].kind == "true"

    if eventually(body):
        trigger, target = fm.TRUE, body
    elif body.kind == "or" and eventually(body.children[1]):
        trigger, target = fm.not_(body.children[0]), body.children[1]
    elif body.kind == "or" and eventually(body.children[0]):
        trigger, target = fm.not_(body.children[1]), body.children[0]
    else:
        return None
    target = target.children[1]

    def propositional(f):
        return f.kind in ("atom", "true", "false") or (
            f.kind in ("not", "and", "or")
            and all(propositional(c) for c in f.children)
        )

    if propositional(trigger) and propositional(target):
        return trigger, target
    return None


def _prop_holds(f, labels):
    k = f.kind
    if k == "atom":
        return f.name in labels
    if k == "true":
        return True
    if k == "false":
        return False
    if k == "not":
        return not _prop_holds(f.children[0], labels)
    if k == "and":
        return all(_prop_holds(c, labels) for c in f.children)
    if k == "or":
        return any(_prop_holds(c, labels) for c in f.children)
    raise DpaError("not a propositional formula")


def fallback_translate(psi):
    """Direct DPA construction for the supported LTL fragments.

    Covers syntactic co-safety (no G/R), syntactic safety (no F/U/X),
    and the response pattern G(a -> F b) with propositional a, b.
    """
    core = fm.normalize(psi)

    resp = _response_pattern(core)
    if resp is not None:
        trigger, target = resp
        atoms = tuple(sorted(fm.atoms_of(trigger) | fm.atoms_of(target)))
        delta = {}
        for st in (0, 1):  # 0 = no pending obligation, 1 = pending
            for a in range(1 << len(atoms)):
                labels = {atoms[i] for i in range(len(atoms)) if (a >> i) & 1}
                if _prop_holds(target, labels):
                    nxt = 0
                elif _prop_holds(trigger, labels):
                    nxt = 1
                else:
                    nxt = st
                delta[(st, a)] = nxt
        return Dpa(
            atoms=atoms, n_states=2, initial=0, delta=delta,
            priority={0: 0, 1: 1},
        )

    if _is_cosafety(core):
        # good prefixes are extension-closed: DFA-accepting visited
        # infinitely often iff some good prefix exists
        d = ltlf2dfa.translate(psi)
        prio = {s: (0 if s in d.finals else 1) for s in range(d.n_states)}
        return Dpa(d.atoms, d.n_states, d.initial, dict(d.delta), prio)

    if _is_safety(core):
        # bad prefixes of psi = good prefixes of !psi, a co-safety formula
        d = ltlf2dfa.translate(fm.not_(psi))
        prio = {s: (1 if s in d.finals else 0) for s in range(d.n_states)}
        return Dpa(d.atoms, d.n_states, d.initial, dict(d.delta), prio)

    raise DpaError(
        "no external translator configured and the built-in fallback does "
        f"not cover this formula: {psi}"
    )


# ---------------------------------------------------------------------------
# Translator race

def race_translate(psi, tools, timeout=60.0):
    """Run external translator commands concurrently and return
    ``(dpa, tool)`` for the first tool whose output converts to a Dpa
    over atoms of ``psi``.

    Each racer parses and converts its own tool's output, so a tool
    whose automaton the checker cannot use loses.  ``tools`` is a
    non-empty list of command templates with ``{formula}`` and optional
    ``{outfile}`` placeholders.
    """
    text = str(psi)
    atoms = fm.atoms_of(psi)
    errors = {}
    procs = []

    def run(template):
        outfile = None
        try:
            fd, outfile = tempfile.mkstemp(suffix=".hoa")
            os.close(fd)
            cmd = template.format(formula=text, outfile=outfile)
            proc = subprocess.Popen(
                cmd, shell=True, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            procs.append(proc)
            out, err = proc.communicate(timeout=timeout)
            if proc.returncode != 0:
                raise DpaError(f"exit code {proc.returncode}: {err.strip()}")
            data = out
            if "{outfile}" in template:
                with open(outfile) as fh:
                    data = fh.read()
            hoa = parse_hoa(data)
            foreign = sorted(set(hoa.aps) - atoms)
            if foreign:
                raise DpaError(f"automaton reads atoms the formula lacks: "
                               f"{', '.join(foreign)}")
            return hoa_to_dpa(hoa)
        finally:
            if outfile and os.path.exists(outfile):
                os.unlink(outfile)

    with concurrent.futures.ThreadPoolExecutor(len(tools)) as pool:
        futures = {pool.submit(run, t): t for t in tools}
        winner = None
        for fut in concurrent.futures.as_completed(futures, timeout=timeout * 2):
            t = futures[fut]
            try:
                winner = fut.result(), t
            except Exception as e:  # unusable output or tool failure
                errors[t] = str(e)
                continue
            break
        for p in procs:
            if p.poll() is None:
                p.kill()
    if winner is not None:
        return winner
    causes = "; ".join(f"{t}: {e}" for t, e in errors.items())
    raise DpaError(f"all translator tools failed: {causes}")


def obtain_dpa(psi, tools=(), timeout=60.0):
    """Translate an LTL path formula to a normalized state-based Dpa."""
    if not tools:
        return fallback_translate(psi), "builtin"
    return race_translate(psi, list(tools), timeout=timeout)
