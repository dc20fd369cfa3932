"""ATL*/LTL/LTLf formulas: parsing, classification, normal forms."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError

FRESH_PREFIX = "__sub"


class FormulaError(Exception):
    pass


class ParseError(FormulaError, InputError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Formula:
    """Immutable AST node.

    kind in {atom, true, false, not, and, or, next, wnext, until, release,
    finally, globally, strategic}.  ``wnext`` and ``release`` are internal
    NNF targets, never produced by the parser.
    """

    kind: str
    children: tuple = ()
    name: str = ""
    coalition: frozenset = field(default_factory=frozenset)
    # the dataclass hash of the fields above, computed once: sets and
    # dicts of formulas would otherwise hash whole subtrees per lookup
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.kind, self.children, self.name, self.coalition)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return to_str(self)


def atom(name):
    return Formula("atom", name=name)


TRUE = Formula("true")
FALSE = Formula("false")


def not_(f):
    return Formula("not", (f,))


def and_(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = Formula("and", (out, f))
    return out


def or_(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = Formula("or", (out, f))
    return out


def next_(f):
    return Formula("next", (f,))


def wnext(f):
    return Formula("wnext", (f,))


def until(a, b):
    return Formula("until", (a, b))


def release(a, b):
    return Formula("release", (a, b))


def finally_(f):
    return Formula("finally", (f,))


def globally(f):
    return Formula("globally", (f,))


def strategic(coalition, body):
    return Formula("strategic", (body,), coalition=frozenset(coalition))


# ---------------------------------------------------------------------------
# Printing

_UNARY = {"not": "!", "next": "X", "wnext": "N", "finally": "F", "globally": "G"}
# higher binds tighter; strategic scopes maximally right so it always
# needs parentheses when nested under another operator
_PREC = {
    "strategic": 0,
    "or": 1,
    "and": 2,
    "until": 3,
    "release": 3,
    "not": 4,
    "next": 4,
    "wnext": 4,
    "finally": 4,
    "globally": 4,
}


def to_str(f):
    def wrap(child, prec):
        s = go(child)
        if _PREC.get(child.kind, 5) < prec:
            return f"({s})"
        return s

    def go(f):
        k = f.kind
        if k == "atom":
            return f.name
        if k == "true":
            return "true"
        if k == "false":
            return "false"
        if k in _UNARY:
            return f"{_UNARY[k]} {wrap(f.children[0], _PREC[k])}"
        # left-assoc ops parenthesize an equal-precedence right child,
        # right-assoc ops an equal-precedence left child, so printing
        # is injective and round-trips exactly
        if k == "and":
            return f"{wrap(f.children[0], 2)} & {wrap(f.children[1], 3)}"
        if k == "or":
            return f"{wrap(f.children[0], 1)} | {wrap(f.children[1], 2)}"
        if k == "until":
            return f"{wrap(f.children[0], 4)} U {wrap(f.children[1], 3)}"
        if k == "release":
            return f"{wrap(f.children[0], 4)} R {wrap(f.children[1], 3)}"
        if k == "strategic":
            names = ",".join(sorted(f.coalition))
            return f"<<{names}>> {go(f.children[0])}"
        raise FormulaError(f"unknown kind {k!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<coal_open><<)
  | (?P<coal_close>>>)
  | (?P<implies>->)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<not>!)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<comma>,)
  | (?P<op>[XFGUR](?![a-zA-Z0-9_]))
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

# the name token of _TOKEN_RE, less what reads back as something else
_AGENT_RE = re.compile(r"(?![XFGUR]\Z)[A-Za-z_][A-Za-z0-9_]*")
_ATOM_RE = re.compile(r"(?!(?:true|false)\Z)[a-z][A-Za-z0-9_]*")


def is_agent_name(text):
    """Whether a coalition can name the agent ``text``: it reads back as
    one name token, not as an operator letter."""
    return _AGENT_RE.fullmatch(text) is not None


def is_atom_name(text):
    """Whether ``text`` parses back as the atom ``text``: a name token
    that starts with a lowercase letter and is no truth constant."""
    return _ATOM_RE.fullmatch(text) is not None


_UNICODE_ALIASES = {
    "¬": "!",      # ¬
    "∧": "&",      # ∧
    "∨": "|",      # ∨
    "→": "->",     # →
    "⟨⟨": "<<",
    "⟩⟩": ">>",
    "〈〈": "<<",
    "〉〉": ">>",
}


def _tokenize(text):
    for src, dst in _UNICODE_ALIASES.items():
        text = text.replace(src, dst)
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            tokens.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# Each operator and each parenthesis opens one nesting level.  Every
# layer that walks a formula recurses once or a few times per level, so
# a fixed bound keeps every check within Python's recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"


def depth(f):
    """Operators nested in one another in ``f``; an atom has depth 0."""
    # iterative, so it is safe on a tree of any depth
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in g.children)
    return deepest


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {what}, got {t[1]!r}", t[2], t[3])
        return t

    def parse(self):
        f = self.implies()
        t = self.peek()
        if t[0] != "eof":
            raise ParseError(f"trailing input {t[1]!r}", t[2], t[3])
        # chains of & and | nest without nesting the parser's calls
        if depth(f) > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, 1, 1)
        return f

    def nested(self, parse):
        """Parse one nested operand, bounding the parser's recursion."""
        if self.depth == MAX_DEPTH:
            raise ParseError(_TOO_DEEP, *self.peek()[2:])
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def implies(self):
        left = self.or_()
        if self.peek()[0] == "implies":
            self.next()
            right = self.nested(self.implies)
            return or_(not_(left), right)
        return left

    def or_(self):
        left = self.and_()
        while self.peek()[0] == "or":
            self.next()
            left = or_(left, self.and_())
        return left

    def and_(self):
        left = self.until()
        while self.peek()[0] == "and":
            self.next()
            left = and_(left, self.until())
        return left

    def until(self):
        left = self.unary()
        t = self.peek()
        if t[0] == "op" and t[1] in ("U", "R"):
            self.next()
            right = self.nested(self.until)
            return until(left, right) if t[1] == "U" else release(left, right)
        return left

    def unary(self):
        t = self.peek()
        if t[0] == "not":
            self.next()
            return not_(self.nested(self.unary))
        if t[0] == "op" and t[1] in ("X", "F", "G"):
            self.next()
            child = self.nested(self.unary)
            return {"X": next_, "F": finally_, "G": globally}[t[1]](child)
        if t[0] == "coal_open":
            # a strategic quantifier scopes maximally to the right, so the
            # whole remaining path formula sits under the coalition
            self.next()
            agents = []
            if self.peek()[0] == "name":
                agents.append(self.next()[1])
                while self.peek()[0] == "comma":
                    self.next()
                    agents.append(self.expect("name", "agent name")[1])
            self.expect("coal_close", "'>>'")
            return strategic(agents, self.nested(self.implies))
        return self.primary()

    def primary(self):
        t = self.next()
        if t[0] == "lparen":
            f = self.nested(self.implies)
            self.expect("rparen", "')'")
            return f
        if t[0] == "name":
            if t[1] == "true":
                return TRUE
            if t[1] == "false":
                return FALSE
            if not t[1][0].islower():
                raise ParseError(
                    f"atoms must start with a lowercase letter: {t[1]!r}",
                    t[2], t[3],
                )
            return atom(t[1])
        raise ParseError(f"unexpected token {t[1]!r}", t[2], t[3])


def parse_formula(text):
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Classification and labelling support

def classify(f):
    """Return 'state' or 'path' per the grammar stratification."""
    k = f.kind
    if k in ("atom", "true", "false", "strategic"):
        return "state"
    if k in ("not", "and", "or"):
        if all(classify(c) == "state" for c in f.children):
            return "state"
        return "path"
    return "path"


def atoms_of(f):
    out = set()

    def go(f):
        if f.kind == "atom":
            out.add(f.name)
        for c in f.children:
            go(c)

    go(f)
    return out


def has_strategic(f):
    if f.kind == "strategic":
        return True
    return any(has_strategic(c) for c in f.children)


def extract_state_subformulas(psi, numbers):
    """Replace strategic subformulas of a path formula with fresh atoms.

    Returns ``(core, atom_map)`` where ``core`` is pure LTL/LTLf and
    ``atom_map`` maps each fresh atom back to the subformula it replaced.
    Plain atoms stay in place.  The fresh atoms are ``FRESH_PREFIX``
    followed by the next of ``numbers``, an iterator that the caller
    keeps for one check, so that a check names its atoms the same way
    whatever ran before it.  No model atom starts with '_', so none
    clashes with them.
    """
    atom_map = {}

    def go(f):
        if f.kind == "strategic":
            name = f"{FRESH_PREFIX}{next(numbers)}"
            atom_map[name] = f
            return atom(name)
        if not f.children:
            return f
        return Formula(
            f.kind, tuple(go(c) for c in f.children), f.name, f.coalition
        )

    return go(psi), atom_map


# ---------------------------------------------------------------------------
# Normalization (pure LTL/LTLf only)

def normalize(f):
    """Expand F/G and push negations to atoms (negation normal form)."""

    def nnf(f, neg):
        k = f.kind
        if k == "strategic":
            raise FormulaError("normalize: strategic operator in path formula")
        if k == "atom":
            return not_(f) if neg else f
        if k == "true":
            return FALSE if neg else TRUE
        if k == "false":
            return TRUE if neg else FALSE
        if k == "not":
            return nnf(f.children[0], not neg)
        if k == "and":
            a, b = (nnf(c, neg) for c in f.children)
            return or_(a, b) if neg else and_(a, b)
        if k == "or":
            a, b = (nnf(c, neg) for c in f.children)
            return and_(a, b) if neg else or_(a, b)
        if k == "next":
            # strong next dualizes to weak next
            return wnext(nnf(f.children[0], True)) if neg else next_(
                nnf(f.children[0], False)
            )
        if k == "wnext":
            return next_(nnf(f.children[0], True)) if neg else wnext(
                nnf(f.children[0], False)
            )
        if k == "finally":
            return nnf(until(TRUE, f.children[0]), neg)
        if k == "globally":
            return nnf(not_(finally_(not_(f.children[0]))), neg)
        if k == "until":
            a, b = f.children
            if neg:
                return release(nnf(a, True), nnf(b, True))
            return until(nnf(a, False), nnf(b, False))
        if k == "release":
            a, b = f.children
            if neg:
                return until(nnf(a, True), nnf(b, True))
            return release(nnf(a, False), nnf(b, False))
        raise FormulaError(f"unknown kind {k!r}")

    return nnf(f, False)
