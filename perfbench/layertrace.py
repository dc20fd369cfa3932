"""Outside-in per-layer trace of real checks.

While ``traced(tracer)`` is open, the public layer functions that
``atlstar.cli`` and ``atlstar.driver`` look up on their modules at call
time are replaced by wrappers.  Each wrapper opens a span around the
real call and then, in a separate ``trace.count`` span, takes the
layer's counts from the call's arguments and return value.  The program
itself runs unchanged: nothing under ``src/`` knows about the trace, so
spans and counts follow any change to the driver.

A layer function called from inside another one (``dpa.obtain_dpa``
uses ``ltlf2dfa.translate``) is not traced again: its time belongs to
the outer layer, and its counts are not the driver's.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from atlstar import cgs as cgsmod
from atlstar import dpa as dpamod
from atlstar import finite_mc
from atlstar import formula as fm
from atlstar import infinite_mc
from atlstar import ltlf2dfa

# MAX_COUNTS take the maximum over a check's subformulas; the rest add up
MAX_COUNTS = ("bdd.budget_share", "ltlf2dfa.letters", "dpa.priorities",
              "infinite_mc.priorities")


def _bump(counts, key, value):
    if key in MAX_COUNTS:
        counts[key] = max(counts.get(key, 0), value)
    else:
        counts[key] = counts.get(key, 0) + value


def _count_encode(counts, args, kwargs, sg):
    _bump(counts, "cgs.encodes", 1)
    _bump(counts, "bdd.nodes_after_encode", sg.store.node_count())


def _count_dfa(counts, args, kwargs, dfa):
    _bump(counts, "ltlf2dfa.states", dfa.n_states)
    _bump(counts, "ltlf2dfa.letters", len(dfa.letters()))
    _bump(counts, "ltlf2dfa.transitions", len(dfa.delta))


def _count_dpa(counts, args, kwargs, result):
    dpa, _ = result
    _bump(counts, "dpa.states", dpa.n_states)
    _bump(counts, "dpa.priorities", len(set(dpa.priority.values())))


def _count_product(counts, args, kwargs, prod):
    sg, sd = args[0], args[1]
    _bump(counts, "finite_mc.product_states", sg.store.sat_count(
        prod.reachable, list(sg.q.vars) + list(sd.s.vars)))


def _count_safety(counts, args, kwargs, res):
    _bump(counts, "finite_mc.iterations", res.iterations)


def _count_game(counts, args, kwargs, game):
    _bump(counts, "infinite_mc.vertices",
          game.store.sat_count(game.vertices, game.vertex_vars()))
    _bump(counts, "infinite_mc.priorities", len(game.priorities))


def _count_solved(counts, args, kwargs, win):
    """A subformula's last layer call: its store is at its final size."""
    store = args[0].store
    _bump(counts, "driver.subformulas", 1)
    _bump(counts, "bdd.nodes_end", store.node_count())
    _bump(counts, "bdd.budget_share", store.node_count() / store.max_nodes)


# (module, function, span, counter or None)
LAYERS = (
    (cgsmod, "parse_model", "cgs.parse", None),
    (fm, "parse_formula", "formula.parse", None),
    (cgsmod, "make_store", "cgs.encode", None),
    (cgsmod, "encode_symbolic", "cgs.encode", _count_encode),
    (ltlf2dfa, "translate", "ltlf2dfa.translate", _count_dfa),
    (ltlf2dfa, "encode_dfa", "ltlf2dfa.encode", None),
    (dpamod, "obtain_dpa", "dpa.translate", _count_dpa),
    (dpamod, "encode_dpa", "dpa.encode", None),
    (finite_mc, "build_product", "finite_mc.build", _count_product),
    (finite_mc, "solve_safety", "finite_mc.solve", _count_safety),
    (finite_mc, "project_states", "finite_mc.project", _count_solved),
    (infinite_mc, "build_game", "infinite_mc.build", _count_game),
    (infinite_mc, "winning_states", "infinite_mc.solve", _count_solved),
)
LAYER_SPANS = tuple(dict.fromkeys(span for _, _, span, _ in LAYERS))
# every strategic subformula passes through one of each group exactly once
TRANSLATE_SPANS = ("ltlf2dfa.translate", "dpa.translate")
SOLVED_SPANS = ("finite_mc.project", "infinite_mc.solve")


class Tracer:
    def __init__(self):
        self.spans = []       # dicts: id, name, check, parent, start, end
        self.check_id = None
        self.counts = {}      # the current check's counts
        self._stack = []
        self._first = 0       # index of the current check's first span
        self._in_layer = False

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "check": self.check_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def check(self, check_id):
        """Group one check's spans; ``counts`` starts afresh."""
        self.check_id = check_id
        self.counts = {}
        self._first = len(self.spans)
        with self.span("check"):
            yield

    def coverage(self, subformulas):
        """Problems with the last check's trace, given the number of
        strategic subformulas the program reports it solved.  A layer
        call the wrappers did not see shows up here."""
        seen = {}
        for rec in self.spans[self._first:]:
            seen[rec["name"]] = seen.get(rec["name"], 0) + 1
        want = {"cgs.parse": 1, "formula.parse": 1,
                "translate": subformulas, "solve": subformulas}
        got = {"cgs.parse": seen.get("cgs.parse", 0),
               "formula.parse": seen.get("formula.parse", 0),
               "translate": sum(seen.get(n, 0) for n in TRANSLATE_SPANS),
               "solve": sum(seen.get(n, 0) for n in SOLVED_SPANS)}
        return [f"traced {name} calls: {got[name]}, expected {n}"
                for name, n in want.items() if got[name] != n]

    def _wrap(self, real, name, counter):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            if self._in_layer:
                return real(*args, **kwargs)
            self._in_layer = True
            try:
                with self.span(name):
                    result = real(*args, **kwargs)
            finally:
                self._in_layer = False
            if counter is not None:
                with self.span("trace.count"):
                    counter(self.counts, args, kwargs, result)
            return result
        return wrapper


@contextmanager
def traced(tracer):
    """Route every layer call through ``tracer`` while the block runs.

    A layer function that is missing from its module raises
    AttributeError: the trace would no longer cover the program.
    """
    saved = [(mod, fname, getattr(mod, fname))
             for mod, fname, _, _ in LAYERS]
    try:
        for (mod, fname, span, counter), (_, _, real) in zip(LAYERS, saved):
            setattr(mod, fname, tracer._wrap(real, span, counter))
        yield tracer
    finally:
        for mod, fname, real in saved:
            setattr(mod, fname, real)
