"""Top-level model-checking driver.

Checks an ATL* state formula against a concurrent game structure by
recursive labelling: strategic subformulas are solved innermost-first,
their winning state sets become fresh labels, numbered per check, and
the boolean skeleton is evaluated per state.  Every strategic
subformula takes one pipeline under both semantics: its path formula
is translated (to a DFA for finite traces, a DPA for infinite ones),
and either the explicit oracle solves it on ``games.explicit_arena``,
or the automaton is encoded, the layered arena of ``games`` built and
solved by the semantics' ``winning_states``, which supplies only the
objective (safety in ``finite_mc``, parity in ``infinite_mc``).
Explicit state-id sets are the common currency between engines and
between subformulas: the symbolic engine encodes the model once per
check and rolls its store back to that encoding before each further
subformula, so no BDD outlives its subformula.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import time
import warnings
from dataclasses import dataclass, field

from . import cgs as cgsmod
from . import dpa as dpamod
from . import finite_mc
from . import formula as fm
from . import infinite_mc
from . import ltlf2dfa
from .errors import AtlstarError, InputError


class DriverError(InputError):
    pass


@dataclass
class CheckRequest:
    model: object            # Cgs
    formula: object          # Formula or str
    semantics: str = "finite"      # "finite" | "infinite"
    engine: str = "symbolic"       # "symbolic" | "explicit"
    solver: str = "zielonka"       # the only value; kept for callers
    tools: tuple = ()              # external DPA translator commands
    product_cap: int = finite_mc.DEFAULT_PRODUCT_CAP


@dataclass
class CheckResult:
    formula: str
    semantics: str
    engine: str
    holds: bool
    states: list             # sorted ids where the formula holds
    state_names: list
    timings_ms: dict         # parse/translate/encode/build/solve, total
    details: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({
            "formula": self.formula,
            "semantics": self.semantics,
            "engine": self.engine,
            "holds": self.holds,
            "states": self.states,
            "state_names": self.state_names,
            "timings_ms": {k: round(v, 3)
                           for k, v in sorted(self.timings_ms.items())},
            "details": self.details,
        }, indent=2, sort_keys=False)


def check(request=None, **kwargs):
    """Check a state formula; returns a CheckResult.

    Either pass a CheckRequest or the same fields as keywords.
    """
    req = request or CheckRequest(**kwargs)
    t_start = time.perf_counter()
    if isinstance(req.formula, str):
        psi = fm.parse_formula(req.formula)
    else:
        psi = req.formula
    t_parsed = time.perf_counter()
    if fm.classify(psi) != "state":
        raise DriverError(
            f"not a state formula (path operators must sit under a "
            f"strategic quantifier): {psi}"
        )
    if req.semantics not in ("finite", "infinite"):
        raise DriverError(f"unknown semantics {req.semantics!r}")
    if req.engine not in ("symbolic", "explicit"):
        raise DriverError(f"unknown engine {req.engine!r}")
    if req.solver != "zielonka":
        raise DriverError(f"unknown solver {req.solver!r}")

    g = req.model
    cgsmod.validate(g)
    unknown = sorted(p for p in fm.atoms_of(psi) if p not in g.atoms)
    if unknown:
        raise DriverError(
            f"formula atoms not declared by the model: {', '.join(unknown)}")
    if req.semantics == "finite" and not g.final:
        warnings.warn("finite-trace semantics on a model with no final "
                      "states: traces never terminate, safety is vacuous")
    if req.semantics == "infinite" and g.final:
        warnings.warn("infinite-trace semantics ignores final states")

    timings = {"parse": (t_parsed - t_start) * 1000, "translate": 0.0,
               "encode": 0.0, "build": 0.0, "solve": 0.0}
    details = {"encodes": 0, "subformulas": []}
    reachable = frozenset(g.reachable_states())
    # the symbolic engine's one model encoding, and the store's node
    # count right after it
    encoding = {}

    # the model as the automata read it, each inner strategic
    # subformula's winning states labelled by a fresh atom
    labelled = g
    numbers = itertools.count(1)

    def label(f):
        k = f.kind
        if k == "true":
            return set(reachable)
        if k == "false":
            return set()
        if k == "atom":
            return {q for q in reachable if f.name in g.labels[q]}
        if k == "not":
            return set(reachable) - label(f.children[0])
        if k == "and":
            return label(f.children[0]) & label(f.children[1])
        if k == "or":
            return label(f.children[0]) | label(f.children[1])
        if k == "strategic":
            return label_strategic(f)
        raise DriverError(f"path operator outside strategic scope: {f}")

    def label_strategic(f):
        nonlocal labelled
        body, mapping = fm.extract_state_subformulas(f.children[0], numbers)
        for fresh, sub in mapping.items():
            # labelling sub may add its own inner atoms to labelled
            won = label(sub)
            labelled = _with_label(labelled, fresh, won)
        coalition = f.coalition
        for a in coalition:
            if a not in g.agents:
                raise DriverError(f"unknown agent {a!r} in coalition")
        win, stats = solve(body, coalition, labelled, f.children[0])
        details["subformulas"].append(
            {"formula": str(f), "winning": sorted(win), **stats})
        return win & reachable

    def encoded(n_states):
        """The model's encoding in a store whose automaton block holds
        ``n_states`` states, with every node of earlier subformulas
        released.  The store is rebuilt, at exactly the width needed,
        only when an automaton outgrows the block; it is not padded
        ahead, since the automaton's relations fix every bit of s and
        s', so unused high bits would add nodes to them."""
        bits = cgsmod.bits_for(n_states)
        sg = encoding.get("sg")
        if sg is not None and len(sg.store.block("s")) >= bits:
            sg.store.release(encoding["mark"])
            return sg
        store = cgsmod.make_store(g, automaton_bits=bits)
        sg = cgsmod.encode_symbolic(g, store, reachable=reachable)
        encoding.update(sg=sg, mark=store.node_count())
        details["encodes"] += 1
        return sg

    def solve(body, coalition, labelled, path):
        """The states from which ``coalition`` enforces ``path``, whose
        strategic subformulas are the fresh atoms of ``body`` that
        ``labelled`` carries, and the subformula's stats: attractor
        steps, automaton states and the store's final node count (all
        None for the explicit engines)."""
        # the semantics picks the layers, each looked up on its module
        # now, so that a function replaced there is the one called
        if req.semantics == "finite":
            def translate():
                # the explicit oracle reads every letter, independently
                # of the model; the symbolic engine reads the distinct
                # reachable rows
                labels = None
                if req.engine == "symbolic":
                    labels = {labelled.labels[q] for q in reachable}
                return ltlf2dfa.translate(body, labels=labels)
            oracle = functools.partial(finite_mc.explicit_game_solving,
                                       product_cap=req.product_cap)
            encode, build = ltlf2dfa.encode_dfa, finite_mc.build_product
            solver = finite_mc
        else:
            def translate():
                dpa, tool = dpamod.obtain_dpa(body, tools=req.tools)
                details.setdefault("translators", []).append(tool)
                return dpa
            oracle = infinite_mc.winning_states_explicit
            encode, build = dpamod.encode_dpa, infinite_mc.build_game
            solver = infinite_mc

        t0 = time.perf_counter()
        try:
            aut = translate()
        except AtlstarError as e:
            # name the path formula as written, not its fresh atoms
            e.args = (str(e).replace(str(body), str(path)),)
            raise
        t1 = time.perf_counter()
        timings["translate"] += (t1 - t0) * 1000
        if req.engine == "explicit":
            win = oracle(labelled, aut, coalition, reachable=reachable)
            timings["solve"] += (time.perf_counter() - t1) * 1000
            return win, {"rounds": None, "automaton_states": None,
                         "nodes": None}
        sg = encoded(aut.n_states)
        sd = encode(aut, sg, labelled)
        t2 = time.perf_counter()
        game = build(sg, sd, coalition)
        t3 = time.perf_counter()
        win = solver.winning_states(sg, sd, game)
        t4 = time.perf_counter()
        timings["encode"] += (t2 - t1) * 1000
        timings["build"] += (t3 - t2) * 1000
        timings["solve"] += (t4 - t3) * 1000
        return win, {"rounds": game.rounds,
                     "automaton_states": aut.n_states,
                     "nodes": sg.store.node_count()}

    try:
        states = label(psi)
    finally:
        # the nested functions above form a reference cycle; drop the
        # store now rather than at the next cyclic garbage collection
        encoding.clear()
    timings["total"] = (time.perf_counter() - t_start) * 1000
    holds = g.initial in states
    return CheckResult(
        formula=str(psi),
        semantics=req.semantics,
        engine=req.engine,
        holds=holds,
        states=sorted(states),
        state_names=[g.states[q] for q in sorted(states)],
        timings_ms=timings,
        details=details,
    )


def _with_label(g, atom, states):
    """The model with ``atom`` added to the label rows of ``states``.
    Each distinct row is extended once, so states that shared a row
    still share one."""
    labels = list(g.labels)
    grown = {}
    for q in states:
        row = labels[q]
        new = grown.get(row)
        if new is None:
            new = grown[row] = row | {atom}
        labels[q] = new
    return dataclasses.replace(g, atoms=[*g.atoms, atom], labels=labels)
