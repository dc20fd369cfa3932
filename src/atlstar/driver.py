"""Top-level model-checking driver.

Checks an ATL* state formula against a concurrent game structure by
recursive labelling: strategic subformulas are solved innermost-first,
their winning state sets become fresh labels, and the boolean skeleton
is evaluated per state.  Explicit state-id sets are the common currency
between engines and between subformulas: the symbolic engine encodes
the model once per check and rolls its store back to that encoding
before each further subformula, so no BDD outlives its subformula.
"""

from __future__ import annotations

import dataclasses
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


class DriverError(Exception):
    pass


@dataclass
class CheckRequest:
    model: object            # Cgs
    formula: object          # Formula or str
    semantics: str = "finite"      # "finite" | "infinite"
    engine: str = "symbolic"       # "symbolic" | "explicit"
    solver: str = "zielonka"       # infinite only: "zielonka" | "progress"
    tools: tuple = ()              # external DPA translator commands
    byte_budget: int = 256 * 1024 * 1024
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
    if req.solver not in infinite_mc.SOLVERS:
        raise DriverError(f"unknown solver {req.solver!r}")

    g = req.model
    cgsmod.validate(g)
    unknown = sorted(p for p in fm.atoms_of(psi)
                     if p not in g.atoms and not p.startswith(fm.FRESH_PREFIX))
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

    extra = {}    # fresh atom -> set of states where it holds

    def label(f):
        k = f.kind
        if k == "true":
            return set(reachable)
        if k == "false":
            return set()
        if k == "atom":
            if f.name in extra:
                return set(extra[f.name])
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
        body, mapping = fm.extract_state_subformulas(f.children[0])
        for fresh, sub in mapping.items():
            extra[fresh] = label(sub)
        coalition = f.coalition
        for a in coalition:
            if a not in g.agents:
                raise DriverError(f"unknown agent {a!r} in coalition")
        # the model as the automaton reads it: fresh atoms label states
        labelled = _with_extra_labels(g, extra)
        if req.semantics == "finite":
            win, stats = solve_finite(body, coalition, labelled)
        else:
            win, stats = solve_infinite(body, coalition, labelled)
        details["subformulas"].append(
            {"formula": str(f), "winning": sorted(win), **stats})
        return win & reachable

    def encoded(n_states):
        """The model's encoding in a store whose automaton block holds
        ``n_states`` states, with every node of earlier subformulas
        released.  The store is rebuilt, at exactly the width needed,
        only when an automaton outgrows the block; it is not padded
        ahead, since the game's edge relation equates every bit of s
        and s', so unused high bits would add nodes to it."""
        bits = cgsmod.bits_for(n_states)
        sg = encoding.get("sg")
        if sg is not None and len(sg.store.block("s")) >= bits:
            sg.store.release(encoding["mark"])
            return sg
        store = cgsmod.make_store(
            g, automaton_bits=bits, game=req.semantics == "infinite",
            byte_budget=req.byte_budget)
        sg = cgsmod.encode_symbolic(g, store, reachable=reachable)
        encoding.update(sg=sg, mark=store.node_count())
        details["encodes"] += 1
        return sg

    # each solver returns the winning states and the subformula's stats:
    # fixpoint rounds, automaton states and the store's final node count
    # (all None for the explicit engines)
    explicit_stats = {"rounds": None, "automaton_states": None,
                      "nodes": None}

    def solve_finite(body, coalition, labelled):
        t0 = time.perf_counter()
        # the explicit oracle reads every letter, independently of the model
        labels = None
        if req.engine == "symbolic":
            labels = [labelled.labels[q] for q in reachable]
        dfa = ltlf2dfa.translate(body, labels=labels)
        t1 = time.perf_counter()
        timings["translate"] += (t1 - t0) * 1000
        if req.engine == "explicit":
            t2 = time.perf_counter()
            win = finite_mc.explicit_game_solving(
                labelled, body, coalition, dfa=dfa,
                product_cap=req.product_cap, reachable=reachable)
            timings["solve"] += (time.perf_counter() - t2) * 1000
            return win, explicit_stats
        sg = encoded(dfa.n_states)
        sd = ltlf2dfa.encode_dfa(dfa, sg, labelled)
        t2 = time.perf_counter()
        prod = finite_mc.build_product(sg, sd, coalition)
        t3 = time.perf_counter()
        res = finite_mc.solve_safety(prod)
        t4 = time.perf_counter()
        timings["encode"] += (t2 - t1) * 1000
        timings["build"] += (t3 - t2) * 1000
        timings["solve"] += (t4 - t3) * 1000
        win = finite_mc.project_states(sg, sd, res.winning & prod.entry)
        return win, {"rounds": res.iterations,
                     "automaton_states": dfa.n_states,
                     "nodes": sg.store.node_count()}

    def solve_infinite(body, coalition, labelled):
        t0 = time.perf_counter()
        dpa, tool = dpamod.obtain_dpa(body, tools=req.tools)
        t1 = time.perf_counter()
        timings["translate"] += (t1 - t0) * 1000
        details.setdefault("translators", []).append(tool)
        if req.engine == "explicit":
            t2 = time.perf_counter()
            win = infinite_mc.winning_states_explicit(
                labelled, dpa, coalition, reachable=reachable)
            timings["solve"] += (time.perf_counter() - t2) * 1000
            return win, explicit_stats
        sg = encoded(dpa.n_states)
        sd = dpamod.encode_dpa(dpa, sg, labelled)
        t2 = time.perf_counter()
        game = infinite_mc.build_game(sg, sd, coalition)
        t3 = time.perf_counter()
        win = infinite_mc.winning_states(sg, sd, coalition, game=game,
                                         solver=req.solver)
        t4 = time.perf_counter()
        timings["encode"] += (t2 - t1) * 1000
        timings["build"] += (t3 - t2) * 1000
        timings["solve"] += (t4 - t3) * 1000
        return win, {"rounds": game.rounds,
                     "automaton_states": dpa.n_states,
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


def _with_extra_labels(g, extra):
    """The model with fresh atoms added to its labels: ``extra`` maps each
    fresh atom to the set of states where it holds."""
    if not extra:
        return g
    return dataclasses.replace(
        g, atoms=list(g.atoms) + sorted(extra),
        labels=[row | {p for p, qs in extra.items() if q in qs}
                for q, row in enumerate(g.labels)])
