"""Benchmark model generators and the suite runner.

Three scalable families: a saturating multi-agent counter, a resource
scheduler with waiting processes, and an attacker/defenders scenario on
critical servers where defensive actions unlock with a per-server
suspicion bucket.  Each generator describes its model by a list of
state keys and functions for names, labels and successors, and
:func:`cgs.expand` builds the explicit model from them under the same
checks that the CGSL parser applies.  Generation is deterministic: the
same parameters always give a model with byte-identical ``to_text()``.
"""

from __future__ import annotations

import csv
import itertools
import json
import shlex
import warnings
from dataclasses import dataclass

from . import cgs as cgsmod
from . import driver
from . import formula as fm
from .errors import InputError, ResourceError


class BenchError(InputError):
    pass


MAX_GENERATED_STATES = 200_000
# cgs.expand makes one successor per row, a state and a joint action:
# scheduler n=7 (10,077,696 rows) generates, n=8 (75,582,720) does not
MAX_GENERATED_ROWS = 20_000_000


def _guard_size(states, joint, what, hint):
    """Refuse a model of ``states`` states and ``joint`` joint actions
    over either cap, before anything of it is built."""
    for n, unit, cap in ((states, "states", MAX_GENERATED_STATES),
                         (states * joint, "rows", MAX_GENERATED_ROWS)):
        if n > cap:
            raise BenchError(f"{what} would have {n} {unit} (cap {cap}); "
                             f"{hint}")


# ---------------------------------------------------------------------------
# Counter

@dataclass
class CounterParams:
    cap: int = 3          # the counter saturates here
    steps: int = 3        # finite mode: trace length bound
    agents: int = 2
    mode: str = "finite"  # "finite" | "infinite"


def gen_counter(p):
    """Shared saturating counter.

    Each agent either waits or increments; the counter gains one per
    incrementing agent, up to ``cap``.  Atom ``p<j>`` reads "the counter
    has reached j" and ``counter_max`` marks saturation.  In finite mode
    a step clock runs to ``steps`` and states on its last tick are
    final; in infinite mode the clock is dropped and the counter keeps
    saturating forever.
    """
    if p.cap < 1:
        raise BenchError("counter cap must be at least 1")
    if p.agents < 1:
        raise BenchError("counter needs at least one agent")
    if p.mode not in ("finite", "infinite"):
        raise BenchError(f"unknown counter mode {p.mode!r}")
    if p.mode == "finite" and p.steps < 1:
        raise BenchError("counter steps must be at least 1")

    agents = [f"a{i}" for i in range(1, p.agents + 1)]
    atoms = [f"p{j}" for j in range(1, p.cap + 1)] + ["counter_max"]
    # the label depends on the count alone
    rows = [frozenset(atoms[:c] + (["counter_max"] if c == p.cap else []))
            for c in range(p.cap + 1)]
    # key: (count, tick); the tick stays 0 in infinite mode
    finite = p.mode == "finite"
    _guard_size((p.cap + 1) * (p.steps + 1 if finite else 1),
                2 ** p.agents, "counter model",
                "reduce cap, steps or agents")
    keys = [(c, t) for c in range(p.cap + 1)
            for t in range(p.steps + 1 if finite else 1)]

    return cgsmod.expand(
        agents=agents, atoms=atoms,
        actions={a: ["wait", "inc"] for a in agents}, keys=keys,
        name=lambda k: f"c{k[0]}_t{k[1]}" if finite else f"c{k[0]}",
        label=lambda k: rows[k[0]],
        final=lambda k: finite and k[1] == p.steps, initial=keys[0],
        step=lambda k, moves: (min(p.cap, k[0] + moves.count("inc")),
                               min(p.steps, k[1] + 1) if finite else 0))


def counter_formula(depth, coalition=None, agents=2):
    """Nested reachability ladder <<A>> F p1 & X (F p2 & X (...))."""
    if coalition is None:
        coalition = tuple(f"a{i}" for i in range(1, agents + 1))
    body = fm.finally_(fm.atom(f"p{depth}"))
    for j in range(depth - 1, 0, -1):
        body = fm.and_(fm.finally_(fm.atom(f"p{j}")), fm.next_(body))
    return fm.strategic(coalition, body)


# ---------------------------------------------------------------------------
# Scheduler

@dataclass
class SchedulerParams:
    processes: int = 2


def gen_scheduler(p):
    """Single-resource scheduler with one-tick grants.

    Processes request the resource, wait until granted (or give up),
    and a grant lasts one tick.  Atoms ``wt_i`` and ``gr_i`` expose
    waiting and granted processes; since a waiting process may always
    give up, each process alone can enforce that it eventually stops
    waiting.  No final states: an infinite-semantics family.
    """
    n = p.processes
    if n < 2:
        raise BenchError("scheduler needs at least two processes")
    procs = [f"p{i}" for i in range(1, n + 1)]
    agents = procs + ["sched"]
    atoms = [f"wt_{i}" for i in range(1, n + 1)] + \
            [f"gr_{i}" for i in range(1, n + 1)]

    # state: per-process status in {i, w} plus the grant owner (0 = none),
    # whose own status is i; 3 actions per process, n + 1 for sched
    _guard_size(2 ** n + n * 2 ** (n - 1), 3 ** n * (n + 1),
                "scheduler model", "reduce processes")
    combos = list(itertools.product("iw", repeat=n))
    keys = [(owner, combo) for owner in range(n + 1) for combo in combos
            if not owner or combo[owner - 1] == "i"]

    def name(k):
        owner, combo = k
        tag = "".join("g" if owner == i + 1 else combo[i]
                      for i in range(n))
        return f"st_{tag}"

    def label(k):
        owner, combo = k
        labs = [f"wt_{i+1}" for i in range(n)
                if owner != i + 1 and combo[i] == "w"]
        return labs + [f"gr_{owner}"] if owner else labs

    def step(k, moves):
        owner, combo = k
        nxt = list(combo)
        if owner:
            nxt[owner - 1] = "i"       # grant expires
        for i in range(n):
            if owner == i + 1:
                continue
            if combo[i] == "i" and moves[i] == "req":
                nxt[i] = "w"
            elif combo[i] == "w" and moves[i] == "giveup":
                nxt[i] = "i"
        nowner = 0
        if moves[n] != "skip":
            i = int(moves[n][5:])
            if nxt[i - 1] == "w":
                nowner = i
                nxt[i - 1] = "i"
        return (nowner, tuple(nxt))

    actions = {q: ["req", "giveup", "noop"] for q in procs}
    actions["sched"] = [f"grant{i}" for i in range(1, n + 1)] + ["skip"]
    return cgsmod.expand(
        agents=agents, atoms=atoms, actions=actions, keys=keys, name=name,
        label=label, final=lambda k: False, initial=(0, tuple("i" * n)),
        step=step)


def scheduler_fairness_formula(n):
    """Conjunction over processes of <<p_i>> G (wt_i -> F !wt_i)."""
    parts = []
    for i in range(1, n + 1):
        body = fm.globally(fm.Formula("or", (
            fm.not_(fm.atom(f"wt_{i}")),
            fm.finally_(fm.not_(fm.atom(f"wt_{i}"))),
        ), None, None))
        parts.append(fm.strategic((f"p{i}",), body))
    out = parts[0]
    for p in parts[1:]:
        out = fm.and_(out, p)
    return out


# ---------------------------------------------------------------------------
# Suspicion heuristics

HEURISTICS = ("conservative", "aggressive", "proportional", "diversity")
# the bucket thresholds of the proportional heuristic (a fraction of the
# total weight) and of the diversity heuristic (a count of raised flags)
NORM_THRESHOLDS = (0.25, 0.5)
DIVERSITY_THRESHOLDS = (2, 4)


def suspicion_rule(heuristic, weights, thresholds, critical=(4, 5)):
    """The bucket function ``flags -> {0, 1, 2}`` of one heuristic.

    ``thresholds`` is the (t1, t2) pair for the weighted score.
    Conservative compares the weighted flag sum against t1/t2;
    aggressive escalates straight to 2 on any critical flag and is
    otherwise capped at the low bucket; proportional compares the score
    as a fraction of total weight against ``NORM_THRESHOLDS``; and
    diversity compares how many distinct flags are raised against
    ``DIVERSITY_THRESHOLDS``.  The parameters are checked here, once,
    so a model generator can call the rule per transition; ``flags``
    must hold one entry per weight.
    """
    t1, t2 = thresholds
    if t1 >= t2:
        raise BenchError("suspicion thresholds must satisfy t1 < t2")
    if any(w < 0 for w in weights):
        raise BenchError("suspicion weights must be non-negative")

    def score(flags):
        return sum(w for w, f in zip(weights, flags) if f)

    if heuristic == "conservative":
        def rule(flags):
            s = score(flags)
            return 2 if s >= t2 else 1 if s >= t1 else 0
    elif heuristic == "aggressive":
        def rule(flags):
            if any(flags[i] for i in critical):
                return 2
            return 1 if score(flags) >= t1 else 0
    elif heuristic == "proportional":
        n1, n2 = NORM_THRESHOLDS
        total = sum(weights)

        def rule(flags):
            ratio = score(flags) / total if total else 0.0
            return 2 if ratio >= n2 else 1 if ratio >= n1 else 0
    elif heuristic == "diversity":
        d1, d2 = DIVERSITY_THRESHOLDS

        def rule(flags):
            count = sum(1 for f in flags if f)
            return 2 if count >= d2 else 1 if count >= d1 else 0
    else:
        raise BenchError(f"unknown suspicion heuristic {heuristic!r}; "
                         f"pick from {HEURISTICS}")
    return rule


# ---------------------------------------------------------------------------
# Attacker / defenders server scenario

@dataclass
class CyberParams:
    scenario: str = "confidentiality"   # integrity | availability
    horizon: int = 3                    # None: no clock, infinite family
    budget: int = 2                     # shared defender repair budget
    heuristic: str = "conservative"
    weights: tuple = (1, 1, 2, 2, 3, 3)
    t1: int = 3
    t2: int = 6
    critical: tuple = (4, 5)
    servers: int = 1                    # abstraction knob; see gen_cyber


SCENARIOS = ("confidentiality", "integrity", "availability")

MONITOR_ACTIONS = ("monitor", "analyze")
ACTION_COSTS = {"do_nothing": 0, "monitor": 0, "analyze": 1,
                "remove": 1, "restore": 2, "data_repair": 2}
ACTION_MIN_SIGMA = {"do_nothing": 0, "monitor": 0, "analyze": 1,
                    "remove": 1, "restore": 2, "data_repair": 2}


def _cyber_actions(scenario):
    attack = ["nop", "scan", "escalate"]
    defend = ["do_nothing", "monitor", "remove", "restore"]
    if scenario == "integrity":
        attack.append("tamper")
        defend += ["analyze", "data_repair"]
    elif scenario == "availability":
        attack.append("deny")
    return attack, defend


def gen_cyber(p):
    """Servers defended under a suspicion-gated action budget.

    The attacker scans and escalates privilege on a server, then
    tampers (integrity) or denies service (availability); full
    privilege alone is the confidentiality breach.  Two defenders share
    a repair budget; their stronger actions unlock as the server's
    suspicion bucket rises, and the bucket only moves on ticks where a
    defender observed the server (monitor or analyze).  The reference
    scenario has five servers; the default here keeps one, the
    ``servers`` knob scales up until the state cap stops it.
    """
    if p.scenario not in SCENARIOS:
        raise BenchError(f"unknown scenario {p.scenario!r}; "
                         f"pick from {SCENARIOS}")
    if p.heuristic not in HEURISTICS:
        raise BenchError(f"unknown suspicion heuristic {p.heuristic!r}; "
                         f"pick from {HEURISTICS}")
    if p.budget < 0:
        raise BenchError("cyber budget must be non-negative")
    if p.horizon is not None and p.horizon < 1:
        raise BenchError("cyber horizon must be at least 1 (or None)")
    if p.servers < 1:
        raise BenchError("cyber needs at least one server")
    if any(not 0 <= i < 6 for i in p.critical):
        raise BenchError("critical flags must be indices 0-5 of the six "
                         f"alert flags, got {p.critical}")
    if len(p.weights) != 6:
        raise BenchError("cyber needs one weight per alert flag (six), "
                         f"got {len(p.weights)}")
    update = suspicion_rule(p.heuristic, p.weights, (p.t1, p.t2),
                            critical=p.critical)

    has_flag = p.scenario in ("integrity", "availability")
    per_server = 3 * 2 * (2 if has_flag else 1) * 3
    ticks = 1 if p.horizon is None else p.horizon + 1
    estimate = (per_server ** p.servers) * (p.budget + 1) * ticks
    attack, defend = _cyber_actions(p.scenario)
    servers = list(range(1, p.servers + 1))
    att_actions = ["nop"] + [f"{a}{s}" for a in attack[1:] for s in servers]
    def_actions = ["do_nothing"] + [
        f"{a}{s}" for a in defend[1:] for s in servers]
    _guard_size(
        estimate, len(att_actions) * len(def_actions) ** 2, "cyber model",
        "reduce horizon, budget, or servers (the servers knob trades "
        "scenario fidelity for tractability)")
    # action name -> (verb, server); the idle actions name no server
    verb_server = {f"{a}{s}": (a, s) for a in attack[1:] + defend[1:]
                   for s in servers}

    # server record: (priv, scanned, flag)   flag = tampered or down
    srv_space = itertools.product((0, 1, 2), (0, 1),
                                  (0, 1) if has_flag else (0,))
    # key: (server records, budget left, suspicion buckets, tick)
    keys = list(itertools.product(
        itertools.product(srv_space, repeat=p.servers),
        range(p.budget + 1),
        itertools.product((0, 1, 2), repeat=p.servers),
        range(ticks)))

    def name(k):
        srvs, b, sig, t = k
        parts = ["v" + "".join(f"{pr}{sc}{fl}" for pr, sc, fl in srvs),
                 f"b{b}", "s" + "".join(str(x) for x in sig)]
        if p.horizon is not None:
            parts.append(f"t{t}")
        return "_".join(parts)

    def compromised(srv):
        priv, sc, fl = srv
        if p.scenario == "confidentiality":
            return priv == 2
        return bool(fl)

    atoms = [f"compromised_{s}" for s in servers] + \
            [f"alert_{s}" for s in servers] + ["budget_ok"]

    def label(k):
        srvs, b, sig, t = k
        labs = []
        for i, s in enumerate(servers):
            if compromised(srvs[i]):
                labs.append(f"compromised_{s}")
            if sig[i] >= 1:
                labs.append(f"alert_{s}")
        if b > 0:
            labs.append("budget_ok")
        return labs

    def attacker_effect(srvs, action):
        verb, s = verb_server.get(action, (action, None))
        if s is None:
            return srvs
        out = list(srvs)
        priv, sc, fl = out[s - 1]
        if verb == "scan":
            sc = 1
        elif verb == "escalate" and sc and priv < 2:
            priv += 1
        elif verb in ("tamper", "deny") and priv >= 1:
            fl = 1
        out[s - 1] = (priv, sc, fl)
        return tuple(out)

    def defender_effect(srvs, b, sig, action):
        verb, s = verb_server.get(action, (action, None))
        if s is None:
            return srvs, b, False, None
        cost = ACTION_COSTS[verb]
        if sig[s - 1] < ACTION_MIN_SIGMA[verb] or b < cost:
            return srvs, b, False, None     # falls back to doing nothing
        out = list(srvs)
        priv, sc, fl = out[s - 1]
        observed = verb in MONITOR_ACTIONS
        if verb == "remove":
            priv, sc = 0, 0
        elif verb in ("restore", "data_repair"):
            fl = 0
        out[s - 1] = (priv, sc, fl)
        return tuple(out), b - cost, observed, s

    def flags_of(srv):
        priv, sc, fl = srv
        return (bool(sc), priv >= 1, priv >= 1, bool(fl),
                priv == 2, bool(fl))

    def step(k, moves):
        srvs, b, sig, t = k
        if p.horizon is not None and t == p.horizon:
            return k            # the scenario is over; freeze

        srvs = attacker_effect(srvs, moves[0])
        observed = set()
        for action in moves[1:]:
            srvs, b, saw, s = defender_effect(srvs, b, sig, action)
            if saw:
                observed.add(s)
        nsig = list(sig)
        for s in observed:
            nsig[s - 1] = update(flags_of(srvs[s - 1]))
        if p.horizon is not None:
            t = min(p.horizon, t + 1)
        return (srvs, b, tuple(nsig), t)

    return cgsmod.expand(
        agents=["attacker", "d1", "d2"], atoms=atoms,
        actions={"attacker": att_actions, "d1": def_actions,
                 "d2": def_actions},
        keys=keys, name=name, label=label,
        final=lambda k: k[3] == p.horizon,
        initial=(((0, 0, 0),) * p.servers, p.budget, (0,) * p.servers, 0),
        step=step)


def cyber_defense_formula(server=1):
    """<<d1,d2>> F G !compromised_<server>."""
    body = fm.finally_(fm.globally(fm.not_(fm.atom(f"compromised_{server}"))))
    return fm.strategic(("d1", "d2"), body)


def minimal_defense_budget(params, lo=0, hi=None):
    """Smallest budget at which the defenders win, or None.

    The defense objective is monotone in the budget, so a binary search
    finds it.  An empty range ``lo > hi`` holds no budget.
    """
    if hi is None:
        hi = params.budget
    if lo > hi:
        return None

    def wins(b):
        from dataclasses import replace
        g = gen_cyber(replace(params, budget=b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = driver.check(model=g, formula=cyber_defense_formula(),
                               semantics="finite")
        return res.holds

    if not wins(hi):
        return None
    lo_b, hi_b = lo, hi
    while lo_b < hi_b:
        mid = (lo_b + hi_b) // 2
        if wins(mid):
            hi_b = mid
        else:
            lo_b = mid + 1
    return lo_b


# ---------------------------------------------------------------------------
# Suite runner

GENERATORS = {
    "counter": (CounterParams, gen_counter),
    "scheduler": (SchedulerParams, gen_scheduler),
    "cyber": (CyberParams, gen_cyber),
}

SUITE_COLUMNS = ["row", "generator", "params", "formula", "engine",
                 "states", "verdict", "ms_parse", "ms_translate",
                 "ms_encode", "ms_build", "ms_solve", "ms_total"]

# the fields a suite line may set
SUITE_KEYS = ("generator", "params", "formula", "engine", "semantics",
              "repeats")


def parse_suite_line(line):
    """One suite entry: key=value fields, shell-style quoting.

    Example::

        generator=counter params cap=3;steps=4 \
            formula="<<a1,a2>> F counter_max" engine=symbolic repeats=3
    """
    fields = {}
    params = {}
    try:
        toks = shlex.split(line, comments=True)
    except ValueError as e:  # an unbalanced quote
        raise BenchError(f"malformed suite line: {e}") from None
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "params":
            i += 1
            if i >= len(toks):
                raise BenchError("params keyword without assignments")
            for part in toks[i].split(";"):
                if not part:
                    continue
                if "=" not in part:
                    raise BenchError(f"malformed param {part!r}")
                k, v = part.split("=", 1)
                params[k] = v
        elif "=" in tok:
            k, v = tok.split("=", 1)
            if k not in SUITE_KEYS:
                raise BenchError(f"unknown suite key {k!r}; "
                                 f"known: {', '.join(SUITE_KEYS)}")
            if k == "params":
                raise BenchError("params takes its assignments as the next "
                                 "token, as in params cap=3;steps=4")
            fields[k] = v
        else:
            raise BenchError(f"unexpected token {tok!r} in suite line")
        i += 1
    if "generator" not in fields:
        raise BenchError("suite line needs generator=")
    if "formula" not in fields:
        raise BenchError("suite line needs formula=")
    fields["params"] = params
    return fields


def _coerce(name, value, target):
    try:
        if isinstance(target, int):
            return int(value)
        if isinstance(target, tuple):
            return tuple(int(x) for x in value.split(","))
    except ValueError:
        what = ("an integer" if isinstance(target, int)
                else "comma-separated integers")
        raise BenchError(f"parameter {name!r} expects {what}, "
                         f"got {value!r}") from None
    return value


def build_model(generator, params):
    if generator not in GENERATORS:
        raise BenchError(f"unknown generator {generator!r}; "
                         f"known: {sorted(GENERATORS)}")
    cls, gen = GENERATORS[generator]
    defaults = cls()
    kwargs = {}
    for k, v in params.items():
        if not hasattr(defaults, k):
            raise BenchError(f"generator {generator!r} has no "
                             f"parameter {k!r}")
        cur = getattr(defaults, k)
        if k == "horizon" and v in ("none", "None"):
            kwargs[k] = None
        else:
            kwargs[k] = _coerce(k, v, cur)
    return gen(cls(**kwargs))


def run_suite(text, csv_path=None, json_path=None):
    """Run every non-empty suite line; return the result rows.

    A row that hits an input error records an ``error: ...`` verdict,
    one that hits a resource limit (running out of memory included) a
    ``resource limit: ...`` verdict, and the suite moves on; any other
    exception is a fault of the program and ends the suite.  Results are
    optionally mirrored to CSV and JSON files.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = {c: "" for c in SUITE_COLUMNS}
        row["row"] = len(rows) + 1
        try:
            fields = parse_suite_line(line)
            row["generator"] = fields["generator"]
            row["params"] = ";".join(
                f"{k}={v}" for k, v in sorted(fields["params"].items()))
            row["formula"] = fields["formula"]
            row["engine"] = fields.get("engine", "symbolic")
            try:
                repeats = int(fields.get("repeats", "1"))
            except ValueError:
                raise BenchError("repeats expects an integer, got "
                                 f"{fields['repeats']!r}") from None
            if repeats < 1:
                raise BenchError("repeats must be positive")
            g = build_model(fields["generator"], fields["params"])
            row["states"] = len(g.states)
            semantics = fields.get("semantics",
                                   "finite" if g.final else "infinite")
            timings = {"parse": 0.0, "translate": 0.0, "encode": 0.0,
                       "build": 0.0, "solve": 0.0, "total": 0.0}
            result = None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(repeats):
                    result = driver.check(
                        model=g, formula=fields["formula"],
                        semantics=semantics, engine=row["engine"])
                    for key in timings:
                        timings[key] += result.timings_ms.get(key, 0.0)
            row["verdict"] = "holds" if result.holds else "not-holds"
            for key in timings:
                row[f"ms_{key}"] = round(timings[key] / repeats, 3)
        except InputError as e:
            row["verdict"] = f"error: {e}"
        except (ResourceError, MemoryError) as e:
            row["verdict"] = f"resource limit: {str(e) or 'out of memory'}"
        rows.append(row)

    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=SUITE_COLUMNS)
            w.writeheader()
            w.writerows(rows)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return rows
