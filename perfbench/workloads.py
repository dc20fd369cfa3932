"""The benchmark's four workloads.

Each workload fixes one generated model and a cycle of check formulas.
The cycle is drawn from the run's seed, always starts with the anchor
formula and repeats it, so that at least half of any run's checks are
anchors; the seeded draws come from template classes of similar cost,
so a seed changes which formulas run, not how much work a run does.

Two sizes exist: ``full`` (the measured sizes) and ``smoke`` (scheduler
n=2, counter cap=3), which runs in seconds and backs the self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from atlstar import bench
from atlstar import formula as fm

WORKLOADS = ("sched-fair", "counter-ladder", "counter-response",
             "counter-reach")


@dataclass(frozen=True)
class Workload:
    name: str
    model: object          # Cgs
    semantics: str         # what the CLI infers from the model
    cycle: tuple           # formula texts, run in order and repeated
    hand: dict             # formula text -> expected satisfying state names


def build(name, seed, size="full"):
    """Generate the workload's model and draw its formula cycle."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{name}:{seed}")
    smoke = size == "smoke"
    if name == "sched-fair":
        return _sched_fair(rng, 2 if smoke else 3)
    if name == "counter-ladder":
        return _counter_ladder(rng, *((3, 5) if smoke else (6, 8)))
    if name == "counter-response":
        return _counter_response(rng, 3 if smoke else 100)
    return _counter_reach(rng, *((3, 3) if smoke else (35, 35)))


# ---------------------------------------------------------------------------
# sched-fair: the paper's family; every formula has n strategic parts, one
# model encoding each

def _sched_fair(rng, n):
    g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
    anchor = str(bench.scheduler_fairness_formula(n))
    templates = (
        "<<p{i}>> G (wt_{i} -> F !wt_{i})",
        "<<p{i}>> G F !wt_{i}",
        "<<p{i}>> G F gr_{i}",
        "<<sched>> G (wt_{i} -> F gr_{i})",
        "<<sched>> G F !wt_{i}",
    )
    parts = [f"({rng.choice(templates).format(i=rng.randint(1, n))})"
             for _ in range(n)]
    extra = " & ".join(parts)
    return Workload("sched-fair", g, "infinite", (anchor, anchor, extra), {})


# ---------------------------------------------------------------------------
# counter-ladder: a tiny model against a DFA over 2^cap letters

def _ladder(rungs, coalition):
    body = fm.finally_(fm.atom(f"p{rungs[-1]}"))
    for j in reversed(rungs[:-1]):
        body = fm.and_(fm.finally_(fm.atom(f"p{j}")), fm.next_(body))
    return str(fm.strategic(tuple(coalition), body))


def ladder_states(cap, steps, depth, increments):
    """Satisfying states of a depth-``depth`` ladder whose top rung is cap.

    Derived by hand, independently of any translator.  The counter only
    grows, so each conjunct ``F p_r`` holds iff the counter ends at r or
    more, and the nested ``X`` need ``depth`` positions.  From state
    (c, t) a trace has ``steps - t + 1`` positions, and a coalition that
    can add ``increments`` per step ends at ``c + increments * (steps -
    t)`` whatever the others do.  Only states reachable from c0_t0 count:
    with two agents, c <= 2t.
    """
    return frozenset(
        f"c{c}_t{t}"
        for t in range(steps + 1) for c in range(min(cap, 2 * t) + 1)
        if steps - t + 1 >= depth and c + increments * (steps - t) >= cap
    )


def _counter_ladder(rng, cap, steps):
    g = bench.gen_counter(bench.CounterParams(cap=cap, steps=steps))
    anchor = str(bench.counter_formula(cap))
    rungs = list(range(1, cap + 1))
    rng.shuffle(rungs)
    coalition = rng.choice((("a1", "a2"), ("a1",), ()))
    extra = _ladder(rungs, coalition)
    hand = {
        anchor: ladder_states(cap, steps, cap, 2),
        extra: ladder_states(cap, steps, cap, len(coalition)),
    }
    return Workload("counter-ladder", g, "finite", (anchor, anchor, extra),
                    hand)


# ---------------------------------------------------------------------------
# counter-response: a few hundred states, parity-game lifting dominates

def _counter_response(rng, cap):
    g = bench.gen_counter(bench.CounterParams(cap=cap, mode="infinite"))
    anchor = "<<a1>> G (p1 -> F counter_max)"
    agent = rng.choice(("a1", "a2"))
    i = rng.randint(1, cap - 1)
    # a single incrementing agent wins these: full-length lifting
    heavy = rng.choice((
        f"<<{agent}>> G (p{i} -> F counter_max)",
        f"<<{agent}>> G F counter_max",
    ))
    # opponents that wait, or a coalition that waits, settle at once;
    # ``<<>> G (p_i -> F p_j)`` is left out, its cost varies threefold
    # with i and j
    light = rng.choice((
        "<<>> G F counter_max",
        "<<a1,a2>> G !counter_max",
        "<<>> G !counter_max",
    ))
    return Workload("counter-response", g, "infinite",
                    (anchor, heavy, anchor, light), {})


# ---------------------------------------------------------------------------
# counter-reach: one encoding of a deep model, a real safety fixpoint

def _counter_reach(rng, cap, steps):
    g = bench.gen_counter(bench.CounterParams(cap=cap, steps=steps))
    anchor = "<<a1,a2>> F counter_max"
    coalitions = ("a1,a2", "a1", "a2", "")
    reach = f"<<{rng.choice(coalitions)}>> F p{rng.randint(1, cap)}"
    avoid = f"<<{rng.choice(coalitions)}>> G !counter_max"
    return Workload("counter-reach", g, "finite",
                    (anchor, anchor, reach, anchor, anchor, avoid), {})
