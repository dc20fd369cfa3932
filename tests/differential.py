"""Differential corpus of ``atlstar check`` runs and its digests.

The corpus is built from fixed seeds, in groups:

- ``random``: random models against the acceptance tests' path bodies,
  under every coalition;
- ``nested``: random models against nested strategic formulas;
- ``perfbench``: the benchmark's formula cycles at seeds 1, 3 and 7919,
  on its smoke-size models;
- ``counter``, ``scheduler``, ``cyber``: sweeps of the generated
  families;
- ``malformed``: models, formulas and configs that must be refused.

Each check runs in process through ``cli.main(["check", ..., "--json"])``,
on both engines and under both semantics.  Where both engines give a
verdict they must agree.  Each group's outputs, without ``timings_ms``
and the per-subformula ``nodes``, are compared with ``DIFFERENTIAL.json``,
which holds each group's count of checks, histogram of exit codes and
the sha256 of its outputs.  The tier-1 slice runs a smaller draw of the
same groups.

    python tests/differential.py            # run the full corpus
    python tests/differential.py --slice    # run the tier-1 slice
    python tests/differential.py --write    # regenerate both digests

A change that moves any output regenerates the digests and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "DIFFERENTIAL.json"
for _p in (ROOT / "src", ROOT / "perfbench", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from atlstar import bench  # noqa: E402
from atlstar import cli  # noqa: E402

import helpers  # noqa: E402
from test_acceptance import (FINITE_CORPUS, NESTED_CORPUS,  # noqa: E402
                             SHARED_STORE_CORPUS)

SEMANTICS = ("finite", "infinite")
ENGINES = ("symbolic", "explicit")
PERFBENCH_SEEDS = (1, 3, 7919)


class Group:
    """Model files by name and the checks to run on them."""

    def __init__(self):
        self.models = {}   # name -> text (str) or raw bytes
        # (model name, [formula, options...], the formula and semantics
        # whose engines must agree, or None)
        self.checks = []

    def model(self, name, content):
        self.models[name] = content
        return name

    def check(self, model, formula, extra=()):
        """The formula under both semantics on both engines."""
        for sem in SEMANTICS:
            for engine in ENGINES:
                self.checks.append((model, [formula, "--semantics", sem,
                                            "--engine", engine, *extra],
                                    (formula, sem)))


def _random_group(full):
    grp = Group()
    rng = random.Random(20261020)
    for k in range(50 if full else 6):
        g = helpers.random_cgs(rng, rng.randint(2, 12), rng.randint(1, 3))
        m = grp.model(f"random{k}", g.to_text())
        for body in FINITE_CORPUS:
            for coal in ("", "a", "b", "a,b"):
                grp.check(m, f"<<{coal}>> ({body})")
    return grp


def _nested_group(full):
    grp = Group()
    rng = random.Random(5309)
    for k in range(40 if full else 5):
        g = helpers.random_cgs(rng, rng.randint(2, 12), rng.randint(1, 3))
        m = grp.model(f"nested{k}", g.to_text())
        for text in SHARED_STORE_CORPUS:
            grp.check(m, text)
        for body in NESTED_CORPUS:
            grp.check(m, f"<<{'ab'[k % 2]}>> ({body})")
    return grp


def _perfbench_group(full):
    from workloads import WORKLOADS, build
    grp = Group()
    for seed in PERFBENCH_SEEDS:
        for name in WORKLOADS:
            wl = build(name, seed, "smoke")
            m = grp.model(f"{name}-s{seed}", wl.model.to_text())
            for text in dict.fromkeys(wl.cycle):
                grp.check(m, text)
    return grp


def _counter_group(full):
    grp = Group()
    top = 4 if full else 2
    for cap in range(1, top + 1):
        for steps in range(1, top + 1):
            g = bench.gen_counter(bench.CounterParams(cap=cap, steps=steps))
            m = grp.model(f"counter-c{cap}-s{steps}", g.to_text())
            for text in (str(bench.counter_formula(cap)),
                         str(bench.counter_formula(cap, ("a1",))),
                         "<<a1,a2>> F counter_max", "<<a1>> G !counter_max",
                         "<<>> F p1", "<<a2>> (p1 U counter_max)",
                         "<<a1,a2>> F (p1 & <<a1>> F counter_max)"):
                grp.check(m, text)
    for cap in range(1, top + 2):
        g = bench.gen_counter(bench.CounterParams(cap=cap, mode="infinite"))
        m = grp.model(f"counter-inf-c{cap}", g.to_text())
        for text in ("<<a1>> G (p1 -> F counter_max)",
                     "<<a1>> G F counter_max", "<<>> G !counter_max",
                     "<<a1,a2>> G !counter_max", "<<a2>> F G counter_max",
                     "<<a1,a2>> F (p1 & <<a1>> F counter_max)"):
            grp.check(m, text)
    return grp


def _scheduler_group(full):
    grp = Group()
    for n in ((2, 3) if full else (2,)):
        g = bench.gen_scheduler(bench.SchedulerParams(processes=n))
        m = grp.model(f"scheduler-n{n}", g.to_text())
        grp.check(m, str(bench.scheduler_fairness_formula(n)))
        for i in range(1, n + 1):
            for text in (f"<<p{i}>> G (wt_{i} -> F !wt_{i})",
                         f"<<p{i}>> G F !wt_{i}", f"<<p{i}>> G F gr_{i}",
                         f"<<sched>> G (wt_{i} -> F gr_{i})",
                         f"<<sched>> G F !wt_{i}", f"<<>> G !gr_{i}"):
                grp.check(m, text)
    return grp


def _cyber_group(full):
    grp = Group()
    rng = random.Random(2222)
    for k in range(24 if full else 2):
        p = bench.CyberParams(
            scenario=bench.SCENARIOS[k % 3], horizon=rng.randint(1, 3),
            budget=rng.randint(0, 3),
            heuristic=bench.HEURISTICS[k // 3 % 4])
        g = bench.gen_cyber(p)
        m = grp.model(f"cyber{k}", g.to_text())
        for text in (str(bench.cyber_defense_formula()),
                     "<<d1,d2>> G !compromised_1",
                     "<<attacker>> F compromised_1"):
            grp.check(m, text)
    return grp


TINY = ["agents: a", "atoms: goal", "states: s0 s1", "initial: s0",
        "final: s1", "actions a: go stay", "label s1: goal",
        "trans s0 (go) -> s1", "trans s0 (stay) -> s0",
        "trans s1 (go) -> s1", "trans s1 (stay) -> s1"]


def _edit(drop=(), add=(), replace=None):
    lines = [ln for i, ln in enumerate(TINY) if i not in drop]
    if replace:
        lines = [ln.replace(*replace) for ln in lines]
    return "\n".join(lines + list(add)) + "\n"


def _malformed_group(full):
    grp = Group()
    tiny = grp.model("tiny", _edit())
    bad_models = {
        "no-agents": _edit(drop=(0,)),
        "no-initial": _edit(drop=(3,)),
        "missing-row": _edit(drop=(10,)),
        "duplicate-row": _edit(add=("trans s1 (go) -> s0",)),
        "undefined-atom": _edit(replace=("label s1: goal",
                                         "label s1: goal x")),
        "undefined-state": _edit(add=("trans s2 (go) -> s1",)),
        "reserved-atom": _edit(replace=("atoms: goal", "atoms: goal __x")),
        "bad-line": _edit(add=("this is not CGSL",)),
        "empty": "",
        "not-utf8": b"agents: a\n\xff\xfe\n",
    }
    for name, content in bad_models.items():
        grp.check(grp.model(name, content), "<<a>> F goal")
    grp.check("no-such-file", "<<a>> F goal")
    for text in ("<<a>> F", "F goal", "<<z>> F goal", "<<a>> F zzz",
                 "goal &", "", "<<a>> F (goal", "<<a>> X X X goal U"):
        grp.check(tiny, text)
    cfg = grp.model("config", "semantics=finite\nsolver=other\n")
    grp.checks.append((tiny, ["<<a>> F goal", "--config", cfg], None))
    return grp


GROUPS = {"random": _random_group, "nested": _nested_group,
          "perfbench": _perfbench_group, "counter": _counter_group,
          "scheduler": _scheduler_group, "cyber": _cyber_group,
          "malformed": _malformed_group}


def _run_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _strip(stdout):
    """The check's JSON without timings and BDD node counts."""
    res = json.loads(stdout)
    del res["timings_ms"]
    for sub in res["details"]["subformulas"]:
        del sub["nodes"]
    return res


_FRESH = re.compile(r"__sub(\d+)")


def _renumber(text):
    """``text`` with the fresh atoms it names renumbered 1, 2, ... in
    the order of their numbers.  A fresh atom's number is an internal
    name: the committed digests must not depend on whether a version
    numbers them per check or across a process's checks."""
    ranks = {n: i for i, n in enumerate(
        sorted({int(m) for m in _FRESH.findall(text)}), 1)}
    return _FRESH.sub(lambda m: f"__sub{ranks[int(m.group(1))]}", text)


def run_group(grp, workdir):
    """Run a group's checks; returns (records, engine disagreements)."""
    paths = {}
    for name, content in grp.models.items():
        path = workdir / f"{name}.cgs"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name] = str(path)
    records, verdicts = [], {}
    for model, args, pair in grp.checks:
        args = [paths.get(a, a) for a in args]
        rc, out, err = _run_one(
            ["check", paths.get(model, str(workdir / model)), *args,
             "--json"])
        if rc in (0, 1):
            out = _strip(out)
            if pair is not None:
                verdicts.setdefault((model, *pair), []).append(
                    (out["holds"], out["states"]))
        here = str(workdir)
        records.append([model, [a.replace(here, "<dir>") for a in args], rc,
                        out, _renumber(err.replace(here, "<dir>"))])
    disagreements = [
        (key, found) for key, found in verdicts.items()
        if len({(holds, tuple(states)) for holds, states in found}) > 1]
    return records, disagreements


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    rcs = Counter(rec[2] for rec in records)
    return {"checks": len(records),
            "exit_codes": {str(rc): rcs[rc] for rc in sorted(rcs)},
            "sha256": h.hexdigest()}


def run(size):
    """Run the corpus of ``size`` ("full" or "slice"); returns the
    digest per group and the engine disagreements."""
    got, disagreements = {}, []
    with tempfile.TemporaryDirectory(prefix="atlstar-diff-") as tmp:
        for name, make in GROUPS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            records, bad = run_group(make(size == "full"), workdir)
            got[name] = digest(records)
            disagreements += [(name, *d) for d in bad]
    return got, disagreements


def compare(size, got):
    """Groups whose digest differs from the committed one."""
    want = json.loads(DIGESTS.read_text())[size]
    return [f"{name}: got {got.get(name)}, committed {want.get(name)}"
            for name in sorted(set(want) | set(got))
            if got.get(name) != want.get(name)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--slice", action="store_true",
                    help="run the tier-1 slice instead of the full corpus")
    ap.add_argument("--write", action="store_true",
                    help="regenerate the digests of both sizes")
    args = ap.parse_args(argv)
    sizes = ("slice", "full") if args.write else \
        ("slice",) if args.slice else ("full",)
    results, failed = {}, False
    for size in sizes:
        t0 = time.perf_counter()
        got, disagreements = run(size)
        results[size] = got
        total = sum(d["checks"] for d in got.values())
        print(f"{size}: {total} checks in {time.perf_counter() - t0:.1f} s")
        for d in disagreements:
            print(f"engines disagree: {d}")
            failed = True
        if not args.write:
            for line in compare(size, got):
                print(f"digest differs: {line}")
                failed = True
    if args.write and not failed:
        DIGESTS.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {DIGESTS}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
