"""Closed-loop benchmark of ``atlstar check``.

Usage, from the repository root:

    python3 perfbench/run.py --workload sched-fair --seed 1 --seconds 20 \\
        --trace 0

One client sends one check at a time, in process, through
``atlstar.cli.main(["check", MODEL, FORMULA, "--json"])``, so model
parsing, formula parsing, checking and JSON output all count.  Checks
cycle through the workload's formulas (see ``workloads.py``) until
``--seconds`` have passed and the last cycle is complete, so every run
measures the same mix of formulas.  Afterwards every verdict and
satisfying-state set is compared with the explicit-state oracle (and,
for the ladder, with answers derived by hand).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` follows
each untraced check with the same check run again with the layer
functions wrapped (``layertrace.py``) and reports the per-layer metrics;
its spans go to ``perfbench/_work/``.

Human-readable lines come first; the last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every check was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# claims are made on DEFAULT_SEED and rechecked on HELDOUT_SEED, which is
# not used while a change is being written
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# the explicit oracle must not refuse counter-reach (2601 x 2 product
# states) or the ladder (over 4096, the default cap)
ORACLE_PRODUCT_CAP = 1 << 16

# On a shared host the CPU's speed drifts by up to 1.7x, for stretches of
# seconds to minutes.  End-to-end times are therefore reported in
# reference seconds: wall seconds times CALIBRATION_REF_S over the mean
# time of a fixed pure-Python workload run just before and just after
# the timed work.  The workload is this file's own code and never calls
# atlstar, so a change to atlstar moves the reported times exactly as it
# moves wall time.  Wall seconds are printed alongside.
CALIBRATION_ROUNDS = 4
CALIBRATION_REF_S = 0.1

# set-up repeats until this much time has passed (at least MIN, at most
# MAX repeats) and reports the median
SETUP_SECONDS = 1.5
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200

COUNT_METRICS = (
    ("cgs.encodes", "count"),
    ("bdd.nodes_after_encode", "count"),
    ("bdd.nodes_end", "count"),
    ("bdd.budget_share", "ratio"),
    ("ltlf2dfa.states", "count"),
    ("ltlf2dfa.letters", "count"),
    ("ltlf2dfa.transitions", "count"),
    ("dpa.states", "count"),
    ("dpa.priorities", "count"),
    ("finite_mc.iterations", "count"),
    ("finite_mc.product_states", "count"),
    ("infinite_mc.vertices", "count"),
    ("infinite_mc.priorities", "count"),
    ("driver.subformulas", "count"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: seconds-long model sizes for self-tests")
    return ap.parse_args(argv)


def git_commit(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tail(samples):
    """(value, percentile): highest percentile with 10 samples beyond it.

    Below 21 samples that percentile would not lie above the median, so
    the maximum is reported instead, as percentile 100.
    """
    xs = sorted(samples)
    k = len(xs) - 11
    if k + 1 > len(xs) / 2:
        return xs[k], 100.0 * (k + 1) / len(xs)
    return xs[-1], 100.0


def calibrate():
    """Seconds taken by fixed work shaped like a BDD engine's inner loop:
    memoised recursion over a hash-consed node table.  The tables start
    afresh every round, which keeps the peak RSS (about 22 MiB) below
    that of every workload."""
    t0 = time.perf_counter()
    gc.disable()
    try:
        for _ in range(CALIBRATION_ROUNDS):
            _calibration_round()
    finally:
        gc.enable()
    return time.perf_counter() - t0


def _calibration_round():
    unique, nodes, memo = {}, [(0, 0, 0), (0, 1, 1)], {}

    def mk(var, lo, hi):
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = unique.get(key)
        if node is None:
            node = len(nodes)
            nodes.append(key)
            unique[key] = node
        return node

    def op(a, b, depth):
        node = memo.get((a, b))
        if node is None:
            if depth == 0:
                node = (31 * a + b) % len(nodes)
            else:
                node = mk(depth, op(a, b // 2, depth - 1),
                          op(a // 2, b, depth - 1))
            memo[(a, b)] = node
        return node

    for i in range(3000):
        op(i, 7 * i + 3, 3)
    # op refers to itself through its closure, a cycle that keeps the
    # tables alive while the collector is off, so empty them here
    memo.clear()
    unique.clear()
    nodes.clear()


def reference_seconds(wall_s, calibration):
    """Wall seconds scaled by the calibrations (before, after) the work."""
    return wall_s * 2 * CALIBRATION_REF_S / sum(calibration)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_check(model_path, text):
    """One untraced check; returns (exit code, parsed JSON or None)."""
    from atlstar import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", str(model_path), text, "--json"])
    out = json.loads(buf.getvalue()) if rc in (0, 1) else None
    return rc, out


def oracle(wl, text):
    """(holds, states) from the explicit engine with Zielonka's solver."""
    from atlstar import driver
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = driver.check(model=wl.model, formula=text,
                         semantics=wl.semantics, engine="explicit",
                         solver="zielonka", product_cap=ORACLE_PRODUCT_CAP)
    return r.holds, tuple(r.states)


def known_answers(wl, texts):
    """Oracle answer per formula; hand-derived ones must agree with it."""
    answers, problems = {}, []
    for text in sorted(set(texts)):
        holds, states = oracle(wl, text)
        answers[text] = (holds, states)
        if text in wl.hand:
            names = frozenset(wl.model.states[q] for q in states)
            if names != wl.hand[text]:
                problems.append(f"oracle disagrees with hand: {text}")
                answers[text] = None
    return answers, problems


def set_up(name, seed, size, workdir):
    """Generate the model and formulas, write the model; time it.

    Returns (workload, model path, median set-up time in wall and in
    reference seconds, the last calibration, inputs digest).
    """
    from workloads import build
    wall, ref, wl = [], [], None
    model_path = workdir / "model.cgs"
    calibration = calibrate()
    t_all = time.perf_counter()
    while (len(wall) < SETUP_MIN_REPEATS or
           (time.perf_counter() - t_all < SETUP_SECONDS and
            len(wall) < SETUP_MAX_REPEATS)):
        t0 = time.perf_counter()
        wl = build(name, seed, size)
        model_path.write_text(wl.model.to_text())
        wall.append(time.perf_counter() - t0)
        around = (calibration, calibrate())
        ref.append(reference_seconds(wall[-1], around))
        calibration = around[1]
    digest = hashlib.sha256(model_path.read_bytes())
    digest.update("\n".join(wl.cycle).encode())
    return (wl, model_path, statistics.median(wall), statistics.median(ref),
            calibration, digest.hexdigest())


def run_loop(wl, model_path, seconds, calibration, tracer=None):
    """Closed loop over whole formula cycles for at least ``seconds``.

    Returns a list of records: formula, wall seconds, the calibrations
    around the check, exit code, result and, when traced, the traced
    run's seconds, result, counts and trace problems.  ``calibration``
    is the latest one taken before the loop.  Garbage is collected,
    untimed, before each check, so every check starts from the same
    heap, as a fresh ``atlstar check`` process would, and not wherever
    the previous checks left the cyclic collector.
    """
    from layertrace import traced
    records = []
    t_start = time.perf_counter()
    while (len(records) % len(wl.cycle) or not records or
           time.perf_counter() - t_start < seconds):
        text = wl.cycle[len(records) % len(wl.cycle)]
        rec = {"formula": text}
        gc.collect()
        t0 = time.perf_counter()
        try:
            rec["rc"], out = cli_check(model_path, text)
        except Exception as e:      # a crash counts as a failed check
            rec["rc"], out = None, None
            rec["error"] = repr(e)
        rec["wall_s"] = time.perf_counter() - t0
        rec["calibration"] = (calibration, calibrate())
        calibration = rec["calibration"][1]
        if out is not None:
            rec["result"] = (out["holds"], tuple(out["states"]))
        if tracer is not None:
            gc.collect()
            t0 = time.perf_counter()
            with traced(tracer), tracer.check(len(records)):
                _, out = cli_check(model_path, text)
            rec["traced_s"] = time.perf_counter() - t0
            rec["counts"] = tracer.counts
            rec["trace_problems"] = []
            if out is not None:
                rec["traced"] = (out["holds"], tuple(out["states"]))
                rec["trace_problems"] = tracer.coverage(
                    len(out["details"]["subformulas"]))
        records.append(rec)
    return records


def verify(records, answers):
    """Mark each record ok or not; returns the number that failed."""
    failed = 0
    for rec in records:
        want = answers.get(rec["formula"])
        got = rec.get("result")
        ok = (want is not None and got == want and
              rec["rc"] == (0 if got[0] else 1))
        if "traced_s" in rec:
            ok = ok and rec.get("traced") == got
        rec["ok"] = ok
        failed += not ok
    return failed


def end_to_end(records, setup_wall_s, setup_s):
    """End-to-end metrics, times in reference seconds.

    The tail goes on a note line, not into the gated metrics: a run holds
    about 20 to 50 checks, so the highest percentile with ten checks
    beyond it lies between p50 and p80 and says little that p50 does not.
    """
    wall = [r["wall_s"] for r in records]
    lat = [reference_seconds(r["wall_s"], r["calibration"])
           for r in records]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "verdict_s.p50": (statistics.median(lat), "s"),
        "checks_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"verdict_s.tail = {tail_s:.6g} s, p{tail_pct:g} of "
             f"n={len(lat)} checks",
             f"wall seconds: verdict p50 {statistics.median(wall):.4g}, "
             f"tail {tail(wall)[0]:.4g}, {len(wall) / sum(wall):.4g} "
             f"checks/s, setup {setup_wall_s:.4g}",
             f"calibration seconds: median "
             f"{statistics.median(r['calibration'][1] for r in records):.4g}"
             f" (reference {CALIBRATION_REF_S:g})"]
    return metrics, notes


def per_layer(records, spans):
    """Per-layer metrics from the spans and the anchor's counts.

    Times are per-check means over the traced checks, so the layers,
    ``trace.count_ms`` and ``driver.other_ms`` add up to
    ``driver.total_ms``.  Counts are those of the first check, which is
    always the anchor formula.
    """
    from layertrace import LAYER_SPANS
    n = len(records)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    check_total = totals["check"]
    layers = sum(totals.get(name, 0.0) for name in LAYER_SPANS)
    counted = totals.get("trace.count", 0.0)
    untraced = sum(r["wall_s"] for r in records)

    def ms(name):
        return 1000.0 * totals.get(name, 0.0) / n

    metrics = {f"{name}_ms": (ms(name), "ms") for name in LAYER_SPANS}
    metrics["cgs.encode_share"] = (totals.get("cgs.encode", 0.0) /
                                   check_total, "ratio")
    metrics["driver.total_ms"] = (1000.0 * check_total / n, "ms")
    metrics["driver.other_ms"] = (
        1000.0 * (check_total - layers - counted) / n, "ms")
    metrics["trace.count_ms"] = (ms("trace.count"), "ms")
    metrics["trace.overhead_share"] = (
        sum(r["traced_s"] for r in records) / untraced - 1.0, "ratio")
    anchor = records[0]["counts"]
    for name, unit in COUNT_METRICS:
        metrics[name] = (anchor.get(name, 0), unit)
    notes = [f"{name} share of traced time: "
             f"{totals.get(name, 0.0) / check_total:.3f}"
             for name in LAYER_SPANS]
    problems = [p for r in records for p in r["trace_problems"]]
    return metrics, notes, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "atlstar" / "__init__.py").is_file():
        print(f"error: no atlstar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import atlstar
    if Path(atlstar.__file__).resolve().parent != SRC / "atlstar":
        print(f"error: imported atlstar from {atlstar.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, model_path, setup_wall_s, setup_s, calibration, inputs = set_up(
            args.workload, args.seed, args.size, workdir)
        header = {
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(ROOT), "src_sha256": source_digest(SRC),
            "inputs_sha256": inputs, "formulas": list(wl.cycle),
        }
        print("# perfbench " + json.dumps(header), flush=True)

        tracer = None
        if args.trace:
            from layertrace import Tracer
            tracer = Tracer()
        records = run_loop(wl, model_path, args.seconds, calibration,
                           tracer)
        if not args.trace:
            metrics, notes = end_to_end(records, setup_wall_s, setup_s)
        answers, problems = known_answers(
            wl, [r["formula"] for r in records])
        failed = verify(records, answers)
        if args.trace:
            metrics, notes, more = per_layer(records, tracer.spans)
            problems += more
            WORK.mkdir(exist_ok=True)
            spans_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
            spans_path.write_text(json.dumps({
                "header": header, "spans": tracer.spans,
                "checks": [{"formula": r["formula"],
                            "counts": r["counts"]} for r in records],
            }) + "\n")
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rec in records:
        if not rec["ok"]:
            problems.append(f"wrong or failed check: {rec['formula']} "
                            f"(exit {rec['rc']}) {rec.get('error', '')}")
    notes.append(f"failed_share = {failed / len(records):g} "
                 f"({failed} of {len(records)} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    for line in sorted(set(problems)):
        print(f"problem: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
