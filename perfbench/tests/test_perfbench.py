"""Self-tests of the benchmark at smoke sizes (scheduler n=2, counter cap=3).

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, hash_seed=0, seed=3):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("# perfbench ")
    header = json.loads(lines[0][len("# perfbench "):])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return header, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    header, result = _result(_run(ROOT, workload, trace=0))
    for key in ("python", "nproc", "seed", "commit", "src_sha256"):
        assert key in header
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # whole cycles only, so a run's formula mix does not depend on speed
    assert result["attempted"] % len(header["formulas"]) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_and_inputs_repeat_across_hash_seeds(workload):
    runs = [_result(_run(ROOT, workload, trace=1, hash_seed=h))
            for h in (0, 1)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for _, result in runs:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
    (h0, r0), (h1, r1) = runs
    assert h0["inputs_sha256"] == h1["inputs_sha256"]
    assert h0["formulas"] == h1["formulas"]
    for name, _ in run.COUNT_METRICS:
        assert r0["metrics"][name] == r1["metrics"][name], name
    assert r0["metrics"]["cgs.encodes"]["value"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_the_anchor_and_inputs_are_reproducible(workload):
    a = workloads.build(workload, run.DEFAULT_SEED, "smoke")
    b = workloads.build(workload, run.DEFAULT_SEED, "smoke")
    held_out = workloads.build(workload, run.HELDOUT_SEED, "smoke")
    assert a.model.to_text() == b.model.to_text()
    assert a.cycle == b.cycle
    assert a.cycle[0] == held_out.cycle[0]
    # the anchor makes up at least half of every prefix of the cycle
    for n in range(1, len(a.cycle) + 1):
        assert 2 * a.cycle[:n].count(a.cycle[0]) >= n


def test_trace_wraps_the_real_layers_and_restores_them(tmp_path):
    from atlstar import ltlf2dfa
    import layertrace

    wl = workloads.build("counter-reach", 3, "smoke")
    model = tmp_path / "model.cgs"
    model.write_text(wl.model.to_text())
    real = ltlf2dfa.translate
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer), tracer.check(0):
        assert ltlf2dfa.translate is not real
        rc, out = run.cli_check(model, wl.cycle[0])
    assert ltlf2dfa.translate is real
    assert tracer.coverage(len(out["details"]["subformulas"])) == []
    assert (out["holds"], tuple(out["states"])) == run.oracle(
        wl, wl.cycle[0])
    names = {s["name"] for s in tracer.spans}
    assert {"check", "cgs.encode", "ltlf2dfa.translate",
            "finite_mc.solve"} <= names
    assert tracer.counts["cgs.encodes"] == 1
    # a trace that missed the program's layer calls is reported
    assert tracer.coverage(2) != []


def test_ladder_hand_answers_match_the_oracle():
    wl = workloads.build("counter-ladder", 5, "smoke")
    answers, problems = run.known_answers(wl, wl.cycle)
    assert problems == []
    assert set(answers) == set(wl.hand)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "counter-reach", trace=0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
