"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed=7):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0, trace=1)
    return run.Bench(args)


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=run.CHECKOUT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_call_counts_repeat_exactly_across_runs(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    counted = [k for k in first["metrics"]
               if k.endswith(".calls") or k == "polyspace.isolation_hit_ratio"]
    assert len(counted) == len(run.CALLS_NAMES) + 1
    assert {k: first["metrics"][k] for k in counted} == {k: second["metrics"][k] for k in counted}
    assert first["metrics"]["linalg.rref.calls"]["value"] > 0


def test_inputs_follow_the_seed():
    a, b, c = bench("f3-word-m7", 3), bench("f3-word-m7", 3), bench("f3-word-m7", 4)
    assert [i.word for i in a.pool[:3]] == [i.word for i in b.pool[:3]]
    assert [i.planted for i in a.pool[:3]] != [i.planted for i in c.pool[:3]]


def test_every_binding_is_wrapped_and_restored():
    import rmsyndrome
    from rmsyndrome import code, jennrich, linalg, polynomials, polyspace

    original = linalg.rank
    method = polynomials.PolySpace.__dict__["restrict_last_const"]
    tr = tracer.Tracer(timed=True)
    tr.install()
    try:
        bound = {mod.rank for mod in (linalg, code, polyspace, jennrich, rmsyndrome)}
        assert len(bound) == 1 and original not in bound
        assert polynomials.PolySpace.__dict__["restrict_last_const"] is not method
    finally:
        tr.uninstall()
    assert all(mod.rank is original for mod in (linalg, code, polyspace, jennrich, rmsyndrome))
    assert polynomials.PolySpace.__dict__["restrict_last_const"] is method


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1],
                ["b", 6.0, 8.0, 0]]
    assert tr.self_times() == {"root": 4.0, "a": 3.0, "b": 3.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.percentile_beyond(list(range(1, 101)), 10) == (90, 90, 10)
    q, value, beyond = run.percentile_beyond(list(range(1, 56)), 10)
    assert q == 81 and beyond == 55 - value == 10


def test_workload_reasons_match_benchmark_json():
    doc = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_fails_without_the_library_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(cmd + ["--workload", "f2-det-m20", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
