"""Tiny-scale self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
from inputs import WORKLOADS, make_inputs
from layers import LayerTracer
from repro.core.index import PhantomProtectedRTree
from repro.lock.manager import LockManager
from repro.rtree.tree import RTree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: transactions per tiny run; contended_sim needs one per client per epoch
TINY = {"scan_heavy": 12, "write_heavy": 24, "contended_sim": 96}
#: per-layer metrics that are times; every other one is a count or ratio
TIMED = ("self_ms_per_txn", "maintenance.ms_per_pass", "trace.overhead_frac",
         "trace.coverage_frac")
EXACT_END_TO_END = ("pages_per_txn", "commit_frac", "sim_txn_per_ku", "sim_txn_p50_u",
                    "sim_txn_p90_u")


def _tiny_seconds(workload: str) -> float:
    """The ``--seconds`` that sizes a run at ``TINY[workload]`` transactions."""
    return TINY[workload] / WORKLOADS[workload].nominal_txn_per_s


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _cli(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(_tiny_seconds(workload)),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _cli(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def _tiny_phase(workload: str, seed: int = 3, tracer=None, patch=None):
    inputs = make_inputs(workload, seed, _tiny_seconds(workload))
    systems, _ = harness.timed_build(inputs)
    if patch is not None:
        patch()
    tally = harness.run_phase(systems, inputs, tracer)
    return inputs, systems, tally


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    spec = _spec()
    result = _result(workload, seed=1, trace=trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= TINY[workload]
    expected = spec["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v, float) for v in _values(result).values())
    if not trace:
        assert all(v > 0 for v in _values(result).values())


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_dropped_scan_match_is_caught(monkeypatch):
    calls = itertools.count()
    original = RTree.search

    def drop_one(self, rect, include_tombstones=False):
        found = original(self, rect, include_tombstones)
        return found[1:] if next(calls) == 3 and found else found

    inputs, systems, tally = _tiny_phase(
        "scan_heavy", patch=lambda: monkeypatch.setattr(RTree, "search", drop_one)
    )
    monkeypatch.undo()
    errors = harness.check(systems, inputs, tally)
    assert any("reference" in e for e in errors), errors


def test_leaked_lock_is_caught(monkeypatch):
    skipped = []
    original = LockManager.release_all

    def leak_first(self, txn_id):
        if not skipped:
            skipped.append(txn_id)
            return None
        return original(self, txn_id)

    inputs, systems, tally = _tiny_phase(
        "scan_heavy", patch=lambda: monkeypatch.setattr(LockManager, "release_all", leak_first)
    )
    monkeypatch.undo()
    assert skipped
    errors = harness.check(systems, inputs, tally)
    assert any("lock table not empty" in e for e in errors), errors


def test_stuck_deferred_queue_is_caught(monkeypatch):
    # A vacuum that never empties the queue must fail the check, not hang it.
    inputs, systems, tally = _tiny_phase(
        "write_heavy",
        patch=lambda: monkeypatch.setattr(PhantomProtectedRTree, "vacuum", lambda self: 0),
    )
    errors = harness.check(systems, inputs, tally)
    monkeypatch.undo()
    assert any("deferred deletes left" in e for e in errors), errors


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_unmodified_program_passes_the_checks(workload):
    inputs, systems, tally = _tiny_phase(workload)
    assert harness.check(systems, inputs, tally) == []


@pytest.mark.parametrize("workload", ("write_heavy", "contended_sim"))
def test_same_seed_repeats_exactly(workload):
    # Separate processes, so per-process hash randomisation cannot hide.
    for trace in (0, 1):
        a, b = (_values(_result(workload, seed=5, trace=trace)) for _ in range(2))
        if trace:
            counts = [k for k in a if not k.endswith(TIMED)]
            assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
        else:
            assert {k: a[k] for k in EXACT_END_TO_END} == {k: b[k] for k in EXACT_END_TO_END}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_changes_the_inputs(workload):
    a = make_inputs(workload, 1, _tiny_seconds(workload))
    b = make_inputs(workload, 2, _tiny_seconds(workload))
    assert a.epochs[0].scripts[0] != b.epochs[0].scripts[0]
    assert make_inputs(workload, 1, _tiny_seconds(workload)).epochs == a.epochs
    # the loaded datasets are fixed; only the transactions follow the seed
    assert a.epochs[0].objects == b.epochs[0].objects


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_no_count(workload):
    *_, untraced = _tiny_phase(workload)
    tracer = LayerTracer()
    *_, traced = _tiny_phase(workload, tracer=tracer)
    assert traced.exact() == untraced.exact()
    again = LayerTracer()
    _tiny_phase(workload, tracer=again)
    assert again.calls == tracer.calls
    assert again.granule_refs == tracer.granule_refs
    assert again.cond_refused == tracer.cond_refused
    assert again.wait_units == tracer.wait_units
    coverage = tracer.total_self_ns / (traced.wall_s * 1e9)
    assert 0.9 < coverage <= 1.0
    assert len(tracer.spans) == sum(tracer.calls.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("scan_heavy", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
