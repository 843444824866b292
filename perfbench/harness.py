"""Set up, run and check one workload through the simulator.

Every workload is a closed loop of simulated clients driven by
:class:`repro.concurrency.Simulator` with :class:`SimulatedWait`: each
client runs its scripts back to back, charging simulated time per
operation under the :class:`CostModel` defaults.  The harness counts
everything it needs from operation results and from the program's own
counters, so the same counts exist with and without
:class:`layers.LayerTracer` installed.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from inputs import Epoch, Inputs, Workload
from layers import LAYERS, LayerTracer
from speed import SpeedMeter
from repro.concurrency.checker import (
    SerializabilityViolation,
    check_conflict_serializable,
    find_phantoms,
)
from repro.concurrency.history import History
from repro.concurrency.simulator import CostModel, Simulator
from repro.concurrency.waits import SimulatedWait
from repro.core.index import PhantomProtectedRTree
from repro.lock.manager import LockManager
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTreeConfig
from repro.rtree.validate import RTreeInvariantError, validate_tree
from repro.storage import BufferPool, PageManager
from repro.txn import TransactionAborted
from repro.workloads.datasets import UNIT

COSTS = CostModel()
#: vacuum passes the write_heavy check allows to empty the deferred queue
FINAL_VACUUM_PASSES = 4
#: worker processes that check the epochs of a multi-epoch run
CHECK_WORKERS = 2
#: (system, epoch, results, workload name) per epoch, while a check runs
_CHECK_JOBS: List[tuple] = []


@dataclass
class System:
    """One freshly set-up program instance."""

    index: PhantomProtectedRTree
    sim: Simulator
    wait: SimulatedWait
    history: Optional[History]


def build_epoch(w: Workload, epoch: Epoch, seed: int) -> System:
    sim = Simulator(seed=seed)
    wait = SimulatedWait(sim)
    config = RTreeConfig(max_entries=w.fanout, universe=UNIT)
    index = PhantomProtectedRTree(
        config, lock_manager=LockManager(wait_strategy=wait), clock=lambda: sim.clock
    )
    pager = PageManager(buffer_pool=BufferPool(capacity=w.pool_pages))
    tree = bulk_load(epoch.objects, config, pager=pager)
    index.tree = index.protocol.tree = index.protocol.granules.tree = tree
    history = None
    if w.clients > 1:
        # Only concurrent clients can produce phantoms or non-serializable
        # schedules; their history feeds the checkers.
        history = index.history = History()
        history.preload(dict(epoch.objects))
    # Warm-up: every page passes through the pool, then the interior
    # pages (read again by the granule walk) end up most recently used,
    # and every external granule's geometry is cached.
    index.tree.search(UNIT, include_tombstones=True)
    index.granules.overlapping(UNIT)
    return System(index, sim, wait, history)


def build(inputs: Inputs) -> List[System]:
    """Program set-up: one loaded, warmed-up program per epoch.  This is
    what ``setup_s`` times."""
    return [build_epoch(inputs.workload, e, inputs.seed) for e in inputs.epochs]


def timed_build(inputs: Inputs) -> Tuple[List[System], float]:
    gc.collect()
    start = time.perf_counter()
    systems = build(inputs)
    return systems, time.perf_counter() - start


@dataclass
class Tally:
    """What one timed phase did, counted by the harness."""

    committed: int = 0
    aborted: int = 0  # aborted attempts (deadlock victims)
    failed: int = 0  # scripts that never committed
    ops: int = 0
    restarts: int = 0
    scans: int = 0
    scan_matches: int = 0
    scan_granule_locks: int = 0
    scan_fetches: int = 0
    inserts: int = 0
    splits: int = 0
    vacuum_passes: int = 0
    vacuum_removed: int = 0
    sim_units: float = 0.0
    txn_sim_u: List[float] = field(default_factory=list)
    #: program counters over the phase (deltas)
    counters: Dict[str, float] = field(default_factory=dict)
    # Wall times: reference-slice time left out, not yet scaled to nominal
    # host speed (see speed.py).
    wall_s: float = 0.0
    #: the timed phase's wall time at nominal host speed
    nominal_wall_s: float = 0.0
    vacuum_s: List[float] = field(default_factory=list)
    txn_wall_s: List[float] = field(default_factory=list)
    #: per committed transaction, the index of its commit's speed mark
    txn_marks: List[int] = field(default_factory=list)
    speed: SpeedMeter = field(default_factory=SpeedMeter)
    #: per epoch, (op, result) of every operation, for the checks
    results: List[List[tuple]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def exact(self) -> Dict[str, object]:
        """Every count and simulated quantity: identical for a fixed seed,
        traced or not."""
        out = {k: v for k, v in vars(self).items() if k not in _NOT_EXACT}
        out.update(self.counters)
        return out


_NOT_EXACT = ("counters", "wall_s", "nominal_wall_s", "vacuum_s", "txn_wall_s", "txn_marks",
              "speed", "results", "errors")


def _counters(system: System) -> Dict[str, float]:
    index, lm = system.index, system.index.lock_manager
    stats = index.stats
    return {
        "logical_reads": stats.logical_reads,
        "physical_reads": stats.physical_reads,
        "page_writes": stats.writes,
        "lock_grants": lm.total_acquisitions(),
        "lock_waits": lm.wait_count,
        "deadlocks": lm.deadlock_count,
        "sim_steps": system.sim.steps,
        "vacuum_requeued": index.deferred.requeued,
    }


def _apply(index: PhantomProtectedRTree, txn, op):
    kind = op.kind
    if kind == "read_scan":
        return index.read_scan(txn, op.rect)
    if kind == "read_single":
        return index.read_single(txn, op.oid, op.rect)
    if kind == "insert":
        return index.insert(txn, op.oid, op.rect)
    if kind == "delete":
        return index.delete(txn, op.oid, op.rect)
    if kind == "update_single":
        return index.update_single(txn, op.oid, op.rect, payload=("u", txn.txn_id))
    if kind == "update_scan":
        return index.update_scan(txn, op.rect, lambda oid, rect, old: ("s", txn.txn_id))
    raise ValueError(f"unknown op kind {kind!r}")


def run_phase(systems: List[System], inputs: Inputs,
              tracer: Optional[LayerTracer] = None) -> Tally:
    """The timed phase: every epoch's clients run their scripts to
    completion, one epoch after another."""
    tally = Tally()
    before = [_counters(system) for system in systems]
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = tally.speed.now()
    try:
        for system, epoch in zip(systems, inputs.epochs):
            _run_epoch(system, epoch, inputs.workload, tally, tracer)
    finally:
        end = tally.speed.now()
        if tracer is not None:
            tracer.uninstall()
    tally.wall_s = end - start
    if tally.committed:
        tally.nominal_wall_s = tally.speed.nominal_span(start, end)
    for system, old in zip(systems, before):
        new = _counters(system)
        for key in new:
            tally.counters[key] = tally.counters.get(key, 0) + new[key] - old[key]
        tally.sim_units += system.sim.clock
    return tally


def _run_epoch(system: System, epoch: Epoch, w: Workload, tally: Tally,
               tracer: Optional[LayerTracer]) -> None:
    index, sim = system.index, system.sim
    stats = index.stats
    speed = tally.speed
    results: List[tuple] = []
    tally.results.append(results)

    def vacuum() -> None:
        before = stats.physical_reads
        if tracer is not None:
            tracer.set_txn("vacuum")
        start = time.perf_counter()
        removed = index.vacuum()
        tally.vacuum_s.append(time.perf_counter() - start)
        tally.vacuum_passes += 1
        tally.vacuum_removed += removed
        sim.checkpoint((stats.physical_reads - before) * COSTS.io + COSTS.cpu)

    def client(scripts) -> None:
        for script in scripts:
            start, sim_start = speed.now(), sim.clock
            for attempt in range(w.max_retries + 1):
                name = f"{script.name}~{attempt}"
                if tracer is not None:
                    tracer.set_txn(name)
                txn = index.begin(name)
                try:
                    for op in script.ops:
                        fetched = stats.logical_reads
                        result = _apply(index, txn, op)
                        tally.ops += 1
                        tally.restarts += result.restarts
                        if op.kind == "read_scan":
                            tally.scans += 1
                            tally.scan_matches += len(result.matches)
                            tally.scan_granule_locks += len(result.locks_taken)
                            tally.scan_fetches += stats.logical_reads - fetched
                        elif op.kind == "insert":
                            tally.inserts += 1
                            tally.splits += len(result.report.splits) if result.report else 0
                        # Scans keep only their object ids: holding every
                        # match list would dominate peak_rss_mb.
                        results.append(
                            (op, result.oids if op.kind == "read_scan" else result)
                        )
                        sim.checkpoint(
                            result.physical_reads * COSTS.io
                            + COSTS.cpu
                            + len(result.locks_taken) * COSTS.lock_op
                            + op.think
                        )
                    index.commit(txn)
                except TransactionAborted:
                    # Deadlock victim, already rolled back: back off,
                    # staggered per script as the experiment runner does.
                    tally.aborted += 1
                    stagger = (zlib.crc32(script.name.encode()) % 7) + 1
                    sim.checkpoint(5.0 * (attempt + 1) * stagger)
                    continue
                tally.committed += 1
                tally.txn_wall_s.append(speed.now() - start)
                tally.txn_sim_u.append(sim.clock - sim_start)
                tally.txn_marks.append(speed.mark())
                break
            else:
                tally.failed += 1
            if w.vacuum_every and tally.committed % w.vacuum_every == 0:
                vacuum()

    for c, scripts in enumerate(epoch.scripts):
        sim.spawn(f"client-{c}", lambda scripts=scripts: client(scripts), delay=c * 0.01)
    try:
        sim.run()
    except Exception as exc:  # a hung or deadlocked program fails the run
        tally.errors.append(f"simulator: {type(exc).__name__}: {exc}")
    for proc in sim.processes:
        if proc.error is not None:
            tally.errors.append(f"{proc.name}: {type(proc.error).__name__}: {proc.error}")
        if proc.state == proc.DONE:
            proc.thread.join(timeout=10)


# ---------------------------------------------------------------------------
# correctness checks (after the timed phase; neither timed nor in setup_s)
# ---------------------------------------------------------------------------

def _brute_force(ids, boxes, predicate) -> set:
    """Ids of every object whose box ``(x0, y0, x1, y1)`` meets ``predicate``."""
    (qx0, qy0), (qx1, qy1) = predicate.lo, predicate.hi
    hit = (boxes[:, 0] <= qx1) & (qx0 <= boxes[:, 2]) & (boxes[:, 1] <= qy1) & (qy0 <= boxes[:, 3])
    return set(ids[hit].tolist())


def check(systems: List[System], inputs: Inputs, tally: Tally) -> List[str]:
    """Empty when the program's outputs are correct."""
    if tally.errors:
        return list(tally.errors)
    errors = []
    if tally.committed + tally.failed != inputs.n_scripts:
        errors.append(f"{tally.committed} commits + {tally.failed} failures != "
                      f"{inputs.n_scripts} scripts")
    global _CHECK_JOBS
    _CHECK_JOBS = [(system, epoch, results, inputs.workload.name)
                   for system, epoch, results in zip(systems, inputs.epochs, tally.results)]
    try:
        if len(_CHECK_JOBS) == 1:
            return errors + _check_job(0)
        # The phantom and serializability checkers grow faster than
        # linearly with an epoch's history and took longer than the timed
        # phase.  Epochs are independent, so forked workers check them side
        # by side; they inherit the systems, and only error lists travel.
        with multiprocessing.get_context("fork").Pool(CHECK_WORKERS) as pool:
            for found in pool.map(_check_job, range(len(_CHECK_JOBS)), chunksize=1):
                errors += found
            pool.close()
            pool.join()
        return errors
    finally:
        _CHECK_JOBS = []


def _check_job(i: int) -> List[str]:
    return _check_epoch(*_CHECK_JOBS[i])


def _check_epoch(system: System, epoch: Epoch, results: List[tuple], name: str) -> List[str]:
    errors = []
    index = system.index
    if name == "scan_heavy":
        # Imported here, after peak_rss_mb is read, so that NumPy's own
        # memory does not count in it.
        import numpy as np

        ids = np.array([oid for oid, _ in epoch.objects], dtype=object)
        boxes = np.array([(r.lo[0], r.lo[1], r.hi[0], r.hi[1]) for _, r in epoch.objects])
        rects = dict(epoch.objects)
        for op, result in results:
            if op.kind == "read_scan":
                got = set(result)
                expected = _brute_force(ids, boxes, op.rect)
                if len(got) != len(result) or got != expected:
                    errors.append(f"scan {op.rect} returned {len(result)} objects, "
                                  f"reference {len(expected)}")
            elif not result.found or result.rect != rects[op.oid]:
                errors.append(f"read_single({op.oid}) found={result.found}")
    elif name == "write_heavy":
        live = dict(epoch.objects)
        for op, result in results:
            if op.kind == "insert":
                live[op.oid] = op.rect
            elif op.kind == "delete":
                live.pop(op.oid, None)
            if op.kind != "insert" and not result.found:
                errors.append(f"{op.kind}({op.oid}) did not find a live object")
        for _ in range(FINAL_VACUUM_PASSES):
            if not len(index.deferred):
                break
            index.vacuum()
        if len(index.deferred):
            errors.append(f"{len(index.deferred)} deferred deletes left after "
                          f"{FINAL_VACUUM_PASSES} vacuum passes")
        stored = {e.oid: e.rect for e in index.tree.all_entries(include_tombstones=True)}
        if stored != live:
            errors.append(f"live set differs from the model: {len(stored)} stored, "
                          f"{len(live)} expected")
    else:
        phantoms = find_phantoms(system.history)
        if phantoms:
            errors.append(f"{len(phantoms)} phantom anomalies, first: {phantoms[0]}")
        try:
            check_conflict_serializable(system.history)
        except SerializabilityViolation as exc:
            errors.append(str(exc))
    try:
        validate_tree(index.tree)
    except RTreeInvariantError as exc:
        errors.append(f"validate_tree: {exc}")
    holds, queued = index.lock_manager.outstanding()
    if holds or queued:
        errors.append(f"lock table not empty: {holds} holds, {queued} queued")
    if system.wait.outstanding():
        errors.append(f"{system.wait.outstanding()} parked waiters left registered")
    return errors


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def txn_per_s(tally: Tally) -> float:
    """Committed transactions per second at nominal host speed."""
    return tally.committed / tally.nominal_wall_s


def end_to_end(tally: Tally, setup_s: List[float], peak_rss_mb: float) -> Dict[str, float]:
    committed = tally.committed
    factors = tally.speed.local_factors()
    latency_ms = [1e3 * lat * factors[mark]
                  for lat, mark in zip(tally.txn_wall_s, tally.txn_marks)]
    return {
        "txn_per_s": txn_per_s(tally),
        "txn_p50_ms": statistics.median(latency_ms),
        "txn_p90_ms": percentile(latency_ms, 0.90),
        "pages_per_txn": tally.counters["logical_reads"] / committed,
        "commit_frac": committed / (committed + tally.aborted),
        "sim_txn_per_ku": 1e3 * committed / tally.sim_units,
        "sim_txn_p50_u": statistics.median(tally.txn_sim_u),
        "sim_txn_p90_u": percentile(tally.txn_sim_u, 0.90),
        "setup_s": min(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tally: Tally, tracer: LayerTracer, untraced: Tally) -> Dict[str, float]:
    committed = tally.committed
    c = tally.counters
    speed = tally.speed.factor()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_txn"] = tracer.calls[layer] / committed
        out[f"{layer}.self_ms_per_txn"] = tracer.self_ns[layer] * speed / 1e6 / committed
    out.update({
        "granules.refs_per_probe": _ratio(tracer.granule_refs, tracer.granule_probes),
        "granules.refs_per_match": _ratio(tally.scan_granule_locks, tally.scan_matches),
        "rtree.fetches_per_match": _ratio(tally.scan_fetches, tally.scan_matches),
        "rtree.splits_per_insert": _ratio(tally.splits, tally.inserts),
        "protocol.restarts_per_op": _ratio(tally.restarts, tally.ops),
        "lock.cond_refused_frac": _ratio(tracer.cond_refused, tracer.cond_requests),
        "lock.waits_per_txn": c["lock_waits"] / committed,
        "lock.wait_u_per_txn": tracer.wait_units / committed,
        "lock.deadlocks_per_ktxn": 1e3 * c["deadlocks"] / committed,
        "storage.miss_frac": _ratio(c["physical_reads"], c["logical_reads"]),
        "storage.writes_per_txn": c["page_writes"] / committed,
        "maintenance.ms_per_pass": _ratio(sum(tally.vacuum_s) * 1e3 * speed, tally.vacuum_passes),
        "maintenance.removed_per_pass": _ratio(tally.vacuum_removed, tally.vacuum_passes),
        "maintenance.requeue_frac": _ratio(
            c["vacuum_requeued"], c["vacuum_requeued"] + tally.vacuum_removed
        ),
        "concurrency.steps_per_txn": c["sim_steps"] / committed,
        "trace.overhead_frac": 1.0 - txn_per_s(tally) / txn_per_s(untraced),
        "trace.coverage_frac": tracer.total_self_ns / (tally.wall_s * 1e9),
    })
    return out
