"""The discrete-event concurrency workload runner.

Runs one generated workload (see :mod:`repro.workloads.operations`)
against any of the six index configurations under the simulator, and
returns comparable metrics: committed/aborted counts, simulated makespan
and throughput, lock traffic, I/O, phantom anomalies and serializability.

This is the engine behind the Table 4 comparison benchmark (the paper
defers the empirical granular-vs-predicate comparison to future work; we
run it) and the phantom-demonstration benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.baselines import ObjectLockIndex, PredicateLockIndex, PredicateLockTable, TreeLockIndex
from repro.concurrency.checker import (
    SerializabilityViolation,
    check_conflict_serializable,
    find_phantoms,
)
from repro.concurrency.history import History
from repro.concurrency.simulator import CostModel, Simulator
from repro.concurrency.waits import SimulatedWait
from repro.core import InsertionPolicy, PhantomProtectedRTree
from repro.geometry import Rect
from repro.lock.manager import LockManager
from repro.rtree.tree import RTreeConfig
from repro.workloads.clients import spawn_clients
from repro.workloads.datasets import UNIT, Object, uniform_rects
from repro.workloads.operations import MixSpec, OpCall, TxnScript, generate_scripts

#: every index configuration the experiments compare
INDEX_KINDS = (
    "dgl-all-paths",
    "dgl-on-growth",
    "dgl-active-searchers",
    "tree-lock",
    "predicate-lock",
    "object-lock",
    "zorder-krl",
)

_DGL_POLICIES = {
    "dgl-all-paths": InsertionPolicy.ALL_PATHS,
    "dgl-on-growth": InsertionPolicy.ON_GROWTH,
    "dgl-active-searchers": InsertionPolicy.ON_GROWTH_ACTIVE_SEARCHERS,
}


@dataclass
class RunConfig:
    index_kind: str = "dgl-on-growth"
    fanout: int = 12
    n_preload: int = 300
    n_workers: int = 8
    txns_per_worker: int = 4
    ops_per_txn: int = 4
    mix: MixSpec = field(default_factory=MixSpec)
    seed: int = 0
    costs: CostModel = field(default_factory=CostModel)
    universe: Rect = UNIT
    #: re-run a transaction aborted as a deadlock victim (up to this many
    #: times); its wasted work still burns simulated time, which is how
    #: deadlock-prone schemes pay for their aborts in the throughput numbers
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.index_kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {self.index_kind!r}; choose from {INDEX_KINDS}")


@dataclass
class RunMetrics:
    index_kind: str
    committed: int = 0
    aborted: int = 0
    sim_time: float = 0.0
    lock_acquisitions: int = 0
    lock_waits: int = 0
    deadlocks: int = 0
    predicate_comparisons: int = 0
    physical_reads: int = 0
    phantom_anomalies: int = 0
    serializable: bool = True
    operations: int = 0

    @property
    def throughput(self) -> float:
        """Committed transactions per 1000 simulated time units."""
        if self.sim_time <= 0:
            return 0.0
        return 1000.0 * self.committed / self.sim_time

    @property
    def locks_per_op(self) -> float:
        if not self.operations:
            return 0.0
        return self.lock_acquisitions / self.operations

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


def build_index(kind: str, config: RunConfig, sim: Simulator, history: History):
    """Construct one index configuration wired to the simulator."""
    strategy = SimulatedWait(sim)
    lm = LockManager(wait_strategy=strategy)
    rcfg = RTreeConfig(max_entries=config.fanout, universe=config.universe)
    clock = lambda: sim.clock  # noqa: E731 - tiny closure is clearest here
    if kind in _DGL_POLICIES:
        return PhantomProtectedRTree(
            rcfg, lock_manager=lm, policy=_DGL_POLICIES[kind], history=history, clock=clock
        )
    if kind == "tree-lock":
        return TreeLockIndex(rcfg, lock_manager=lm, history=history, clock=clock)
    if kind == "predicate-lock":
        return PredicateLockIndex(
            rcfg,
            lock_manager=lm,
            history=history,
            clock=clock,
            predicate_table=PredicateLockTable(strategy),
        )
    if kind == "object-lock":
        return ObjectLockIndex(rcfg, lock_manager=lm, history=history, clock=clock)
    if kind == "zorder-krl":
        from repro.baselines.zorder_krl import ZOrderKRLIndex
        from repro.btree import BTreeConfig

        return ZOrderKRLIndex(
            universe=config.universe,
            btree_config=BTreeConfig(max_keys=max(4, config.fanout)),
            max_object_extent=max(config.mix.object_extent, 0.05),
            lock_manager=lm,
            history=history,
            clock=clock,
        )
    raise ValueError(kind)


def _workload(
    config: RunConfig,
    preload: Optional[List[Object]],
    scripts: Optional[List[List[TxnScript]]],
) -> Tuple[List[Object], List[List[TxnScript]]]:
    """The given preload and scripts, or the config's seeded defaults."""
    if preload is None:
        preload = uniform_rects(
            config.n_preload, seed=config.seed, extent_fraction=0.02, universe=config.universe
        )
    if scripts is None:
        scripts = generate_scripts(
            preload,
            config.n_workers,
            config.txns_per_worker,
            config.ops_per_txn,
            config.mix,
            seed=config.seed,
            universe=config.universe,
        )
    return preload, scripts


def _traffic(index) -> Tuple[int, int, int, int, int]:
    """Lock acquisitions, lock waits, deadlocks, predicate comparisons and
    physical reads so far, the predicate table's included."""
    lm = index.lock_manager
    acquisitions, waits, deadlocks, comparisons = (
        lm.total_acquisitions(), lm.wait_count, lm.deadlock_count, 0
    )
    if isinstance(index, PredicateLockIndex):
        table = index.predicates
        acquisitions += table.acquisitions
        waits += table.wait_count
        deadlocks += table.deadlock_count
        comparisons = table.comparisons
    return acquisitions, waits, deadlocks, comparisons, index.stats.physical_reads


def run_workload(
    config: RunConfig,
    preload: Optional[List[Object]] = None,
    scripts: Optional[List[List[TxnScript]]] = None,
    check: bool = True,
) -> RunMetrics:
    """Run one workload to completion and collect metrics.

    Pass the same ``preload`` and ``scripts`` to successive calls with
    different ``index_kind`` to compare schemes on identical work.
    """
    preload, scripts = _workload(config, preload, scripts)

    sim = Simulator(seed=config.seed)
    history = History()
    index = build_index(config.index_kind, config, sim, history)

    with index.transaction("preload") as txn:
        for oid, rect in preload:
            index.insert(txn, oid, rect)
    # Count the workload's own traffic: from after the preload to before
    # vacuum, which runs its deferred deletes as extra (system) transactions.
    before = _traffic(index)

    metrics = RunMetrics(index_kind=config.index_kind)

    def count_op(_op: OpCall, _result) -> None:
        metrics.operations += 1

    spawn_clients(sim, index, scripts, config.costs, config.max_retries, on_op=count_op)
    sim.run()
    sim.raise_process_errors()
    metrics.committed = index.txn_manager.committed - 1  # exclude the preload txn
    metrics.aborted = index.txn_manager.aborted
    (
        metrics.lock_acquisitions,
        metrics.lock_waits,
        metrics.deadlocks,
        metrics.predicate_comparisons,
        metrics.physical_reads,
    ) = (now - then for now, then in zip(_traffic(index), before))
    index.vacuum()
    metrics.sim_time = sim.clock

    if check:
        metrics.phantom_anomalies = len(find_phantoms(history))
        try:
            check_conflict_serializable(history)
        except SerializabilityViolation:
            metrics.serializable = False
    return metrics


def compare_kinds(
    kinds: List[str],
    config: RunConfig,
    preload: Optional[List[Object]] = None,
    scripts: Optional[List[List[TxnScript]]] = None,
) -> Dict[str, RunMetrics]:
    """Run the identical workload against several index kinds."""
    preload, scripts = _workload(config, preload, scripts)
    return {
        kind: run_workload(replace(config, index_kind=kind), preload=preload, scripts=scripts)
        for kind in kinds
    }
