"""The deterministic concurrency stress harness.

One stress run = one seeded schedule: N worker processes (the client
driver, :func:`repro.workloads.clients.spawn_clients`) replay generated
transaction scripts against a :class:`PhantomProtectedRTree` under the
cooperative simulator, with the protocol's yield points checkpointing the
baton, fault daemons injecting aborts / cancellations / adversarial
vacuum and split timing, and the online protocol auditor checking every
lock event against Table 3.  Afterwards the oracle
(:mod:`repro.stress.oracle`) re-examines the run; any violation makes the
run a failure, and the whole run replays exactly from its
:class:`StressConfig` alone.

Typical use::

    result = run_stress(StressConfig(seed=7))
    assert result.ok, result.violations

or, from the command line, ``python -m repro.stress --seed 0..99``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.concurrency.history import History
from repro.concurrency.simulator import CostModel, SimProcess, Simulator
from repro.concurrency.waits import SimulatedWait
from repro.core import InsertionPolicy, PhantomProtectedRTree
from repro.lock.manager import LockManager
from repro.obs.auditor import FlightRecorder, ProtocolAuditor
from repro.obs.instrument import instrument_index
from repro.obs.tracer import EventTracer
from repro.rtree.tree import RTreeConfig
from repro.stress.faults import FaultInjector, FaultPlan
from repro.stress.oracle import Violation, check_run, check_wait_events
from repro.workloads.clients import spawn_clients
from repro.workloads.datasets import UNIT, Object, uniform_rects
from repro.workloads.operations import MixSpec, OpCall, TxnScript, generate_scripts

POLICIES: Dict[str, InsertionPolicy] = {
    "all-paths": InsertionPolicy.ALL_PATHS,
    "on-growth": InsertionPolicy.ON_GROWTH,
    "active-searchers": InsertionPolicy.ON_GROWTH_ACTIVE_SEARCHERS,
    # deliberately unsound (§3.2's counterexample policy) -- used by the
    # harness's own tests to prove the oracle actually catches phantoms
    "naive": InsertionPolicy.NAIVE,
}

#: one page read costs 2, each operation 1 more, plus its think time; lock
#: and predicate traffic is free
_COSTS = CostModel(io=2.0, cpu=1.0, lock_op=0.0, predicate_check=0.0)

#: the lock manager's wait events, counted into StressResult.wait_events
_WAIT_EVENTS = frozenset({"lock.enqueue", "lock.grant", "lock.abort", "lock.timeout"})


def _default_mix() -> MixSpec:
    # write-heavy with large scans: maximum granule contention, frequent
    # splits (small fanout below) and regular deferred deletes
    return MixSpec(
        read_scan=0.30,
        insert=0.30,
        delete=0.15,
        update_single=0.10,
        update_scan=0.05,
        scan_extent=0.25,
        object_extent=0.05,
        think_time=1.0,
    )


@dataclass
class StressConfig:
    """Everything needed to replay one stress run exactly."""

    seed: int = 0
    policy: str = "on-growth"
    n_workers: int = 5
    txns_per_worker: int = 2
    ops_per_txn: int = 4
    n_preload: int = 60
    fanout: int = 5
    max_retries: int = 4
    #: simulator cost jitter: different seeds explore different interleavings
    jitter: float = 0.05
    mix: MixSpec = field(default_factory=_default_mix)
    faults: FaultPlan = field(default_factory=FaultPlan)
    strict_waits: bool = True
    #: explicit per-worker scripts; ``None`` generates them from the seed.
    #: The minimizer sets this to shrink a failing schedule.
    scripts: Optional[List[List[TxnScript]]] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {sorted(POLICIES)}")


@dataclass
class StressResult:
    """One run's verdict plus enough counters to see what it exercised."""

    config: StressConfig
    violations: List[Violation]
    committed: int = 0
    aborted: int = 0
    deadlocks: int = 0
    lock_waits: int = 0
    injected_aborts: int = 0
    cancellations: int = 0
    delayed_posts: int = 0
    vacuum_passes: int = 0
    yields: int = 0
    operations: int = 0
    inserts: int = 0
    #: successful inserts that moved a granule boundary (§3.4 numerator)
    boundary_changes: int = 0
    sim_time: float = 0.0
    steps: int = 0
    #: end-of-run :meth:`repro.storage.stats.IOStats.snapshot`
    stats_snapshot: Dict[str, object] = field(default_factory=dict)
    wait_events: Dict[str, int] = field(default_factory=dict)
    schedule_len: int = 0
    #: the last dispatches before the run ended (artifact debugging aid)
    schedule_tail: List[tuple] = field(default_factory=list)
    #: the online auditor's ``dgl-audit/1`` verdict
    audit_verdict: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"seed={self.config.seed} {verdict}: {self.committed} committed, "
            f"{self.aborted} aborted, {self.deadlocks} deadlocks, "
            f"{self.injected_aborts} injected aborts, {self.cancellations} cancellations, "
            f"{self.yields} yields, sim_time={self.sim_time:.0f}"
        )


def make_preload(config: StressConfig) -> List[Object]:
    return uniform_rects(
        config.n_preload, seed=config.seed, extent_fraction=0.02, universe=UNIT
    )


def make_scripts(config: StressConfig, preload: List[Object]) -> List[List[TxnScript]]:
    return generate_scripts(
        preload,
        config.n_workers,
        config.txns_per_worker,
        config.ops_per_txn,
        config.mix,
        seed=config.seed,
        universe=UNIT,
    )


def run_stress(
    config: StressConfig,
    wait_strategy_factory: Optional[Callable[[Simulator], SimulatedWait]] = None,
    tracer=None,
) -> StressResult:
    """Execute one seeded stress schedule and run the oracle over it.

    ``wait_strategy_factory`` exists for the harness's own regression
    tests: substituting a deliberately broken strategy must make the
    oracle's invariants fire.

    ``tracer`` (an :class:`repro.obs.EventTracer`) records the run as a
    ``dgl-trace/1`` event stream; its clock is rebound to the simulator
    clock so replaying the same config yields a byte-identical trace.

    Every run carries the online protocol auditor
    (:class:`repro.obs.auditor.ProtocolAuditor`) as a tracer sink --
    flight-recorder style: when no ``tracer`` is supplied a small bounded
    ring is created just to carry the sink, so auditing costs a few dict
    operations per event and constant memory.  Audit findings are
    appended to the result's violations and the full verdict is kept in
    :attr:`StressResult.audit_verdict`.
    """
    preload = make_preload(config)
    scripts = config.scripts if config.scripts is not None else make_scripts(config, preload)

    sim = Simulator(seed=config.seed, jitter=config.jitter, record_schedule=True)
    if wait_strategy_factory is not None:
        strategy = wait_strategy_factory(sim)
    else:
        strategy = SimulatedWait(sim, strict=config.strict_waits)
    wait_events: Dict[str, int] = {}

    def count_wait_events(event: str, **_fields) -> None:
        # the lock manager's obs_sink, called under the manager mutex:
        # record only, never block
        if event in _WAIT_EVENTS:
            name = event[len("lock."):]
            wait_events[name] = wait_events.get(name, 0) + 1

    lm = LockManager(wait_strategy=strategy, obs_sink=count_wait_events)
    policy = POLICIES[config.policy]
    history = History()
    index = PhantomProtectedRTree(
        RTreeConfig(max_entries=config.fanout, universe=UNIT),
        lock_manager=lm,
        # the preload below is set-up, not schedule: a sound policy under
        # test runs it too, but NAIVE hands it to ON_GROWTH, so the unsound
        # policy is judged by the workers' operations alone
        policy=InsertionPolicy.ON_GROWTH if policy is InsertionPolicy.NAIVE else policy,
        history=history,
        clock=lambda: sim.clock,
    )
    injector = FaultInjector(sim, config.faults, config.seed)
    index.protocol.obs_sink = injector.hook
    if tracer is None:
        # flight-recorder mode: a small ring exists only to carry the
        # auditor; memory stays constant however long the run is
        tracer = EventTracer(
            capacity=FlightRecorder.DEFAULT_CAPACITY,
            meta={"source": "repro.stress", "seed": config.seed,
                  "policy": config.policy, "audit": True},
        )
    auditor = ProtocolAuditor()
    tracer.add_sink(auditor.on_event)
    tracer.clock = lambda: sim.clock
    instrument_index(index, tracer)

    with index.transaction("preload") as txn:
        for oid, rect in preload:
            index.insert(txn, oid, rect)
    index.protocol.policy = policy

    result = StressResult(config=config, violations=[])

    def count_op(op: OpCall, op_result) -> None:
        result.operations += 1
        if op.kind == "insert":
            result.inserts += 1
            if getattr(op_result, "changed_boundaries", False):
                result.boundary_changes += 1

    worker_procs = spawn_clients(
        sim, index, scripts, _COSTS, config.max_retries, on_op=count_op
    )

    def workers_done() -> bool:
        return all(p.state == SimProcess.DONE for p in worker_procs)

    plan = config.faults
    if plan.vacuum_interval > 0:

        def vacuum_body() -> None:
            while not workers_done():
                sim.checkpoint(plan.vacuum_interval)
                index.vacuum(limit=plan.vacuum_limit)
                injector.counters.vacuum_passes += 1

        sim.spawn("vacuum", vacuum_body, delay=plan.vacuum_interval)

    if plan.cancel_interval > 0:
        chaos_rng = random.Random((config.seed * 1_000_003 + 0xC4A05) % 2**63)

        def chaos_body() -> None:
            while not workers_done():
                sim.checkpoint(plan.cancel_interval)
                blocked = [p for p in worker_procs if p.state == SimProcess.BLOCKED]
                if blocked and chaos_rng.random() < plan.cancel_rate:
                    victim = blocked[chaos_rng.randrange(len(blocked))]
                    if sim.cancel(victim):
                        injector.counters.cancellations += 1

        sim.spawn("chaos", chaos_body, delay=plan.cancel_interval * 1.5)

    sim.run()
    sim.raise_process_errors()

    result.committed = index.txn_manager.committed - 1  # exclude the preload txn
    result.aborted = index.txn_manager.aborted
    result.sim_time = sim.clock
    result.steps = sim.steps

    # drain every deferred delete on the driver thread (the fault injector
    # ignores non-simulated threads), then interrogate the oracle
    index.vacuum()
    result.violations = check_run(history, index, strategy, universe=UNIT)
    result.violations.extend(check_wait_events(wait_events, lm.wait_count))
    result.audit_verdict = auditor.verdict()
    result.violations.extend(Violation("audit", str(v)) for v in auditor.violations)
    if auditor.suppressed:
        result.violations.append(
            Violation(
                "audit",
                f"{auditor.suppressed} further audit violation(s) beyond "
                f"the recording cap",
            )
        )

    result.deadlocks = lm.deadlock_count
    result.lock_waits = lm.wait_count
    result.injected_aborts = injector.counters.injected_aborts
    result.cancellations = injector.counters.cancellations
    result.delayed_posts = injector.counters.delayed_posts
    result.vacuum_passes = injector.counters.vacuum_passes
    result.yields = injector.counters.yields
    result.wait_events = dict(wait_events)
    result.schedule_len = len(sim.schedule)
    result.schedule_tail = sim.schedule[-50:]
    result.stats_snapshot = index.stats.snapshot()
    return result
