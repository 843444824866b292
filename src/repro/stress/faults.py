"""Fault injection for the stress harness.

All faults are *cooperative*: they act at the protocol's declared yield
points (the ``op.phase`` events of :attr:`GranuleLockProtocol.obs_sink`)
or on parked processes via :meth:`Simulator.cancel`, so every injected
failure unwinds through the same code paths a real abort would -- no
thread is ever killed from the outside.  Everything is driven by a
seeded RNG, so a given ``(StressConfig, FaultPlan)`` replays the exact
same faults.

Three fault families:

* **forced aborts** -- :class:`InjectedAbort` raised out of a worker's own
  yield point mid-operation; the worker aborts its transaction and
  retries, exercising undo, lock release and the restart bookkeeping;
* **cancellation chaos** -- a daemon process cancels workers parked in
  lock waits (:class:`~repro.concurrency.simulator.ProcessCancelled`),
  exercising the wait-strategy deregistration paths (the SimulatedWait
  id-reuse bug is only reachable through exactly this unwinding);
* **adversarial maintenance/split timing** -- a vacuum daemon runs
  deferred-delete passes with a bounded budget on an adversarial cadence,
  and inserts are stretched between the structure modification and the
  post-split locks (``insert.post`` / ``reinsert.post``), the window the
  Table 3 post-locks exist to protect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.concurrency.simulator import InjectedAbort, Simulator


@dataclass(frozen=True)
class FaultPlan:
    """Knobs for the three fault families.  All-zero disables everything."""

    #: probability of raising :class:`InjectedAbort` at a worker yield point
    abort_rate: float = 0.02
    #: simulated time between chaos-daemon scans (0 disables the daemon)
    cancel_interval: float = 40.0
    #: probability that a scan with parked workers cancels one of them
    cancel_rate: float = 0.5
    #: simulated time between vacuum passes (0 disables the daemon)
    vacuum_interval: float = 25.0
    #: per-pass attempt budget (None = drain; small values leave poisoned
    #: entries to later passes, exercising the requeue/backoff semantics)
    vacuum_limit: Optional[int] = 4
    #: extra simulated delay injected between a structure modification and
    #: its post-split locks (0 disables)
    split_delay: float = 15.0
    #: probability of applying ``split_delay`` at an eligible yield point
    split_delay_rate: float = 0.3
    #: simulated cost of one ordinary yield point (0 disables the
    #: interleaving checkpoint entirely)
    yield_cost: float = 0.2

    @classmethod
    def none(cls) -> "FaultPlan":
        """No faults, no extra interleaving -- the plain protocol."""
        return cls(
            abort_rate=0.0,
            cancel_interval=0.0,
            cancel_rate=0.0,
            vacuum_interval=0.0,
            vacuum_limit=None,
            split_delay=0.0,
            split_delay_rate=0.0,
            yield_cost=0.0,
        )

    def without(self, knob: str) -> "FaultPlan":
        """This plan with one fault family switched off (for the minimizer)."""
        zeroed = {
            "aborts": {"abort_rate": 0.0},
            "cancels": {"cancel_interval": 0.0, "cancel_rate": 0.0},
            "vacuum": {"vacuum_interval": 0.0, "vacuum_limit": None},
            "split-delay": {"split_delay": 0.0, "split_delay_rate": 0.0},
            "yields": {"yield_cost": 0.0},
        }[knob]
        return replace(self, **zeroed)


#: the yield tags eligible for adversarial split-timing delays: the window
#: between an applied structure modification and its Table 3 post-locks
_POST_LOCK_TAGS = ("insert.post", "reinsert.post")


@dataclass
class FaultCounters:
    yields: int = 0
    injected_aborts: int = 0
    delayed_posts: int = 0
    cancellations: int = 0
    vacuum_passes: int = 0


class FaultInjector:
    """The yield-point hook plus the per-run fault RNG and counters.

    One instance per stress run.  The hook is installed as
    ``protocol.obs_sink``; calls from non-simulated threads (the preload
    transaction, the post-run vacuum) are ignored, so the hook can stay
    installed for the whole lifetime of the index.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, seed: int) -> None:
        self.sim = sim
        self.plan = plan
        # distinct stream from the simulator's jitter RNG and the
        # workload generator (never hash(): it is per-process randomised)
        self.rng = random.Random((seed * 2_654_435_761 + 0xFA017) % 2**63)
        self.counters = FaultCounters()

    def hook(self, event: str, tag: str = "", **_fields) -> None:
        """The protocol's ``obs_sink``: acts on ``op.phase`` (the yield
        points, named by ``tag``) and ignores every other event.  Called
        OUTSIDE the latch, so it may context-switch or raise."""
        if event != "op.phase":
            return
        try:
            proc = self.sim.current()
        except RuntimeError:
            return  # preload / post-run vacuum on the driver thread
        self.counters.yields += 1
        plan = self.plan
        is_worker = proc.name.startswith("worker")
        if (
            is_worker
            and tag in _POST_LOCK_TAGS
            and plan.split_delay > 0
            and self.rng.random() < plan.split_delay_rate
        ):
            # Adversarial split timing: park the mutator in the window
            # between its structure modification and its post-locks, giving
            # every other process a chance to probe the half-protected tree.
            self.counters.delayed_posts += 1
            self.sim.checkpoint(plan.split_delay)
        elif plan.yield_cost > 0:
            self.sim.checkpoint(plan.yield_cost)
        if is_worker and plan.abort_rate > 0 and self.rng.random() < plan.abort_rate:
            self.counters.injected_aborts += 1
            raise InjectedAbort(f"injected at {tag!r} in {proc.name!r}")
