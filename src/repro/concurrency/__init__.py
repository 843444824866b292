"""Deterministic concurrency: a discrete-event simulator plus checkers.

CPython's GIL makes wall-clock multithreaded throughput meaningless, so
the concurrency experiments run on a **discrete-event simulator**:
transaction bodies are ordinary synchronous functions executed by real
threads, but a scheduler hands a *baton* to exactly one of them at a time.
Context switches happen only at explicit :meth:`~repro.concurrency.
simulator.Simulator.checkpoint` calls and at lock waits, each switch
advances a simulated clock by the step's declared cost, and every run is
deterministic given the seed.  Simulated time (not wall time) is what the
throughput benchmarks report.

The package also provides the correctness oracles:

* :class:`~repro.concurrency.history.History` records every operation;
* :func:`~repro.concurrency.checker.find_phantoms` replays the committed
  state and flags scans whose result could not have been stable at commit
  (the phantom anomaly the paper is about);
* :func:`~repro.concurrency.checker.check_conflict_serializable` builds
  the predicate-aware conflict graph and checks it is acyclic.
"""

from repro.concurrency.simulator import (
    Simulator,
    SimProcess,
    SimDeadlock,
    CostModel,
    InjectedAbort,
    ProcessCancelled,
)
from repro.concurrency.waits import SimulatedWait, SpuriousWakeup
from repro.concurrency.history import History, Op, OpKind
from repro.concurrency.checker import (
    PhantomReport,
    find_phantoms,
    check_conflict_serializable,
    SerializabilityViolation,
)

__all__ = [
    "Simulator",
    "SimProcess",
    "SimDeadlock",
    "CostModel",
    "InjectedAbort",
    "ProcessCancelled",
    "SimulatedWait",
    "SpuriousWakeup",
    "History",
    "Op",
    "OpKind",
    "PhantomReport",
    "find_phantoms",
    "check_conflict_serializable",
    "SerializabilityViolation",
]
