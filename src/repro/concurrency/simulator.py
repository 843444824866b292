"""The baton-passing discrete-event simulator.

Each simulated process runs on its own OS thread, but only the process
holding the *baton* executes; everyone else is parked on an event.  The
scheduler (the thread that called :meth:`Simulator.run`) pops the earliest
pending event off a priority queue, advances the simulated clock, and
hands the baton over.  A process gives the baton back by

* :meth:`Simulator.checkpoint` -- "this step cost N simulated time units";
  the process is re-scheduled at ``clock + N``;
* :meth:`Simulator.block` -- "I am waiting for something" (a lock);
  the process is re-scheduled only when :meth:`Simulator.wake` is called
  for it (the lock manager's wait strategy does this on grant);
* returning from its body (or raising), which ends the process.

Determinism: with a fixed spawn order and fixed costs, the event queue
orders every decision; ties break by insertion sequence.  An optional
seeded jitter perturbs costs slightly so different seeds explore different
interleavings -- each seed is still fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


class SimDeadlock(RuntimeError):
    """Every live process is blocked and no event is pending.

    The lock manager resolves lock-lock deadlocks itself; reaching this
    state means a process blocked on something nobody will ever signal --
    a bug in the protocol under test, so we fail loudly.
    """


class ProcessCancelled(Exception):
    """Raised inside a parked process that was cancelled via
    :meth:`Simulator.cancel`.

    The stress harness uses this for forced-abort fault injection: the
    exception surfaces from :meth:`Simulator.block` on the victim's own
    thread, so it unwinds through whatever wait the process was parked in
    (releasing mutexes on the way) exactly like a real asynchronous abort
    would have to.
    """


class InjectedAbort(Exception):
    """A forced abort raised at a protocol yield point (fault injection).

    Deliberately *not* a :class:`~repro.lock.manager.DeadlockError`
    subclass: the index layer must not mistake it for a deadlock victim;
    the client driver (:mod:`repro.workloads.clients`) catches it, aborts
    the transaction and retries.
    """


@dataclass
class CostModel:
    """Simulated durations, in abstract time units.

    The paper's cost argument is I/O-dominated; the defaults make one page
    I/O an order of magnitude more expensive than one node's worth of CPU.
    ``lock_op`` is the cost of one hash-table lock request (granular locks
    are "set and checked very efficiently by a standard lock manager");
    ``predicate_check`` is the cost of one predicate-satisfiability
    comparison -- the overhead that grows with the number of concurrently
    held predicates and drives the paper's preference for granular locks.
    """

    io: float = 10.0
    cpu: float = 1.0
    think: float = 0.0  # inter-operation delay inside a transaction
    lock_op: float = 0.05
    predicate_check: float = 0.05


class SimProcess:
    """One simulated process (usually: one transaction's body)."""

    __slots__ = (
        "name",
        "body",
        "thread",
        "event",
        "state",
        "result",
        "error",
        "sim",
        "_step_cost",
        "cancelled",
    )

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"

    def __init__(self, sim: "Simulator", name: str, body: Callable[[], Any]) -> None:
        self.sim = sim
        self.name = name
        self.body = body
        self.event = threading.Event()
        self.state = SimProcess.READY
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._step_cost = 0.0
        #: set by :meth:`Simulator.cancel` while the process is parked;
        #: consumed (and raised as :class:`ProcessCancelled`) on resume
        self.cancelled = False
        self.thread = threading.Thread(target=self._run, name=f"sim-{name}", daemon=True)

    def _run(self) -> None:
        self.sim._register_thread(self)
        self.event.wait()
        self.event.clear()
        try:
            self.result = self.body()
        except BaseException as exc:  # recorded, not swallowed silently
            self.error = exc
        finally:
            self.state = SimProcess.DONE
            self.sim._control.set()

    def __repr__(self) -> str:
        return f"SimProcess({self.name}, {self.state})"


class Simulator:
    """See module docstring."""

    def __init__(self, seed: int = 0, jitter: float = 0.0, record_schedule: bool = False) -> None:
        self.clock: float = 0.0
        self.rng = random.Random(seed)
        #: multiplicative cost noise in [0, jitter); 0 disables
        self.jitter = jitter
        self._queue: List[tuple] = []  # (time, seq, process)
        self._seq = itertools.count()
        self._control = threading.Event()
        self._by_thread: Dict[int, SimProcess] = {}
        self._heap_lock = threading.Lock()
        self.processes: List[SimProcess] = []
        self._running: Optional[SimProcess] = None
        self.steps = 0
        #: when enabled, every dispatch appends ``(clock, process name)`` --
        #: the schedule trace the stress harness embeds in repro artifacts
        self.record_schedule = record_schedule
        self.schedule: List[tuple] = []

    # -- process management ---------------------------------------------

    def spawn(self, name: str, body: Callable[[], Any], delay: float = 0.0) -> SimProcess:
        """Create a process that becomes runnable at ``clock + delay``."""
        proc = SimProcess(self, name, body)
        self.processes.append(proc)
        proc.thread.start()
        self._schedule(proc, self.clock + delay)
        return proc

    def _register_thread(self, proc: SimProcess) -> None:
        self._by_thread[threading.get_ident()] = proc

    def current(self) -> SimProcess:
        """The process bound to the calling thread."""
        try:
            return self._by_thread[threading.get_ident()]
        except KeyError:
            raise RuntimeError("not inside a simulated process") from None

    def _schedule(self, proc: SimProcess, at: float) -> None:
        with self._heap_lock:
            heapq.heappush(self._queue, (at, next(self._seq), proc))

    # -- the scheduler loop ------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> None:
        """Drive the simulation until every process finished."""
        while True:
            with self._heap_lock:
                pending = bool(self._queue)
            if not pending:
                live = [p for p in self.processes if p.state != SimProcess.DONE]
                if not live:
                    return
                raise SimDeadlock(
                    f"no pending events but {len(live)} live processes: "
                    + ", ".join(f"{p.name}({p.state})" for p in live)
                )
            with self._heap_lock:
                at, _seq, proc = heapq.heappop(self._queue)
            if proc.state == SimProcess.DONE:
                continue
            self.clock = max(self.clock, at)
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise SimDeadlock(f"exceeded {max_steps} scheduler steps")
            self._dispatch(proc)

    #: wall-clock seconds a dispatched process may hold the baton before the
    #: scheduler declares a hang (a real-thread deadlock, e.g. a latch bug)
    hang_timeout: float = 60.0

    def _dispatch(self, proc: SimProcess) -> None:
        if self.record_schedule:
            self.schedule.append((self.clock, proc.name))
        self._running = proc
        proc.state = SimProcess.RUNNING
        self._control.clear()
        proc.event.set()
        if not self._control.wait(timeout=self.hang_timeout):
            states = ", ".join(f"{p.name}({p.state})" for p in self.processes)
            raise SimDeadlock(
                f"process {proc.name!r} held the baton over {self.hang_timeout}s "
                f"of wall time -- real-thread deadlock? states: {states}"
            )
        self._running = None

    # -- called from inside processes ----------------------------------------

    def checkpoint(self, cost: float = 0.0) -> None:
        """Yield the baton; resume after ``cost`` simulated time units."""
        proc = self.current()
        if self.jitter:
            cost += cost * self.jitter * self.rng.random()
        proc.state = SimProcess.READY
        self._schedule(proc, self.clock + cost)
        self._control.set()
        proc.event.wait()
        proc.event.clear()
        proc.state = SimProcess.RUNNING

    def block(self) -> None:
        """Yield the baton indefinitely; somebody must :meth:`wake` us.

        Raises :class:`ProcessCancelled` on resume when the process was
        cancelled while parked (fault injection / forced abort).
        """
        proc = self.current()
        proc.state = SimProcess.BLOCKED
        self._control.set()
        proc.event.wait()
        proc.event.clear()
        proc.state = SimProcess.RUNNING
        if proc.cancelled:
            proc.cancelled = False
            raise ProcessCancelled(f"process {proc.name!r} cancelled while parked")

    def wake(self, proc: SimProcess, delay: float = 0.0) -> None:
        """Make a blocked process runnable again at ``clock + delay``.

        Waking a process that is not parked (e.g. a lock request decided
        while its owner is still running) is a no-op: scheduling it would
        hand the baton to a thread that never takes it and hang the
        scheduler.
        """
        if proc.state == SimProcess.BLOCKED:
            proc.state = SimProcess.READY
            self._schedule(proc, self.clock + delay)

    def cancel(self, proc: SimProcess, delay: float = 0.0) -> bool:
        """Cancel a *parked* process: it resumes at ``clock + delay`` with
        :class:`ProcessCancelled` raised out of its :meth:`block` call.

        Only BLOCKED processes can be cancelled -- a running or merely
        rescheduled (READY) process has nothing to unwind from.  Returns
        whether the cancellation was delivered.
        """
        if proc.state != SimProcess.BLOCKED:
            return False
        proc.cancelled = True
        proc.state = SimProcess.READY
        self._schedule(proc, self.clock + delay)
        return True

    # -- results -----------------------------------------------------------

    def raise_process_errors(self) -> None:
        """Re-raise the first process failure, if any."""
        for proc in self.processes:
            if proc.error is not None:
                raise proc.error

    def results(self) -> Dict[str, Any]:
        return {p.name: p.result for p in self.processes}

    def __repr__(self) -> str:
        return f"Simulator(clock={self.clock:.1f}, processes={len(self.processes)}, steps={self.steps})"
