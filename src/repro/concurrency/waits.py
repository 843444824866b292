"""Lock-manager wait strategy backed by the simulator.

When a simulated transaction must wait for a lock, its process parks in
the simulator (giving the baton back to the scheduler) instead of blocking
on a condition variable.  The grant -- which always happens on some other
simulated process's thread, inside the lock-manager mutex -- wakes it.

Parked processes are registered under a **monotonic wait token**, never
under ``id(request)``: request objects are garbage-collected as soon as
their wait is decided, CPython eagerly reuses the freed addresses, and a
registration that outlives its request (e.g. a wait unwound by a fault
injection / :class:`~repro.concurrency.simulator.ProcessCancelled`) would
then alias a *different* request's id and let a stale ``notify`` wake the
wrong parked process.  Tokens are minted once per wait and never reused,
so a notify for a request that never parked is provably a no-op.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.concurrency.simulator import Simulator, SimProcess
from repro.lock.manager import LockManager, LockRequest, RequestStatus, WaitStrategy


class SpuriousWakeup(AssertionError):
    """A parked waiter resumed while its request was still undecided.

    Only raised in ``strict`` mode (the stress harness turns it on).  In
    production the wait loop simply re-parks -- a spurious wake is benign
    there -- but the harness wants the wait/notify contract violation
    surfaced loudly: a wake without a decided status means *some other*
    bookkeeping woke this process by mistake.
    """


class SimulatedWait(WaitStrategy):
    """Park the simulated process until the request is decided."""

    def __init__(self, sim: Simulator, strict: bool = False) -> None:
        self.sim = sim
        #: wait token -> parked process; tokens are monotonic and unique
        self._waiters: Dict[int, SimProcess] = {}
        self._tokens = itertools.count(1)
        #: raise :class:`SpuriousWakeup` instead of silently re-parking
        self.strict = strict

    def outstanding(self) -> int:
        """Registered (parked) waiters -- must be 0 when the sim is idle.

        The stress harness asserts this after every run: a leftover entry
        means some wait path unwound without deregistering and a future
        notify could wake the wrong process.
        """
        return len(self._waiters)

    def wait(self, manager: LockManager, request: LockRequest, timeout: Optional[float]) -> None:
        # Called with the manager mutex held by this (baton-holding)
        # thread.  Release it while parked so the process that will grant
        # the lock can get in; the baton discipline guarantees nobody else
        # touches the manager while we are actually running.
        mutex = manager._mutex
        proc = self.sim.current()
        token = next(self._tokens)
        request.wait_token = token
        self._waiters[token] = proc
        try:
            while request.status is RequestStatus.WAITING:
                mutex.release()
                try:
                    self.sim.block()
                finally:
                    mutex.acquire()
                if self.strict and request.status is RequestStatus.WAITING:
                    raise SpuriousWakeup(
                        f"process {proc.name!r} woken while its request for "
                        f"{request.mode!r} on {request.resource!r} was still waiting"
                    )
        finally:
            # Deregister on *every* exit path -- including a cancellation
            # raised out of sim.block() -- so the token can never go stale.
            self._waiters.pop(token, None)
            request.wait_token = None

    def notify(self, manager: LockManager, request: LockRequest) -> None:
        token = getattr(request, "wait_token", None)
        if token is None:
            return  # the waiter never parked (or already unwound): no-op
        proc = self._waiters.get(token)
        if proc is not None:
            self.sim.wake(proc)
