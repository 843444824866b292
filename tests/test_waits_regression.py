"""Regression tests for the SimulatedWait token keying fix.

The old strategy registered parked processes under ``id(request)`` and
deregistered only on the normal exit path.  Benign under pure waits, it
breaks the moment an exception unwinds through ``sim.block()`` (the
cooperative-cancellation path fault injection uses): the registration
leaks, and -- because CPython eagerly reuses freed object addresses -- a
later request can alias the dead id and a stale notify then wakes the
wrong parked process.  The fix keys registrations by a monotonic token
minted per wait and deregisters in a ``finally``.

These tests pin both halves: the new strategy never leaks across
cancellation, and a faithful reimplementation of the old keying does --
which is exactly the invariant the stress harness asserts after every
run (so reverting the fix makes seeded schedules fail, see
``tests/test_stress_harness.py``).
"""

import pytest

from repro.concurrency.simulator import ProcessCancelled, SimProcess, Simulator
from repro.concurrency.waits import SimulatedWait, SpuriousWakeup
from repro.lock.manager import LockManager, RequestStatus
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId

X = LockMode.X
COMMIT = LockDuration.COMMIT
RES = ResourceId.obj("contended")


class LegacyIdKeyedWait(SimulatedWait):
    """Faithful reimplementation of the pre-fix strategy."""

    def wait(self, manager, request, timeout):
        mutex = manager._mutex
        proc = self.sim.current()
        self._waiters[id(request)] = proc
        while request.status is RequestStatus.WAITING:
            mutex.release()
            try:
                self.sim.block()
            finally:
                mutex.acquire()
        self._waiters.pop(id(request), None)

    def notify(self, manager, request):
        proc = self._waiters.get(id(request))
        if proc is not None:
            self.sim.wake(proc)


def _contended_wait_with_cancellation(strategy_cls):
    """Holder keeps RES; a second txn parks on it; chaos cancels the
    parked waiter.  Returns (strategy, lock manager, observed events)."""
    sim = Simulator()
    strategy = strategy_cls(sim)
    lm = LockManager(wait_strategy=strategy)
    events = []

    def holder():
        assert lm.acquire("A", RES, X, COMMIT, conditional=True)
        sim.checkpoint(100.0)
        lm.release_all("A")
        events.append("released")

    def waiter():
        try:
            lm.acquire("B", RES, X, COMMIT, conditional=False)
            events.append("granted")
        except ProcessCancelled:
            events.append("cancelled")
            lm.release_all("B")

    waiter_proc = sim.spawn("waiter", waiter, delay=1.0)
    sim.spawn("holder", holder)

    def chaos():
        sim.checkpoint(10.0)
        assert waiter_proc.state == SimProcess.BLOCKED
        assert sim.cancel(waiter_proc)

    sim.spawn("chaos", chaos)
    sim.run()
    sim.raise_process_errors()
    return strategy, lm, events


class TestTokenKeyedWait:
    def test_cancellation_leaves_no_registration(self):
        strategy, lm, events = _contended_wait_with_cancellation(SimulatedWait)
        assert events == ["cancelled", "released"]
        assert strategy.outstanding() == 0
        assert lm.outstanding() == (0, 0)

    def test_legacy_id_keying_leaks_across_cancellation(self):
        # The bug, reproduced: the unwound wait never deregisters, so the
        # stale entry survives -- ready to alias a recycled request id.
        strategy, lm, events = _contended_wait_with_cancellation(LegacyIdKeyedWait)
        assert events == ["cancelled", "released"]
        assert strategy.outstanding() == 1  # the leak the fix removes
        assert lm.outstanding() == (0, 0)

    def test_notify_without_token_is_noop(self):
        sim = Simulator()
        strategy = SimulatedWait(sim)

        class Req:
            pass

        strategy.notify(None, Req())  # never parked: must not touch anything
        assert strategy.outstanding() == 0

    def test_tokens_are_never_reused(self):
        sim = Simulator()
        strategy = SimulatedWait(sim)
        a = next(strategy._tokens)
        b = next(strategy._tokens)
        assert a != b and b > a


class TestStrictMode:
    def _run_with_stray_wake(self, strict):
        sim = Simulator()
        strategy = SimulatedWait(sim, strict=strict)
        lm = LockManager(wait_strategy=strategy)

        def holder():
            assert lm.acquire("A", RES, X, COMMIT, conditional=True)
            sim.checkpoint(100.0)
            lm.release_all("A")

        def waiter():
            lm.acquire("B", RES, X, COMMIT, conditional=False)
            lm.release_all("B")

        waiter_proc = sim.spawn("waiter", waiter, delay=1.0)
        sim.spawn("holder", holder)

        def stray():
            # a wake that bypasses the wait strategy entirely -- the
            # "wrong process woken by aliased bookkeeping" failure mode
            sim.checkpoint(10.0)
            sim.wake(waiter_proc)

        sim.spawn("stray", stray)
        sim.run()
        return sim, strategy

    def test_strict_mode_raises_on_spurious_wake(self):
        sim, strategy = self._run_with_stray_wake(strict=True)
        with pytest.raises(SpuriousWakeup):
            sim.raise_process_errors()
        # even then, the finally deregistered the waiter
        assert strategy.outstanding() == 0

    def test_lenient_mode_reparks_and_completes(self):
        sim, strategy = self._run_with_stray_wake(strict=False)
        sim.raise_process_errors()  # no error: the wait loop re-parked
        assert strategy.outstanding() == 0
