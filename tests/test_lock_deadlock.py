"""Unit tests for deadlock detection and victim selection (threaded mode)."""

import threading
import time

import pytest

from repro.lock import DeadlockError, LockMode, ResourceId
from tests.conftest import make_lock_manager

S, X = LockMode.S, LockMode.X
R1, R2, R3 = ResourceId.leaf(1), ResourceId.leaf(2), ResourceId.leaf(3)


def run_all(workers, timeout=10.0):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "worker hung"


class TestTwoPartyDeadlock:
    def test_cycle_broken_one_survives(self, observed):
        lm = make_lock_manager(observed)
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        outcome = {}
        barrier = threading.Barrier(2)

        # stagger: a waits first, then b closes the cycle
        def a_body():
            barrier.wait()
            try:
                lm.acquire("a", R2, X)
                outcome["a"] = "ok"
            except DeadlockError:
                outcome["a"] = "victim"
            finally:
                lm.release_all("a")

        def b_body():
            barrier.wait()
            time.sleep(0.15)
            try:
                lm.acquire("b", R1, X)
                outcome["b"] = "ok"
            except DeadlockError:
                outcome["b"] = "victim"
            finally:
                lm.release_all("b")

        run_all([a_body, b_body])
        assert sorted(outcome.values()) == ["ok", "victim"]
        assert lm.deadlock_count >= 1

    def test_victim_is_youngest_by_default(self, observed):
        lm = make_lock_manager(observed)
        lm.acquire("old", R1, X)  # first seen -> older
        lm.acquire("young", R2, X)
        outcome = {}

        def old_body():
            try:
                lm.acquire("old", R2, X)
                outcome["old"] = "ok"
            except DeadlockError:
                outcome["old"] = "victim"
            finally:
                lm.release_all("old")

        def young_body():
            time.sleep(0.15)
            try:
                lm.acquire("young", R1, X)
                outcome["young"] = "ok"
            except DeadlockError:
                outcome["young"] = "victim"
            finally:
                lm.release_all("young")

        run_all([old_body, young_body])
        assert outcome == {"old": "ok", "young": "victim"}


class TestThreePartyDeadlock:
    def test_three_cycle_resolved(self, observed):
        lm = make_lock_manager(observed)
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        lm.acquire("c", R3, X)
        outcome = {}

        def party(me, want, delay):
            def body():
                time.sleep(delay)
                try:
                    lm.acquire(me, want, X)
                    outcome[me] = "ok"
                except DeadlockError:
                    outcome[me] = "victim"
                finally:
                    lm.release_all(me)

            return body

        run_all([party("a", R2, 0.0), party("b", R3, 0.1), party("c", R1, 0.2)])
        assert sorted(outcome.values()).count("victim") >= 1
        assert sorted(outcome.values()).count("ok") >= 1


class TestWaitsForGraph:
    def test_graph_reflects_blockers(self, observed):
        lm = make_lock_manager(observed)
        lm.acquire("holder", R1, X)
        done = threading.Event()

        def waiter():
            try:
                lm.acquire("waiter", R1, S)
            except Exception:
                pass
            finally:
                lm.release_all("waiter")
                done.set()

        t = threading.Thread(target=waiter)
        t.start()
        for _ in range(1000):
            if lm.waiting_requests():
                break
            time.sleep(0.001)
        graph = lm.build_waits_for()
        assert graph == {"waiter": {"holder"}}
        lm.release_all("holder")
        assert done.wait(timeout=5)
        t.join(timeout=5)

    def test_timeout_raises_and_cleans_queue(self, observed):
        from repro.lock import LockTimeout

        lm = make_lock_manager(observed)
        lm.acquire("holder", R1, X)
        with pytest.raises(LockTimeout):
            lm.acquire("waiter", R1, S, timeout=0.1)
        assert lm.waiting_requests() == []
        lm.release_all("holder")


class TestFifoBarrier:
    """A request compatible with every holder and every earlier waiter
    still queues behind the first blocked plain request (the FIFO
    barrier), so the waits-for graph must draw that edge: without it the
    cycle below is never detected and every process stays parked."""

    def test_is_request_behind_the_barrier_closes_a_cycle(self, observed):
        from repro.concurrency import SimulatedWait, Simulator

        sim = Simulator()
        lm = make_lock_manager(observed, wait_strategy=SimulatedWait(sim, strict=True))
        outcome = {}

        def body(txn, held, wanted, delay):
            def run():
                lm.acquire(txn, *held)
                sim.checkpoint(delay)
                try:
                    lm.acquire(txn, *wanted)
                    outcome[txn] = "ok"
                except DeadlockError:
                    outcome[txn] = "victim"
                sim.checkpoint(1.0)
                lm.release_all(txn)

            return run

        # t1 holds S on R1; t2's IX on R1 waits for it and becomes the
        # barrier; t3's IS on R1 conflicts with nobody but queues behind
        # t2; t1's S on R2 then waits for t3's X: t1 -> t3 -> t2 -> t1.
        sim.spawn("t1", body("t1", (R1, S), (R2, S), 3.0))
        sim.spawn("t2", body("t2", (R3, S), (R1, LockMode.IX), 1.0))
        sim.spawn("t3", body("t3", (R2, X), (R1, LockMode.IS), 2.0))
        sim.run()
        sim.raise_process_errors()
        assert outcome == {"t1": "victim", "t2": "ok", "t3": "ok"}
        assert lm.deadlock_count == 1
        assert lm.outstanding() == (0, 0)


class TestQueuedConversionsOnly:
    """A new request that conflicts with no holder is granted at once when
    every waiter is a conversion it is compatible with: it has nobody to
    wait for, so a queued wait there would have no waits-for edge."""

    def test_compatible_request_passes_and_incompatible_one_queues(self, observed):
        from repro.concurrency import SimulatedWait, Simulator

        IS, IX, SIX = LockMode.IS, LockMode.IX, LockMode.SIX
        sim = Simulator()
        lm = make_lock_manager(observed, wait_strategy=SimulatedWait(sim, strict=True))
        seen = {}

        def t1():
            lm.acquire("t1", R1, IX)
            sim.checkpoint(1.0)
            lm.acquire("t1", R1, SIX)  # a conversion, blocked by t2's IX
            seen["t1"] = sim.clock
            lm.release_all("t1")

        def t2():
            lm.acquire("t2", R1, IX)
            sim.checkpoint(5.0)
            lm.release_all("t2")

        def t3():
            sim.checkpoint(2.0)
            seen["t3 IS"] = lm.acquire("t3", R1, IS, conditional=True)
            seen["t4 IX"] = lm.acquire("t4", R1, IX, conditional=True)
            lm.release_all("t3")

        sim.spawn("t1", t1)
        sim.spawn("t2", t2)
        sim.spawn("t3", t3)
        sim.run()
        sim.raise_process_errors()
        # IS passes the queued SIX conversion; IX (which SIX excludes) does
        # not overtake it, although it conflicts with no holder.
        assert seen == {"t3 IS": True, "t4 IX": False, "t1": 5.0}
        assert lm.outstanding() == (0, 0)
