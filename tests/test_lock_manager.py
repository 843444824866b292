"""Unit tests for the lock manager: grant/deny, conversions, release
paths, introspection, wake-up order and threaded waits."""

import threading
import time

import pytest

from repro.concurrency.simulator import Simulator
from repro.concurrency.waits import SimulatedWait
from repro.lock import (
    LockDuration,
    LockMode,
    ResourceId,
    WouldBlock,
)
from repro.lock.manager import (
    DeadlockError,
    LockError,
    LockManager,
    LockTimeout,
    SingleThreadedWait,
    ThreadedWait,
    _resource_order,
)
from tests.conftest import make_lock_manager

S, X, IX, IS, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.IS, LockMode.SIX
SHORT, COMMIT = LockDuration.SHORT, LockDuration.COMMIT

R1 = ResourceId.leaf(1)
R2 = ResourceId.leaf(2)
OBJ = ResourceId.obj("o")


@pytest.fixture
def lm(observed):
    return make_lock_manager(observed, wait_strategy=SingleThreadedWait())


class TestGrantDeny:
    def test_uncontended_grant(self, lm):
        assert lm.acquire("t1", R1, S)
        assert lm.held_mode("t1", R1) == S

    def test_compatible_modes_coexist(self, lm):
        assert lm.acquire("t1", R1, S)
        assert lm.acquire("t2", R1, S)
        assert lm.acquire("t3", R1, IS)

    def test_conflicting_conditional_denied(self, lm):
        lm.acquire("t1", R1, S)
        assert not lm.acquire("t2", R1, X, conditional=True)
        assert lm.held_mode("t2", R1) is None

    def test_conflicting_unconditional_raises_single_threaded(self, lm):
        lm.acquire("t1", R1, X)
        with pytest.raises(WouldBlock):
            lm.acquire("t2", R1, S)
        # the failed request must not linger in the queue
        assert lm.waiting_requests() == []

    def test_namespaces_are_disjoint(self, lm):
        lm.acquire("t1", ResourceId.leaf(5), X)
        assert lm.acquire("t2", ResourceId.ext(5), X)
        assert lm.acquire("t3", ResourceId.obj(5), X)


class TestConversionAndStacking:
    def test_self_conversion_s_plus_ix_is_six(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R1, IX)
        assert lm.held_mode("t1", R1) == SIX

    def test_conversion_bypasses_other_holders_check(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t2", R1, S)
        # t1 upgrading to SIX conflicts with t2's S
        assert not lm.acquire("t1", R1, SIX, conditional=True)
        lm.release_all("t2")
        assert lm.acquire("t1", R1, SIX, conditional=True)

    def test_short_upgrade_falls_away_at_operation_end(self, lm):
        """The §3.3 pattern: commit S + short SIX on an external granule."""
        lm.acquire("t1", R1, S, COMMIT)
        lm.acquire("t1", R1, SIX, SHORT)
        assert lm.held_mode("t1", R1) == SIX
        assert lm.held_commit_mode("t1", R1) == S
        lm.end_operation("t1")
        assert lm.held_mode("t1", R1) == S

    def test_duplicate_acquisitions_stack(self, lm):
        lm.acquire("t1", R1, IX, COMMIT)
        lm.acquire("t1", R1, IX, COMMIT)
        lm.release("t1", R1, IX, COMMIT)
        assert lm.held_mode("t1", R1) == IX
        lm.release("t1", R1, IX, COMMIT)
        assert lm.held_mode("t1", R1) is None


class TestRelease:
    def test_release_unheld_raises(self, lm):
        with pytest.raises(LockError):
            lm.release("t1", R1, S, COMMIT)

    def test_release_wrong_mode_raises(self, lm):
        lm.acquire("t1", R1, S, COMMIT)
        with pytest.raises(LockError):
            lm.release("t1", R1, X, COMMIT)

    def test_release_all_clears_everything(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R2, X, SHORT)
        lm.acquire("t1", OBJ, X)
        lm.release_all("t1")
        assert lm.locks_of("t1") == {}
        # resources are free again
        assert lm.acquire("t2", R1, X, conditional=True)
        assert lm.acquire("t2", R2, X, conditional=True)

    def test_end_operation_only_drops_short(self, lm):
        lm.acquire("t1", R1, IX, COMMIT)
        lm.acquire("t1", R2, IX, SHORT)
        lm.acquire("t1", OBJ, X, COMMIT)
        lm.end_operation("t1")
        held = lm.locks_of("t1")
        assert R2 not in held
        assert R1 in held and OBJ in held

    def test_release_unblocks_waiter_conditionally_visible(self, lm):
        lm.acquire("t1", R1, X)
        assert not lm.acquire("t2", R1, S, conditional=True)
        lm.release_all("t1")
        assert lm.acquire("t2", R1, S, conditional=True)


class TestHoldsCovering:
    """``holds_covering``: the one answer to "is this want already held?"."""

    def test_same_unit(self, lm):
        assert not lm.holds_covering("t1", R1, IX, COMMIT)
        lm.acquire("t1", R1, IX, COMMIT)
        assert lm.holds_covering("t1", R1, IX, COMMIT)

    def test_stronger_mode_covers_weaker(self, lm):
        lm.acquire("t1", R1, SIX, COMMIT)
        assert lm.holds_covering("t1", R1, IX, COMMIT)
        assert lm.holds_covering("t1", R1, S, COMMIT)
        assert lm.holds_covering("t1", R1, IS, COMMIT)
        assert not lm.holds_covering("t1", R1, X, COMMIT)

    def test_commit_covers_short_but_short_not_commit(self, lm):
        lm.acquire("t1", R1, IX, COMMIT)
        assert lm.holds_covering("t1", R1, IX, SHORT)
        lm.acquire("t1", R2, IX, SHORT)
        assert lm.holds_covering("t1", R2, IX, SHORT)
        assert not lm.holds_covering("t1", R2, IX, COMMIT)

    def test_different_resource_never_covers(self, lm):
        lm.acquire("t1", R1, X, COMMIT)
        assert not lm.holds_covering("t1", R2, S, SHORT)
        assert not lm.holds_covering("t1", ResourceId.ext(1), S, SHORT)

    def test_other_transactions_lock_never_covers(self, lm):
        lm.acquire("t2", R1, S, COMMIT)
        assert not lm.holds_covering("t1", R1, S, SHORT)
        assert lm.holds_covering("t2", R1, S, SHORT)

    def test_short_unit_released_by_end_operation_no_longer_covers(self, lm):
        lm.acquire("t1", R1, SIX, SHORT)
        assert lm.holds_covering("t1", R1, SIX, SHORT)
        lm.end_operation("t1")
        assert not lm.holds_covering("t1", R1, SIX, SHORT)
        assert not lm.holds_covering("t1", R1, IX, SHORT)

    def test_separate_s_and_ix_units_do_not_cover_six(self, lm):
        # Their supremum is SIX (held_mode says so), but no single unit is:
        # the §3.3/§3.5 fences must be one SIX unit.
        lm.acquire("t1", R1, S, COMMIT)
        lm.acquire("t1", R1, IX, COMMIT)
        assert lm.held_mode("t1", R1) == SIX
        assert not lm.holds_covering("t1", R1, SIX, SHORT)
        assert not lm.holds_covering("t1", R1, SIX, COMMIT)
        assert lm.holds_covering("t1", R1, S, SHORT)
        assert lm.holds_covering("t1", R1, IX, SHORT)


class TestIntrospection:
    def test_holders(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t2", R1, IS)
        assert lm.holders(R1) == {"t1": S, "t2": IS}
        assert lm.holders(R2) == {}

    def test_has_conflicting_holder(self, lm):
        lm.acquire("reader", R1, S)
        assert lm.has_conflicting_holder(R1, IX)
        assert not lm.has_conflicting_holder(R1, IS)
        assert not lm.has_conflicting_holder(R1, IX, ignore=("reader",))
        assert not lm.has_conflicting_holder(R2, X)

    def test_trace_records_grants_and_denials(self, observed):
        events = []
        lm = make_lock_manager(
            observed,
            wait_strategy=SingleThreadedWait(),
            obs_sink=lambda event, **fields: events.append((event, fields)),
        )
        lm.acquire("t1", R1, X)
        lm.acquire("t2", R1, S, conditional=True)
        acquires = [fields for event, fields in events if event == "lock.acquire"]
        assert [(f["txn"], f["granted"]) for f in acquires] == [("t1", True), ("t2", False)]

    def test_acquisition_counters(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R2, IX)
        lm.acquire("t2", OBJ, X)
        assert lm.total_acquisitions() == 3
        assert lm.acquisition_counts == {"S": 1, "IX": 1, "X": 1}

    def test_conditional_denial_counts_no_acquisition_and_no_wait(self, lm):
        lm.acquire("t1", R1, X)
        assert not lm.acquire("t2", R1, S, conditional=True)
        assert lm.acquisition_counts == {"X": 1}
        assert lm.wait_count == 0

    def test_enqueued_request_counts_one_wait(self, lm):
        lm.acquire("t1", R1, X)
        with pytest.raises(WouldBlock):
            lm.acquire("t2", R1, S)
        assert lm.wait_count == 1
        assert lm.acquisition_counts == {"X": 1}

    def test_conversion_counts_as_an_acquisition(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R1, X)
        assert lm.acquisition_counts == {"S": 1, "X": 1}
        assert lm.total_acquisitions() == 2

    def test_fifo_fairness_new_request_waits_behind_queue(self, observed):
        """A grantable new request must not overtake earlier waiters."""
        lm = make_lock_manager(observed)
        lm.acquire("t1", R1, S)
        order = []

        def want_x():
            lm.acquire("t2", R1, X)  # queued behind t1's S
            order.append("t2")
            lm.release_all("t2")

        thread = threading.Thread(target=want_x)
        thread.start()
        # wait until t2 is queued
        for _ in range(1000):
            if lm.waiting_requests():
                break
        # t3's S would be compatible with t1's S but must not jump t2
        assert not lm.acquire("t3", R1, S, conditional=True)
        lm.release_all("t1")
        thread.join(timeout=5)
        assert order == ["t2"]


class TestCanonicalWakeOrder:
    """One holder frees many contended resources at once: the waiters must
    be granted in ``_resource_order``, neither in lock-table insertion
    order nor in any layout-dependent order.  Replays and trace artifacts
    depend on this order."""

    #: listed (and so first locked) out of ``_resource_order``
    RESOURCES = [ResourceId.leaf(pid) for pid in range(6, 0, -1)] + [
        ResourceId.obj("a"),
        ResourceId.ext(1),
    ]

    def _grant_order(self, observed, duration, free):
        sim = Simulator()
        grants = []
        lm = make_lock_manager(
            observed,
            wait_strategy=SimulatedWait(sim, strict=True),
            obs_sink=lambda event, **fields: (
                grants.append(fields["resource"]) if event == "lock.grant" else None
            ),
        )

        def holder():
            for resource in self.RESOURCES:
                assert lm.acquire("holder", resource, X, duration, conditional=True)
            sim.checkpoint(10.0)  # every waiter parks meanwhile
            free(lm)

        def waiter(txn, resource):
            def body():
                lm.acquire(txn, resource, S)
                lm.release_all(txn)

            return body

        sim.spawn("holder", holder)
        for idx, resource in enumerate(self.RESOURCES):
            sim.spawn(f"w{idx}", waiter(f"w{idx}", resource), delay=1.0)
        sim.run()
        sim.raise_process_errors()
        assert lm.outstanding() == (0, 0)
        return grants

    def test_release_all_wakes_in_resource_order(self, observed):
        grants = self._grant_order(observed, COMMIT, lambda lm: lm.release_all("holder"))
        assert grants == [repr(r) for r in sorted(self.RESOURCES, key=_resource_order)]

    def test_end_operation_wakes_in_resource_order(self, observed):
        def free(lm):
            lm.end_operation("holder")
            lm.release_all("holder")

        grants = self._grant_order(observed, SHORT, free)
        assert grants == [repr(r) for r in sorted(self.RESOURCES, key=_resource_order)]


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestThreadedWaitSharedCondition:
    """Every threaded waiter sleeps on the manager's one condition."""

    def test_wakeup_for_one_resource_leaves_others_waiting(self, observed):
        lm = make_lock_manager(observed, wait_strategy=ThreadedWait())
        resources = [ResourceId.leaf(pid) for pid in range(1, 5)]
        for resource in resources:
            lm.acquire("holder", resource, X)
        granted = []

        def waiter(txn, resource):
            lm.acquire(txn, resource, S)
            granted.append(txn)

        threads = [
            threading.Thread(target=waiter, args=(f"w{idx}", resource), daemon=True)
            for idx, resource in enumerate(resources)
        ]
        for thread in threads:
            thread.start()
        _wait_until(lambda: len(lm.waiting_requests()) == len(resources))

        # A bare notify_all wakes every waiter; each re-checks and waits on.
        with lm._mutex:
            lm._cond.notify_all()
        # Releasing one resource grants its waiter and notifies everyone.
        lm.release("holder", resources[0], X, COMMIT)
        _wait_until(lambda: granted == ["w0"])
        time.sleep(0.05)
        assert granted == ["w0"]
        assert {r.resource for r in lm.waiting_requests()} == set(resources[1:])
        assert all(thread.is_alive() for thread in threads[1:])

        lm.release_all("holder")
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert sorted(granted) == ["w0", "w1", "w2", "w3"]
        for idx in range(len(resources)):
            lm.release_all(f"w{idx}")
        assert lm.outstanding() == (0, 0)


class TestOneObservationSeam:
    """``obs_sink`` alone reports every lock decision: each of the eight
    ``lock.*`` events, with exactly these field names in this order."""

    FIELDS = {
        "lock.acquire": ["txn", "resource", "mode", "duration", "granted", "waited"],
        "lock.enqueue": ["txn", "resource", "mode", "duration"],
        "lock.grant": ["txn", "resource", "mode", "duration"],
        "lock.abort": ["txn", "resource", "mode", "duration"],
        "lock.timeout": ["txn", "resource", "mode", "duration"],
        "lock.release": ["txn", "resource", "mode", "duration"],
        "lock.end_op": ["txn", "resources"],
        "lock.release_all": ["txn"],
    }

    def _simulated(self, bodies):
        """Run ``(name, delay, body(lm))`` processes under the simulator;
        return the sink's ``(event, fields)`` log."""
        sim = Simulator()
        events = []
        lm = LockManager(
            wait_strategy=SimulatedWait(sim, strict=True),
            obs_sink=lambda event, **fields: events.append((event, fields)),
        )
        for name, delay, body in bodies:
            sim.spawn(name, lambda body=body: body(lm, sim), delay=delay)
        sim.run()
        sim.raise_process_errors()
        assert lm.outstanding() == (0, 0)
        return events

    def _check_fields(self, events):
        for event, fields in events:
            assert list(fields) == self.FIELDS[event], event

    @staticmethod
    def _summary(events):
        return [
            (event, fields["txn"], fields.get("granted"), fields.get("waited"))
            for event, fields in events
        ]

    def test_grants_denial_waits_and_releases(self):
        def a(lm, sim):
            assert lm.acquire("a", R1, X, SHORT)
            assert lm.acquire("a", R2, S, SHORT)
            sim.checkpoint(10.0)  # b is denied, then queues on R1
            lm.release("a", R2, S, SHORT)
            lm.end_operation("a")  # frees R1: b is granted
            lm.release_all("a")

        def b(lm, sim):
            assert not lm.acquire("b", R1, S, conditional=True)
            assert lm.acquire("b", R1, S)
            lm.release_all("b")

        events = self._simulated([("a", 0.0, a), ("b", 1.0, b)])
        self._check_fields(events)
        assert self._summary(events) == [
            ("lock.acquire", "a", True, False),
            ("lock.acquire", "a", True, False),
            ("lock.acquire", "b", False, False),
            ("lock.enqueue", "b", None, None),
            ("lock.release", "a", None, None),
            ("lock.end_op", "a", None, None),
            ("lock.grant", "b", None, None),
            ("lock.release_all", "a", None, None),
            ("lock.acquire", "b", True, True),
            ("lock.release_all", "b", None, None),
        ]
        assert events[4][1] == {
            "txn": "a", "resource": repr(R2), "mode": "S", "duration": "short"
        }
        assert events[5][1] == {"txn": "a", "resources": [[repr(R1), "X"]]}
        assert events[6][1] == {
            "txn": "b", "resource": repr(R1), "mode": "S", "duration": "commit"
        }

    def test_deadlock_victim_wait_is_aborted(self):
        def a(lm, sim):
            assert lm.acquire("a", R1, X)
            sim.checkpoint(5.0)
            assert lm.acquire("a", R2, X)  # waits for b, granted once b dies
            lm.release_all("a")

        def b(lm, sim):
            assert lm.acquire("b", R2, X)
            sim.checkpoint(10.0)
            with pytest.raises(DeadlockError):
                lm.acquire("b", R1, X)  # closes the cycle; b is younger
            lm.release_all("b")

        events = self._simulated([("a", 0.0, a), ("b", 1.0, b)])
        self._check_fields(events)
        waits = [(e, f["txn"], f["resource"]) for e, f in events if e in (
            "lock.enqueue", "lock.grant", "lock.abort")]
        assert waits == [
            ("lock.enqueue", "a", repr(R2)),
            ("lock.enqueue", "b", repr(R1)),
            ("lock.abort", "b", repr(R1)),
            ("lock.grant", "a", repr(R2)),
        ]

    def test_release_all_aborts_its_own_wait(self):
        def a(lm, sim):
            assert lm.acquire("a", R1, X)
            sim.checkpoint(10.0)  # b queues meanwhile
            lm.release_all("b")  # b is terminated while it waits
            lm.release_all("a")

        def b(lm, sim):
            with pytest.raises(LockError, match="terminated"):
                lm.acquire("b", R1, S)

        events = self._simulated([("a", 0.0, a), ("b", 1.0, b)])
        self._check_fields(events)
        assert [(e, f["txn"]) for e, f in events] == [
            ("lock.acquire", "a"),
            ("lock.enqueue", "b"),
            ("lock.abort", "b"),
            ("lock.release_all", "b"),
            ("lock.release_all", "a"),
        ]

    def test_threaded_wait_timeout(self):
        events = []
        lm = LockManager(
            wait_strategy=ThreadedWait(),
            obs_sink=lambda event, **fields: events.append((event, fields)),
        )
        assert lm.acquire("a", R1, X)
        with pytest.raises(LockTimeout):
            lm.acquire("b", R1, S, timeout=0.05)
        lm.release_all("a")
        self._check_fields(events)
        assert [(e, f["txn"]) for e, f in events] == [
            ("lock.acquire", "a"),
            ("lock.enqueue", "b"),
            ("lock.timeout", "b"),
            ("lock.release_all", "a"),
        ]
        assert lm.outstanding() == (0, 0)
