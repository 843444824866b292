"""Unit tests for the discrete-event simulator."""

import hashlib
import threading
import time

import pytest

from repro.concurrency import SimDeadlock, SimulatedWait, Simulator
from repro.lock import DeadlockError, LockManager, LockMode, ResourceId
from repro.stress import StressConfig, run_stress


class _CountingEvent(threading.Event):
    """A ``threading.Event`` that counts its ``set`` calls."""

    def __init__(self):
        super().__init__()
        self.sets = 0

    def set(self):
        self.sets += 1
        super().set()


class TestScheduling:
    def test_single_process_runs_to_completion(self):
        sim = Simulator()
        log = []
        sim.spawn("p", lambda: log.append("ran"))
        sim.run()
        assert log == ["ran"]
        assert sim.processes[0].state == "done"

    def test_checkpoint_advances_clock(self):
        sim = Simulator()

        def body():
            sim.checkpoint(10)
            sim.checkpoint(5)
            return sim.clock

        proc = sim.spawn("p", body)
        sim.run()
        assert proc.result == 15.0
        assert sim.clock == 15.0

    def test_interleaving_by_event_time(self):
        sim = Simulator()
        log = []

        def make(name, step):
            def body():
                for i in range(3):
                    log.append((name, sim.clock))
                    sim.checkpoint(step)

            return body

        sim.spawn("fast", make("fast", 1))
        sim.spawn("slow", make("slow", 10))
        sim.run()
        # fast finishes its three steps before slow's second turn
        fast_times = [t for n, t in log if n == "fast"]
        assert fast_times == [0.0, 1.0, 2.0]

    def test_spawn_delay(self):
        sim = Simulator()
        times = {}
        sim.spawn("a", lambda: times.setdefault("a", sim.clock))
        sim.spawn("b", lambda: times.setdefault("b", sim.clock), delay=42)
        sim.run()
        assert times == {"a": 0.0, "b": 42.0}

    def test_determinism_same_seed(self):
        def trace(seed):
            sim = Simulator(seed=seed, jitter=0.5)
            log = []

            def make(name):
                def body():
                    for _ in range(4):
                        log.append(name)
                        sim.checkpoint(1.0)

                return body

            sim.spawn("a", make("a"))
            sim.spawn("b", make("b"))
            sim.run()
            return log

        assert trace(1) == trace(1)
        assert trace(1) != trace(2) or trace(1) != trace(3)

    def test_process_error_captured_and_reraised(self):
        sim = Simulator()

        def boom():
            raise ValueError("bad")

        sim.spawn("p", boom)
        sim.run()
        with pytest.raises(ValueError, match="bad"):
            sim.raise_process_errors()

    def test_results_collected(self):
        sim = Simulator()
        sim.spawn("a", lambda: 1)
        sim.spawn("b", lambda: 2)
        sim.run()
        assert sim.results() == {"a": 1, "b": 2}


class TestInPlaceSteps:
    """A checkpoint that is still the earliest event keeps the baton."""

    def test_lone_process_never_hands_the_baton_back(self):
        sim = Simulator(record_schedule=True)
        sim._control = control = _CountingEvent()
        costs = [3, 0, 2.5, 1]

        def body():
            for cost in costs:
                sim.checkpoint(cost)

        sim.spawn("p", body)
        sim.run()
        # the scheduler dispatched once and was woken once, by the exit
        assert control.sets == 1
        assert sim.steps == 1 + len(costs)
        assert sim.clock == 6.5
        assert sim.schedule == [(0.0, "p"), (3, "p"), (3, "p"), (5.5, "p"), (6.5, "p")]

    def test_equal_costs_alternate_strictly(self):
        """A tie goes to the queued event: with equal costs and no jitter
        two processes take turns, and every checkpoint hands the baton over."""
        sim = Simulator(record_schedule=True)
        sim._control = control = _CountingEvent()
        log = []

        def make(name):
            def body():
                for _ in range(4):
                    log.append((name, sim.clock))
                    sim.checkpoint(1)

            return body

        sim.spawn("a", make("a"))
        sim.spawn("b", make("b"))
        sim.run()
        assert log == [(name, float(t)) for t in range(4) for name in "ab"]
        assert [name for _, name in sim.schedule] == ["a", "b"] * 5
        assert sim.steps == 10
        assert control.sets == 10  # 8 checkpoints + 2 exits

    def test_earlier_wakeup_takes_the_baton(self):
        sim = Simulator()
        log = []

        def sleeper():
            sim.block()
            log.append(("sleeper", sim.clock))

        def waker(proc):
            sim.checkpoint(5)
            sim.wake(proc, delay=1)  # due at 6, before the waker's next step
            sim.checkpoint(10)
            log.append(("waker", sim.clock))

        proc = sim.spawn("sleeper", sleeper)
        sim.spawn("waker", lambda: waker(proc))
        sim.run()
        assert log == [("sleeper", 6.0), ("waker", 15.0)]

    def test_later_wakeup_leaves_the_baton_with_the_waker(self):
        sim = Simulator()
        sim._control = control = _CountingEvent()
        log = []

        def sleeper():
            sim.block()
            log.append(("sleeper", sim.clock))

        def waker(proc):
            sim.wake(proc, delay=20)
            sim.checkpoint(5)  # due at 5, before the wake-up at 20
            log.append(("waker", sim.clock))

        proc = sim.spawn("sleeper", sleeper)
        sim.spawn("waker", lambda: waker(proc))
        sim.run()
        assert log == [("waker", 5.0), ("sleeper", 20.0)]
        # the sleeper's block and the two exits; the waker's checkpoint
        # stayed in place
        assert control.sets == 3

    def test_long_lone_run_is_not_a_hang(self):
        """The watchdog counts wall time without a step, not the length of
        one dispatch: a lone process may keep the baton indefinitely."""
        sim = Simulator()
        sim.hang_timeout = 0.3
        deadline = time.monotonic() + 3 * sim.hang_timeout

        def body():
            while time.monotonic() < deadline:
                time.sleep(0.005)
                sim.checkpoint(1)

        proc = sim.spawn("p", body)
        sim.run()
        assert proc.error is None
        assert sim.steps > 10

    def test_step_limit_counts_in_place_steps(self):
        sim = Simulator()
        steps = []

        def body():
            while True:
                steps.append(sim.steps)
                sim.checkpoint(1)

        sim.spawn("p", body)
        with pytest.raises(SimDeadlock, match="steps"):
            sim.run(max_steps=5)
        assert steps == [1, 2, 3, 4, 5]


#: sha256 of ``repr([(steps, sim_time, schedule_len, schedule_tail), ...])``
#: over ``run_stress(StressConfig(seed=s))`` for seeds 0-19.  A change that
#: moves the simulated schedule must update it and say why.
STRESS_SCHEDULE_DIGEST = "cc244fe7f117388e4a6653af069400570d92991ad508c388d87fb649fdf6a399"


def test_stress_schedules_match_golden_digest():
    rows = []
    for seed in range(20):
        result = run_stress(StressConfig(seed=seed))
        rows.append((result.steps, result.sim_time, result.schedule_len, result.schedule_tail))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == STRESS_SCHEDULE_DIGEST


class TestBlockingAndWaking:
    def test_block_until_woken(self):
        sim = Simulator()
        log = []

        def sleeper():
            log.append(("sleep", sim.clock))
            sim.block()
            log.append(("woke", sim.clock))

        def waker(proc_holder):
            sim.checkpoint(25)
            sim.wake(proc_holder[0])

        holder = []
        proc = sim.spawn("sleeper", sleeper)
        holder.append(proc)
        sim.spawn("waker", lambda: waker(holder))
        sim.run()
        assert log == [("sleep", 0.0), ("woke", 25.0)]

    def test_wake_of_running_process_is_noop(self):
        sim = Simulator()

        def body():
            sim.wake(sim.current())  # self-wake while running: ignored
            sim.checkpoint(1)

        sim.spawn("p", body)
        sim.run()  # must terminate without double-dispatch

    def test_unwoken_block_raises_sim_deadlock(self):
        sim = Simulator()
        sim.spawn("stuck", sim.block)
        with pytest.raises(SimDeadlock, match="stuck"):
            sim.run()

    def test_current_outside_process_raises(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            sim.current()


class TestWatchdog:
    def test_baton_holder_blocked_on_os_lock_is_detected(self):
        """A process that OS-blocks while holding the baton (e.g. on a
        latch held by a *parked* process) would hang the scheduler
        forever; the dispatch watchdog must surface it as SimDeadlock."""
        import threading

        sim = Simulator()
        sim.hang_timeout = 1.0
        latch = threading.Lock()

        def holder():
            latch.acquire()
            sim.block()  # parks while holding the OS lock -- the bug
            latch.release()

        def victim():
            sim.checkpoint(1)
            latch.acquire()  # OS-blocks while holding the baton
            latch.release()

        sim.spawn("holder", holder)
        sim.spawn("victim", victim)
        with pytest.raises(SimDeadlock, match="baton"):
            sim.run()

    def test_step_limit_guards_runaway_loops(self):
        sim = Simulator()

        def spinner():
            while True:
                sim.checkpoint(1)

        sim.spawn("spinner", spinner)
        with pytest.raises(SimDeadlock, match="steps"):
            sim.run(max_steps=50)


class TestLockIntegration:
    def test_lock_wait_suspends_in_simulated_time(self):
        sim = Simulator()
        lm = LockManager(wait_strategy=SimulatedWait(sim))
        r = ResourceId.leaf(1)
        grant_times = {}

        def holder():
            lm.acquire("holder", r, LockMode.X)
            sim.checkpoint(100)
            lm.release_all("holder")

        def waiter():
            sim.checkpoint(1)
            lm.acquire("waiter", r, LockMode.S)
            grant_times["waiter"] = sim.clock
            lm.release_all("waiter")

        sim.spawn("holder", holder)
        sim.spawn("waiter", waiter)
        sim.run()
        sim.raise_process_errors()
        assert grant_times["waiter"] >= 100.0

    def test_deadlock_detected_in_simulation(self):
        sim = Simulator()
        lm = LockManager(wait_strategy=SimulatedWait(sim))
        r1, r2 = ResourceId.leaf(1), ResourceId.leaf(2)
        outcome = {}

        def party(me, first, second, delay):
            def body():
                sim.checkpoint(delay)
                lm.acquire(me, first, LockMode.X)
                sim.checkpoint(10)
                try:
                    lm.acquire(me, second, LockMode.X)
                    outcome[me] = "ok"
                except DeadlockError:
                    outcome[me] = "victim"
                lm.release_all(me)

            return body

        sim.spawn("a", party("a", r1, r2, 0))
        sim.spawn("b", party("b", r2, r1, 1))
        sim.run()
        sim.raise_process_errors()
        assert sorted(outcome.values()) == ["ok", "victim"]
