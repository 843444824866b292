"""Tests for the stress harness itself: determinism, oracle sensitivity,
minimization, artifacts, and the seeded sweep (marked ``stress``).

The harness is only trustworthy if it (a) replays identically from its
config, (b) actually fires on known-bad configurations -- the unsound
NAIVE insertion policy for phantoms, the legacy id-keyed wait strategy
for bookkeeping leaks -- and (c) stays silent on the sound protocol.
"""

import json

import pytest

from repro.concurrency.waits import SimulatedWait
from repro.lock.manager import RequestStatus
from repro.stress import (
    FaultPlan,
    StressConfig,
    load_artifact,
    minimize,
    run_stress,
    save_artifact,
)
from repro.stress.__main__ import main as stress_main, parse_seeds
from repro.stress.oracle import check_wait_events

#: a pinned seed where the NAIVE policy demonstrably produces a phantom
#: under the default fault plan (found by sweep; deterministic forever)
NAIVE_PHANTOM_SEED = 4


class LegacyIdKeyedWait(SimulatedWait):
    """The pre-fix SimulatedWait: id(request) keying, no finally."""

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


class TestHarnessBasics:
    def test_single_seed_clean_with_faults(self):
        result = run_stress(StressConfig(seed=0))
        assert result.ok, [str(v) for v in result.violations]
        # the run must actually have exercised the machinery
        assert result.committed > 0
        assert result.yields > 0
        assert result.lock_waits > 0

    def test_deterministic_replay(self):
        a = run_stress(StressConfig(seed=3))
        b = run_stress(StressConfig(seed=3))
        assert a.schedule_len == b.schedule_len
        assert a.schedule_tail == b.schedule_tail
        assert (a.committed, a.aborted, a.deadlocks) == (b.committed, b.aborted, b.deadlocks)
        assert a.sim_time == b.sim_time
        assert [str(v) for v in a.violations] == [str(v) for v in b.violations]

    def test_no_faults_mode_is_clean_and_quiet(self):
        result = run_stress(StressConfig(seed=1, faults=FaultPlan.none()))
        assert result.ok
        assert result.injected_aborts == 0
        assert result.cancellations == 0


class TestWaitEventBalance:
    """Every lock wait is one ``enqueue`` closed by one grant, abort or
    timeout, and the manager's ``wait_count`` counts the same waits."""

    def test_run_counts_balance(self):
        result = run_stress(StressConfig(seed=0))
        events = result.wait_events
        assert events["enqueue"] == result.lock_waits > 0
        closed = sum(events.get(name, 0) for name in ("grant", "abort", "timeout"))
        assert closed == events["enqueue"]
        assert result.ok

    def test_unbalanced_counts_are_a_violation(self):
        assert check_wait_events({"enqueue": 3, "grant": 2, "abort": 1}, 3) == []
        for events, wait_count in [
            ({"enqueue": 3, "grant": 2}, 3),  # a wait never closed
            ({"enqueue": 3, "grant": 3, "timeout": 1}, 3),  # one closed twice
            ({"enqueue": 3, "grant": 3}, 4),  # a counted wait never reported
        ]:
            (violation,) = check_wait_events(events, wait_count)
            assert violation.kind == "invariant"
            assert "wait events do not balance" in violation.detail


class TestOracleSensitivity:
    def test_reverted_wait_fix_fails_seeded_schedules(self):
        """The acceptance criterion: swapping the fixed SimulatedWait back
        for the id-keyed original makes seeded schedules fail."""
        result = run_stress(
            StressConfig(seed=0),
            wait_strategy_factory=lambda sim: LegacyIdKeyedWait(sim),
        )
        assert not result.ok
        assert any(
            v.kind == "invariant" and "waiter" in v.detail for v in result.violations
        ), [str(v) for v in result.violations]

    def test_naive_policy_phantom_detected(self):
        result = run_stress(StressConfig(seed=NAIVE_PHANTOM_SEED, policy="naive"))
        assert any(v.kind == "phantom" for v in result.violations), [
            str(v) for v in result.violations
        ]


class TestMinimizerAndArtifacts:
    def test_minimize_shrinks_failing_schedule(self):
        report = minimize(StressConfig(seed=NAIVE_PHANTOM_SEED, policy="naive"), max_runs=120)
        assert report.final_ops < report.initial_ops
        assert not report.result.ok
        # the shrunk schedule still fails when run standalone
        assert not run_stress(report.config).ok

    def test_minimize_keeps_an_audit_only_failure(self):
        # naive seed 0 fails the growth-fence audit, not the post-run oracle
        report = minimize(StressConfig(seed=0, policy="naive"), max_runs=5)
        assert any(v.kind == "audit" for v in report.result.violations)

    def test_minimize_refuses_passing_config(self):
        with pytest.raises(ValueError):
            minimize(StressConfig(seed=0))

    def test_artifact_roundtrip_replays_failure(self, tmp_path):
        failing = run_stress(StressConfig(seed=NAIVE_PHANTOM_SEED, policy="naive"))
        assert not failing.ok
        path = str(tmp_path / "repro.json")
        save_artifact(path, failing)
        config, doc = load_artifact(path)
        assert doc["schema"] == "dgl-stress/1"
        assert config.scripts is not None  # replay-stable: scripts embedded
        replay = run_stress(config)
        assert [v.kind for v in replay.violations] == [
            v["kind"] for v in doc["result"]["violations"]
        ]

    def test_cli_replay(self, tmp_path, capsys):
        failing = run_stress(StressConfig(seed=NAIVE_PHANTOM_SEED, policy="naive"))
        path = str(tmp_path / "repro.json")
        save_artifact(path, failing)
        assert stress_main(["--replay", path]) == 1
        out = capsys.readouterr().out
        assert "phantom" in out


class TestCli:
    def test_parse_seeds(self):
        assert parse_seeds("7") == [7]
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("1,4..6,9") == [1, 4, 5, 6, 9]

    def test_sweep_exit_codes(self, tmp_path):
        ok = stress_main(["--seed", "0", "--quiet", "--artifact-dir", str(tmp_path)])
        assert ok == 0
        bad = stress_main(
            ["--seed", str(NAIVE_PHANTOM_SEED), "--policy", "naive", "--quiet",
             "--artifact-dir", str(tmp_path)]
        )
        assert bad == 1
        artifacts = list(tmp_path.glob("stress-seed*.json"))
        assert len(artifacts) == 1
        doc = json.loads(artifacts[0].read_text())
        assert doc["schema"] == "dgl-stress/1"


@pytest.mark.stress
class TestSeededSweep:
    """The standing sweep: excluded from tier-1 (see addopts), run by the
    CI stress job and ``python -m repro.stress --seed 0..99``."""

    def test_seeds_0_to_29_clean(self):
        for seed in range(30):
            result = run_stress(StressConfig(seed=seed))
            assert result.ok, f"seed {seed}: " + "; ".join(
                str(v) for v in result.violations
            )

    def test_all_policies_clean_on_seeds_0_to_4(self):
        for policy in ("all-paths", "on-growth", "active-searchers"):
            for seed in range(5):
                result = run_stress(StressConfig(seed=seed, policy=policy))
                assert result.ok, f"{policy} seed {seed}: " + "; ".join(
                    str(v) for v in result.violations
                )
