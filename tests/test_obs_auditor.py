"""Tests for the online protocol auditor and the flight recorder.

Two layers:

* synthetic event streams that isolate each audit rule -- the auditor
  must flag exactly the planted defect and nothing else;
* whole traced runs through the stress harness -- a sound DGL policy must
  audit clean under faults/deadlocks/vacuum, and the paper's §3.2 naive
  policy must trip the §3.3 growth-fence rule.
"""

import json

import pytest

from repro.obs.auditor import AuditViolation, FlightRecorder, ProtocolAuditor
from repro.obs.tracer import EventTracer
from repro.stress.faults import FaultPlan
from repro.stress.harness import StressConfig, run_stress


def _events(*specs):
    """Build an event list from (type, fields) pairs, stamping seq/ts."""
    out = []
    for seq, (etype, fields) in enumerate(specs):
        event = {"seq": seq, "ts": float(seq), "type": etype}
        event.update(fields)
        out.append(event)
    return out


def _begin(txn, name=None):
    return ("txn.begin", {"txn": txn, "name": name or f"t{txn}"})


def _op(txn, kind, op=100, **fields):
    return ("op.begin", {"txn": txn, "op": op, "kind": kind, **fields})


def _end(txn, kind, op=100, ok=True, **fields):
    return ("op.end", {"txn": txn, "op": op, "kind": kind, "ok": ok, **fields})


def _acq(txn, resource, mode, duration, granted=True, waited=False):
    return (
        "lock.acquire",
        {"txn": txn, "resource": resource, "mode": mode, "duration": duration,
         "granted": granted, "waited": waited},
    )


def _rules(auditor):
    return [v.rule for v in auditor.violations]


class TestAuditRules:
    def test_clean_single_insert_span(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "leaf:2", "IX", "commit"),
            _acq(1, "obj:o1", "X", "commit"),
            ("op.end", {"txn": 1, "op": 100, "kind": "insert", "ok": True}),
            ("lock.end_op", {"txn": 1, "resources": []}),
            ("lock.release_all", {"txn": 1}),
            ("txn.commit", {"txn": 1}),
        ))
        assert a.ok, a.violations
        assert a.locks_checked == 2

    def test_grant_without_enqueue_flagged(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "read_scan"),
            ("lock.grant", {"txn": 1, "resource": "leaf:2", "mode": "S",
                            "duration": "commit"}),
        ))
        assert _rules(a) == ["wait-discipline"]

    def test_enqueue_grant_pair_is_clean_and_mode_mismatch_is_not(self):
        base = [
            _begin(1),
            _op(1, "read_scan"),
            ("lock.enqueue", {"txn": 1, "resource": "leaf:2", "mode": "S",
                              "duration": "commit"}),
        ]
        good = ProtocolAuditor().replay(_events(
            *base,
            ("lock.grant", {"txn": 1, "resource": "leaf:2", "mode": "S",
                            "duration": "commit"}),
        ))
        assert good.ok, good.violations
        bad = ProtocolAuditor().replay(_events(
            *base,
            ("lock.grant", {"txn": 1, "resource": "leaf:2", "mode": "X",
                            "duration": "commit"}),
        ))
        assert "wait-discipline" in _rules(bad)

    def test_release_of_unheld_lock_flagged(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            ("lock.release", {"txn": 1, "resource": "leaf:2", "mode": "IX",
                              "duration": "short"}),
        ))
        assert _rules(a) == ["release-unheld"]

    def test_commit_duration_release_violates_2pl(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "leaf:2", "IX", "commit"),
            ("lock.release", {"txn": 1, "resource": "leaf:2", "mode": "IX",
                              "duration": "commit"}),
        ))
        assert "2pl" in _rules(a)

    def test_acquire_after_release_all_violates_2pl(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            ("op.end", {"txn": 1, "op": 100, "kind": "insert", "ok": True}),
            ("lock.release_all", {"txn": 1}),
            _op(1, "insert", op=101),
            _acq(1, "leaf:2", "IX", "commit"),
        ))
        assert "2pl" in _rules(a)

    def test_short_lock_carried_into_next_op_flagged(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "ext:3", "SIX", "short"),
            ("op.end", {"txn": 1, "op": 100, "kind": "insert", "ok": True}),
            # end_op forgets to drop the fence
            ("lock.end_op", {"txn": 1, "resources": []}),
            _op(1, "read_scan", op=101),
        ))
        assert "short-outlives-op" in _rules(a)

    def test_shorts_at_release_all_ok_only_for_aborted_txn(self):
        # a deadlock-victim vacuum txn carries its fences into release_all
        aborted = ProtocolAuditor().replay(_events(
            _begin(1, name="vacuum-o1"),
            _acq(1, "ext:3", "SIX", "short"),
            ("txn.abort", {"txn": 1, "reason": "deadlock"}),
            ("lock.release_all", {"txn": 1}),
        ))
        assert aborted.ok, aborted.violations
        leaked = ProtocolAuditor().replay(_events(
            _begin(2, name="vacuum-o2"),
            _acq(2, "ext:3", "SIX", "short"),
            ("lock.release_all", {"txn": 2}),
            ("txn.commit", {"txn": 2}),
        ))
        assert "short-outlives-op" in _rules(leaked)

    def test_table3_pattern_violation_flagged(self):
        # an X table-duration lock on an external granule is in no row
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "read_scan"),
            _acq(1, "ext:3", "X", "commit"),
        ))
        assert _rules(a) == ["pattern"]
        assert "read_scan" in a.violations[0].detail

    def test_lock_outside_span_ok_for_vacuum_only(self):
        vacuum = ProtocolAuditor().replay(_events(
            _begin(1, name="vacuum-o9"),
            _acq(1, "ext:3", "SIX", "short"),
            _acq(1, "obj:o9", "X", "commit"),
        ))
        assert vacuum.ok, vacuum.violations
        worker = ProtocolAuditor().replay(_events(
            _begin(2, name="w0-t0"),
            _acq(2, "leaf:2", "IX", "commit"),
        ))
        assert _rules(worker) == ["pattern"]

    def test_growth_fence_requires_six_on_external_parent(self):
        unfenced = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            ("granule.grow", {"txn": 1, "page": 3, "level": 1, "grew": True}),
        ))
        assert _rules(unfenced) == ["fence"]
        fenced = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "ext:3", "SIX", "short"),
            ("granule.grow", {"txn": 1, "page": 3, "level": 1, "grew": True}),
        ))
        assert fenced.ok, fenced.violations

    def test_leaf_growth_inside_parent_requires_six_on_parent_ext(self):
        # a leaf that grows inside its parent's BR changes no level > 0
        # granule, but it shrinks ext(parent): the grower needs SIX there
        grow = ("granule.grow",
                {"txn": 1, "page": 5, "level": 0, "grew": True, "parent": 2})
        unfenced = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "leaf:5", "IX", "commit"),
            grow,
        ))
        assert _rules(unfenced) == ["fence"]
        assert "ext:2" in unfenced.violations[0].detail
        fenced = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "insert"),
            _acq(1, "leaf:5", "IX", "commit"),
            _acq(1, "ext:2", "SIX", "short"),
            grow,
        ))
        assert fenced.ok, fenced.violations

    def test_found_read_single_without_s_flagged_first_touch(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "read_single", oid="o1"),
            _end(1, "read_single", found=True),
        ))
        assert _rules(a) == ["first-touch"]
        assert "obj:o1" in a.violations[0].detail

    def test_first_touch_satisfied_by_x_from_earlier_op(self):
        read = [
            _op(1, "read_single", op=101, oid="o1"),
            _end(1, "read_single", op=101, found=True),
        ]
        earlier_update = [
            _op(1, "update_single", oid="o1"),
            _acq(1, "leaf:2", "IX", "commit"),
            _acq(1, "obj:o1", "X", "commit"),
            _end(1, "update_single", found=True),
            ("lock.end_op", {"txn": 1, "resources": []}),
        ]
        covered = ProtocolAuditor().replay(_events(_begin(1), *earlier_update, *read))
        assert covered.ok, covered.violations
        bare = ProtocolAuditor().replay(_events(_begin(1), *read))
        assert _rules(bare) == ["first-touch"]

    def test_not_found_read_single_is_clean(self):
        def stream(found):
            return _events(
                _begin(1),
                _op(1, "read_single", oid="o1"),
                _end(1, "read_single", found=found),
            )

        missed = ProtocolAuditor().replay(stream(found=False))
        assert missed.ok, missed.violations
        assert _rules(ProtocolAuditor().replay(stream(found=True))) == ["first-touch"]

    def test_found_update_single_holding_only_s_flagged(self):
        a = ProtocolAuditor().replay(_events(
            _begin(1),
            _op(1, "read_single", oid="o1"),
            _acq(1, "obj:o1", "S", "commit"),
            _end(1, "read_single", found=True),
            ("lock.end_op", {"txn": 1, "resources": []}),
            _op(1, "update_single", op=101, oid="o1"),
            _acq(1, "leaf:2", "IX", "commit"),
            _end(1, "update_single", op=101, found=True),
        ))
        assert _rules(a) == ["first-touch"]
        assert "X" in a.violations[0].detail

    def test_violation_cap_counts_overflow(self):
        a = ProtocolAuditor(max_violations=2)
        a.replay(_events(
            _begin(1),
            _op(1, "read_scan"),
            *[_acq(1, f"obj:o{i}", "X", "commit") for i in range(5)],
        ))
        assert len(a.violations) == 2
        assert a.suppressed == 3
        assert not a.ok
        verdict = a.verdict()
        assert verdict["clean"] is False
        assert verdict["suppressed_violations"] == 3

    def test_on_violation_callback_fires_per_finding(self):
        seen = []
        a = ProtocolAuditor(on_violation=seen.append)
        a.replay(_events(
            _begin(1),
            _op(1, "read_scan"),
            _acq(1, "obj:o1", "X", "commit"),
        ))
        assert len(seen) == 1
        assert isinstance(seen[0], AuditViolation)


class TestAuditedRuns:
    """Whole harness runs streamed through the auditor."""

    def test_dgl_run_audits_clean(self):
        result = run_stress(StressConfig(seed=3))
        assert result.ok, result.violations
        assert result.audit_verdict["clean"] is True
        assert result.audit_verdict["locks_checked"] > 0

    def test_dgl_run_without_faults_audits_clean(self):
        result = run_stress(StressConfig(seed=11, faults=FaultPlan.none()))
        assert result.ok, result.violations
        assert result.audit_verdict["clean"] is True

    def test_naive_policy_trips_the_growth_fence(self):
        result = run_stress(StressConfig(seed=7, policy="naive"))
        audit = [v for v in result.violations if v.kind == "audit"]
        assert audit, "the naive policy must not audit clean"
        assert any("fence" in str(v) for v in audit)
        assert result.audit_verdict["clean"] is False

    def test_plain_run_audits_what_a_traced_run_audits(self):
        # no tracer: the auditor rides its own small ring, same verdict
        plain = run_stress(StressConfig(seed=3)).audit_verdict
        traced = run_stress(StressConfig(seed=3), tracer=EventTracer()).audit_verdict
        assert plain["clean"] is True
        assert plain["locks_checked"] > 0
        assert plain == traced


class TestFlightRecorder:
    def test_ring_stays_bounded_while_auditor_sees_everything(self):
        recorder = FlightRecorder(capacity=64)
        result = run_stress(StressConfig(seed=3), tracer=recorder.tracer)
        # attach the auditor manually? no: FlightRecorder wired its own sink
        assert result.ok, result.violations
        assert len(recorder.tracer.events) == 64  # ring wrapped
        assert recorder.tracer.dropped > 0
        assert recorder.auditor.events_seen == 64 + recorder.tracer.dropped
        assert recorder.ok, recorder.auditor.violations

    def test_first_violation_dumps_ring_and_verdict(self, tmp_path):
        dump = tmp_path / "fail.jsonl"
        recorder = FlightRecorder(capacity=512, dump_path=str(dump))
        # feed a planted violation through the recorder's tracer
        recorder.tracer.emit("txn.begin", txn=1, name="t1")
        recorder.tracer.emit("op.begin", txn=1, op=100, kind="read_scan")
        recorder.tracer.emit(
            "lock.acquire", txn=1, resource="obj:o1", mode="X",
            duration="commit", granted=True, waited=False,
        )
        assert recorder.dumped == str(dump)
        assert dump.exists()
        verdict = json.loads((tmp_path / "fail.jsonl.verdict.json").read_text())
        assert verdict["clean"] is False
        assert verdict["violations"][0]["rule"] == "pattern"
        # the dump is a loadable trace with full context
        lines = dump.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "dgl-trace/1"
        assert len(lines) == 1 + 3
