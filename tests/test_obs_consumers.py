"""Tests for the trace consumers: critical-path forensics, the report
differ, the HTML dashboard renderer, and the one lock replay that the
profiler, critical-path forensics and auditor share.

The integration fixtures record real stress-harness traces (simulator
clock, so byte-stable per seed); determinism assertions compare two
*independent recordings* of the same configuration, not two reads of one
file.
"""

import json

import pytest

from repro.obs import EventTracer, ProtocolAuditor, analyze_events, load_jsonl
from repro.obs.critical_path import (
    analyze_critical_path,
    critical_path_from_trace,
    format_critical_path,
)
from repro.obs.diff import check_thresholds, diff_reports, format_diff, load_report
from repro.obs.render import render_dashboard, render_from_trace
from repro.stress.harness import StressConfig, run_stress


def _record(tmp_path, name, seed=5, policy="on-growth"):
    tracer = EventTracer(meta={"seed": seed, "policy": policy})
    result = run_stress(StressConfig(seed=seed, policy=policy), tracer=tracer)
    assert result.ok, result.violations
    path = tmp_path / name
    tracer.dump_jsonl(str(path))
    return path


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("traces")
    return {
        "a": _record(tmp_path, "a.jsonl", seed=5),
        "a2": _record(tmp_path, "a2.jsonl", seed=5),  # independent re-recording
        "b": _record(tmp_path, "b.jsonl", seed=9),
    }


def _stream(*specs):
    """Build an event list from (type, fields) pairs, stamping seq/ts."""
    return [
        dict({"seq": seq, "ts": float(seq), "type": etype}, **fields)
        for seq, (etype, fields) in enumerate(specs)
    ]


def _lock(etype, txn, resource, mode, duration, **extra):
    return (etype, dict(txn=txn, resource=resource, mode=mode, duration=duration, **extra))


def _acquire(txn, resource, mode, duration, waited=False):
    return _lock("lock.acquire", txn, resource, mode, duration, granted=True, waited=waited)


def _op(etype, txn, kind, ok=True):
    fields = {"txn": txn, "op": txn * 10, "kind": kind}
    if etype == "op.end":
        fields["ok"] = ok
    return (etype, fields)


#: t1 converts leaf:1 and waits for t3 on ext:5; t3 closes a deadlock on
#: leaf:1 and is the victim; t2 and t4 queue behind t1's commit lock, which
#: outlives its end_op; t5 queues behind the readers t1's release_all lets in
AGREEMENT_STREAM = _stream(
    ("txn.begin", {"txn": 1, "name": "t1"}),
    ("txn.begin", {"txn": 2, "name": "t2"}),
    ("txn.begin", {"txn": 3, "name": "t3"}),
    _op("op.begin", 1, "insert"),
    _acquire(1, "leaf:1", "IX", "commit"),
    _acquire(1, "leaf:1", "SIX", "short"),
    _op("op.begin", 2, "read_scan"),
    _lock("lock.enqueue", 2, "leaf:1", "S", "commit"),
    _op("op.begin", 3, "read_scan"),
    _acquire(3, "ext:5", "S", "commit"),
    _lock("lock.enqueue", 1, "ext:5", "IX", "short"),
    _lock("lock.enqueue", 3, "leaf:1", "S", "commit"),
    _lock("lock.abort", 3, "leaf:1", "S", "commit"),
    _op("op.end", 3, "read_scan", ok=False),
    ("txn.abort", {"txn": 3}),
    _lock("lock.grant", 1, "ext:5", "IX", "short"),
    ("lock.release_all", {"txn": 3}),
    _acquire(1, "ext:5", "IX", "short", waited=True),
    _acquire(1, "obj:a", "X", "commit"),
    _op("op.end", 1, "insert"),
    ("lock.end_op", {"txn": 1, "resources": [["leaf:1", "SIX"], ["ext:5", "IX"]]}),
    ("txn.begin", {"txn": 4, "name": "t4"}),
    _op("op.begin", 4, "read_scan"),
    _lock("lock.enqueue", 4, "leaf:1", "S", "commit"),
    _lock("lock.grant", 2, "leaf:1", "S", "commit"),
    _lock("lock.grant", 4, "leaf:1", "S", "commit"),
    ("lock.release_all", {"txn": 1}),
    ("txn.commit", {"txn": 1}),
    _acquire(2, "leaf:1", "S", "commit", waited=True),
    _acquire(4, "leaf:1", "S", "commit", waited=True),
    ("txn.begin", {"txn": 5, "name": "t5"}),
    _op("op.begin", 5, "update_scan"),
    _lock("lock.enqueue", 5, "leaf:1", "SIX", "commit"),
    _op("op.end", 2, "read_scan"),
    ("lock.release_all", {"txn": 2}),
    ("txn.commit", {"txn": 2}),
    _op("op.end", 4, "read_scan"),
    _lock("lock.grant", 5, "leaf:1", "SIX", "commit"),
    ("lock.release_all", {"txn": 4}),
    ("txn.commit", {"txn": 4}),
    _acquire(5, "leaf:1", "SIX", "commit", waited=True),
    _op("op.end", 5, "update_scan"),
    ("lock.release_all", {"txn": 5}),
    ("txn.commit", {"txn": 5}),
)


def _profiler_waits(header, events):
    return sorted(
        (str(w["waiter"]), w["resource"], float(w["ts"]), tuple(w["holders"]))
        for w in analyze_events(header, events)["waits_for"]
    )


def _critpath_waits(header, events):
    report = analyze_critical_path(header, events, top=len(events))
    return sorted(
        (str(record["txn"]), seg["resource"], seg["start"], tuple(seg["holders"]))
        for record in report["critical_paths"]
        for seg in record["segments"]
    )


class TestConsumersAgree:
    """The profiler, critical-path forensics and auditor drive one lock
    replay, so they agree on who held what at every wait."""

    def test_synthetic_stream(self):
        events = AGREEMENT_STREAM
        report = analyze_events({}, events)
        assert [(w["waiter"], w["resource"], w["holders"]) for w in report["waits_for"]] == [
            (2, "leaf:1", ["1"]),
            (1, "ext:5", ["3"]),
            (3, "leaf:1", ["1"]),
            (4, "leaf:1", ["1"]),  # t1's commit IX outlives its end_op
            (5, "leaf:1", ["2", "4"]),  # waited grants hold; t1 is gone
        ]
        lock_waits = report["lock_waits"]
        assert (lock_waits["granted"], lock_waits["aborted"], lock_waits["unresolved"]) == (4, 1, 0)

        critpath = analyze_critical_path({}, events)
        segments = {
            record["txn"]: [(s["resource"], s["outcome"], s["holders"]) for s in record["segments"]]
            for record in critpath["critical_paths"]
        }
        assert segments == {
            1: [("ext:5", "granted", ["3"])],
            2: [("leaf:1", "granted", ["1"])],
            3: [("leaf:1", "aborted", ["1"])],
            4: [("leaf:1", "granted", ["1"])],
            5: [("leaf:1", "granted", ["2", "4"])],
        }
        assert _profiler_waits({}, events) == _critpath_waits({}, events)

        auditor = ProtocolAuditor().replay(events)
        assert auditor.ok, [str(v) for v in auditor.violations]
        assert auditor.verdict()["open_waits"] == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_recorded_seeds(self, seed):
        tracer = EventTracer(meta={"seed": seed})
        assert run_stress(StressConfig(seed=seed), tracer=tracer).ok
        header, events = tracer.header(), list(tracer.events)
        waits = _profiler_waits(header, events)
        assert waits, "the seed must produce lock waits"
        assert waits == _critpath_waits(header, events)
        assert ProtocolAuditor().replay(events).ok


class TestTransactionWindows:
    def test_every_begin_is_closed_exactly_once(self, tmp_path):
        """Deadlock victims end in ``txn.abort`` too, so every
        ``txn.begin`` window closes once (commit or abort)."""
        _header, events, _ = load_jsonl(str(_record(tmp_path, "t7.jsonl", seed=7)))
        begun = [e["txn"] for e in events if e["type"] == "txn.begin"]
        closed = [e["txn"] for e in events if e["type"] in ("txn.commit", "txn.abort")]
        assert len(begun) == len(set(begun))
        assert sorted(closed) == sorted(begun)
        reasons = [e.get("reason", "") for e in events if e["type"] == "txn.abort"]
        assert any(r.startswith("deadlock victim") for r in reasons)


class TestCriticalPath:
    def test_latency_decomposes_into_run_plus_wait(self, traces):
        report, violations = critical_path_from_trace(str(traces["a"]))
        assert not violations
        assert report["schema"] == "dgl-critpath/1"
        closed = [r for r in report["critical_paths"] if r["total"] is not None]
        assert closed, "expected closed transactions"
        for record in closed:
            # fields are independently rounded to 6 decimals, so the
            # decomposition can be off by one ulp of that rounding
            assert record["run_time"] + record["wait_time"] == pytest.approx(
                record["total"], abs=2e-6
            )
            assert 0.0 <= record["wait_fraction"] <= 1.0

    def test_wait_segments_attribute_blockers(self, traces):
        header, events, _ = load_jsonl(str(traces["a"]))
        report = analyze_critical_path(header, events)
        segments = [
            seg for rec in report["critical_paths"] for seg in rec["segments"]
        ]
        assert segments, "this seed must produce lock waits"
        assert any(seg["holders"] for seg in segments)
        assert report["top_blockers"]
        assert report["top_resources"]
        # attributed time is conserved: splitting by holder never creates time
        attributed = sum(row["blocked_time"] for row in report["top_blockers"])
        assert attributed <= report["transactions"]["total_wait_time"] + 1e-6

    def test_slowest_first_and_formatting(self, traces):
        report, _ = critical_path_from_trace(str(traces["a"]), top=5)
        totals = [r["total"] for r in report["critical_paths"] if r["total"] is not None]
        assert totals == sorted(totals, reverse=True)
        text = format_critical_path(report)
        assert "critical paths:" in text
        assert "top blockers" in text

    def test_truncated_header_is_declared(self):
        header = {"dropped": 10}
        report = analyze_critical_path(header, [])
        assert report["truncated"] is True


class TestDiff:
    def test_same_seed_recordings_diff_empty(self, traces):
        diff = diff_reports(load_report(str(traces["a"])), load_report(str(traces["a2"])))
        assert diff["identical"] is True
        assert format_diff(diff) == "reports identical: zero deltas"
        failures, errors = check_thresholds(diff, ["any"])
        assert not failures and not errors

    def test_different_seeds_produce_deltas(self, traces):
        diff = diff_reports(load_report(str(traces["a"])), load_report(str(traces["b"])))
        assert diff["identical"] is False
        failures, _ = check_thresholds(diff, ["any"])
        assert failures
        text = format_diff(diff)
        assert "reports differ" in text

    def test_threshold_metrics_gate_on_drift(self, traces):
        a = load_report(str(traces["a"]))
        b = load_report(str(traces["b"]))
        diff = diff_reports(a, b)
        waits_drift = abs(diff["lock_waits"]["total"]["delta"])
        failures, errors = check_thresholds(diff, [f"waits={waits_drift + 1}"])
        assert not failures and not errors
        if waits_drift:
            failures, _ = check_thresholds(diff, [f"waits={waits_drift - 1}"])
            assert failures

    def test_bad_specs_are_errors_not_crashes(self, traces):
        diff = diff_reports(load_report(str(traces["a"])), load_report(str(traces["a"])))
        _, errors = check_thresholds(diff, ["nope", "waits=abc", "bogus=1"])
        assert len(errors) == 3

    def test_boundary_fraction_drift_tracked(self, traces):
        a = load_report(str(traces["a"]))
        b = json.loads(json.dumps(a))
        b["boundary_changes"]["fraction"] += 0.25
        diff = diff_reports(a, b)
        assert diff["boundary_changes"]["fraction"]["delta"] == pytest.approx(0.25)
        failures, _ = check_thresholds(diff, ["boundary_fraction=0.1"])
        assert failures

    def test_heatmap_added_and_removed_resources(self, traces):
        a = load_report(str(traces["a"]))
        b = json.loads(json.dumps(a))
        b["heatmap"] = [row for row in b["heatmap"][1:]] + [
            {"resource": "leaf:999", "acquisitions": 3, "waits": 1, "wait_time": 0.5}
        ]
        diff = diff_reports(a, b)
        statuses = {row["resource"]: row["status"] for row in diff["heatmap"]}
        assert statuses["leaf:999"] == "added"
        removed = a["heatmap"][0]["resource"]
        assert statuses[removed] == "removed"


class TestRender:
    def test_two_recordings_render_byte_identical(self, traces):
        html1, violations1 = render_from_trace(str(traces["a"]))
        html2, violations2 = render_from_trace(str(traces["a2"]))
        assert not violations1 and not violations2
        assert html1 == html2

    def test_dashboard_is_self_contained(self, traces):
        html, _ = render_from_trace(str(traces["a"]))
        assert html.startswith("<!DOCTYPE html>")
        # zero external assets: no remote fetches, no scripts
        for forbidden in ("http://", "https://", "<script", "<link", "url("):
            assert forbidden not in html
        # all four dashboard pieces present
        assert "Protocol audit" in html
        assert "Wait timeline" in html
        assert "Lock heatmap" in html
        assert "Operation latency" in html
        assert "Transaction critical paths" in html
        # audit state is icon + label, never color alone
        assert "audit CLEAN" in html and "✓" in html

    def test_dark_mode_is_selected_not_inverted(self, traces):
        html, _ = render_from_trace(str(traces["a"]))
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html
        # dark series steps differ from light (selected, not auto-flipped)
        assert "#2a78d6" in html and "#3987e5" in html

    def test_render_without_waits_or_audit_sections(self):
        report = analyze_events({"dropped": 0, "meta": {}}, [])
        html = render_dashboard(report)
        assert "no lock waits in this trace" in html
        assert "no audit verdict attached" in html

    def test_naive_trace_renders_dirty_verdict(self, tmp_path):
        tracer = EventTracer(meta={"seed": 7, "policy": "naive"})
        run_stress(StressConfig(seed=7, policy="naive"), tracer=tracer)
        path = tmp_path / "naive.jsonl"
        tracer.dump_jsonl(str(path))
        html, _ = render_from_trace(str(path))
        assert "VIOLATIONS FOUND" in html
        assert "✗" in html
        assert "fence" in html
