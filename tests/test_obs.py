"""Tests for the observability layer: the event tracer,
instrumentation seams, the lock-contention profiler and the CLI.

The trace-content tests force the structure modifications the paper cares
about -- a split (§3.4 boundary changes) and a node elimination with
orphan reinsertion (§3.7) -- and assert the corresponding events appear,
with disabled tracing leaving behaviour untouched.
"""

import io
import json

import pytest

from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.obs import (
    EventTracer,
    analyze_events,
    analyze_trace,
    format_report,
    instrument_index,
    load_jsonl,
)
from repro.obs.tracer import EVENT_TYPES, REQUIRED_FIELDS, TRACE_SCHEMA
from repro.rtree import RTreeConfig

from tests.conftest import TEN, random_objects, rect


# ---------------------------------------------------------------------------
# counters: page I/O on IOStats, lock traffic on the lock manager
# ---------------------------------------------------------------------------


class TestCounters:
    @staticmethod
    def _loaded_index():
        index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
        with index.transaction() as txn:
            for i in range(12):
                index.insert(txn, i, rect(i % 4, i % 3, i % 4 + 0.5, i % 3 + 0.5))
        return index

    def test_index_locks_counted_by_lock_manager(self):
        # a single-threaded run has no waits, but its grants are counted
        lm = self._loaded_index().lock_manager
        assert lm.wait_count == 0
        assert lm.total_acquisitions() == sum(lm.acquisition_counts.values()) > 0

    def test_index_stats_hold_only_page_io(self):
        snap = self._loaded_index().stats.snapshot()
        assert set(snap) == {"logical_reads", "physical_reads", "writes", "allocations", "frees"}
        assert snap["allocations"] > 1  # the root split at least once

    def test_op_result_reads_and_waits(self):
        index = self._loaded_index()
        lm = index.lock_manager
        before_reads = index.stats.physical_reads
        before_locks = lm.total_acquisitions()
        with index.transaction() as txn:
            result = index.read_scan(txn, rect(0, 0, 10, 10))
        assert len(result.matches) == 12
        assert result.physical_reads == index.stats.physical_reads - before_reads > 0
        assert result.lock_waits == 0
        assert lm.total_acquisitions() > before_locks


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestEventTracer:
    def test_ring_buffer_drops_and_counts(self):
        tr = EventTracer(capacity=3, clock=lambda: 0.0)
        for i in range(5):
            tr.emit("buffer.miss", page=i)
        assert len(tr.events) == 3
        assert tr.dropped == 2
        assert [e["page"] for e in tr.events] == [2, 3, 4]
        assert tr.header()["dropped"] == 2

    def test_dump_and_load_roundtrip(self):
        tr = EventTracer(clock=lambda: 1.5, meta={"seed": 9})
        tr.emit("txn.begin", txn=1, name="t")
        tr.emit("txn.commit", txn=1)
        buf = io.StringIO()
        assert tr.dump_jsonl(buf) == 2
        header, events, violations = load_jsonl(buf.getvalue().splitlines())
        assert violations == []
        assert header["schema"] == TRACE_SCHEMA
        assert header["meta"] == {"seed": 9}
        assert [e["type"] for e in events] == ["txn.begin", "txn.commit"]

    def test_loader_flags_schema_violations(self):
        lines = [
            json.dumps({"schema": "wrong/0"}),
            json.dumps({"seq": 0, "ts": 0.0, "type": "no.such.event"}),
            json.dumps({"seq": 1, "ts": 0.0, "type": "txn.begin"}),  # missing txn
            json.dumps({"seq": 1, "ts": 0.0, "type": "txn.commit", "txn": 1}),  # dup seq
            "not json at all",
        ]
        _header, events, violations = load_jsonl(lines)
        assert len(events) == 2  # the two structurally-parseable events
        joined = "\n".join(violations)
        assert "header schema" in joined
        assert "unknown event type" in joined
        assert "missing field 'txn'" in joined
        assert "duplicate seq" in joined
        assert "not valid JSON" in joined

    def test_every_required_field_type_is_known(self):
        assert set(REQUIRED_FIELDS) == EVENT_TYPES


# ---------------------------------------------------------------------------
# instrumented seams: splits and §3.7 elimination/reinsertion in the trace
# ---------------------------------------------------------------------------


def _traced_index(**config):
    index = PhantomProtectedRTree(RTreeConfig(universe=TEN, **config))
    tracer = EventTracer(clock=lambda: 0.0)
    handle = instrument_index(index, tracer)
    return index, tracer, handle


class TestTraceSeams:
    def test_forced_split_emits_granule_events(self):
        index, tracer, _ = _traced_index(max_entries=4)
        with index.transaction() as txn:
            for i in range(20):
                index.insert(txn, i, rect(i % 9, i % 7, i % 9 + 0.4, i % 7 + 0.4))
        splits = tracer.of_type("granule.split")
        assert splits, "fanout-4 inserts must split"
        for event in splits:
            assert {"old", "left", "right", "level", "txn"} <= set(event)
        grows = tracer.of_type("granule.grow")
        assert grows
        # old_mbr is None for the first entry of a fresh node
        assert all(isinstance(e["new_mbr"], list) for e in grows)
        # every insert span carries the §3.4 flag
        ends = [e for e in tracer.of_type("op.end") if e["kind"] == "insert"]
        assert len(ends) == 20
        assert all("changed_boundaries" in e for e in ends)

    def test_node_elimination_reinsert_traced(self):
        index, tracer, _ = _traced_index(max_entries=4)
        objects = random_objects(120, seed=3)
        with index.transaction() as txn:
            for oid, r in objects:
                index.insert(txn, oid, r)
        with index.transaction() as txn:
            for oid, r in objects[:100]:
                index.delete(txn, oid, r)
        tracer.clear()  # only the maintenance pass from here on
        assert index.vacuum() == 100
        assert tracer.of_type("vacuum.run")
        eliminations = tracer.of_type("granule.eliminate")
        assert eliminations, "deleting 100/120 at fanout 4 must eliminate nodes"
        assert all("page" in e for e in eliminations)
        reinserts = tracer.of_type("granule.reinsert")
        assert reinserts, "eliminated nodes must reinsert surviving entries"
        assert all("target_level" in e for e in reinserts)
        # §3.7 system transactions appear as spans too
        assert tracer.of_type("txn.begin")
        assert tracer.of_type("txn.commit")

    def test_detach_restores_and_disabled_tracing_changes_nothing(self):
        index, tracer, handle = _traced_index(max_entries=4)
        handle.detach()
        before = len(tracer.events)
        with index.transaction() as txn:
            index.insert(txn, "a", rect(0, 0, 1, 1))
        assert len(tracer.events) == before
        assert index.tracer is None
        assert index.protocol.obs_sink is None
        assert index.lock_manager.obs_sink is None

    def test_attach_chains_an_installed_obs_sink(self):
        index = PhantomProtectedRTree(RTreeConfig(universe=TEN, max_entries=4))
        seen = []
        installed = lambda event, **fields: seen.append(event)  # noqa: E731
        index.lock_manager.obs_sink = installed
        tracer = EventTracer(clock=lambda: 0.0)
        handle = instrument_index(index, tracer)
        with index.transaction() as txn:
            index.insert(txn, "a", rect(0, 0, 1, 1))
        traced = [e["type"] for e in tracer.events if e["type"].startswith("lock.")]
        assert traced and seen == traced
        handle.detach()
        assert index.lock_manager.obs_sink is installed

    def test_attach_chains_an_installed_protocol_sink(self):
        index = PhantomProtectedRTree(RTreeConfig(universe=TEN, max_entries=4))
        tracer = EventTracer(clock=lambda: 0.0)
        recorded_first = []

        def installed(event, **fields):
            if event == "op.phase":
                # the tracer's ring already holds this event
                recorded_first.append(tracer.events[-1]["tag"] == fields["tag"])
                if fields["tag"] == "insert.post":
                    raise RuntimeError("injected")

        index.protocol.obs_sink = installed
        handle = instrument_index(index, tracer)
        txn = index.begin()
        with pytest.raises(RuntimeError):
            index.insert(txn, "a", rect(0, 0, 1, 1))
        index.abort(txn)
        assert recorded_first and all(recorded_first)
        tags = [e["tag"] for e in tracer.of_type("op.phase")]
        assert tags[-1] == "insert.post"
        handle.detach()
        assert index.protocol.obs_sink is installed

    def test_buffer_miss_and_vacuum_enqueue_traced(self):
        index, tracer, _ = _traced_index(max_entries=4)
        with index.transaction() as txn:
            index.insert(txn, "a", rect(0, 0, 1, 1))
        with index.transaction() as txn:
            index.delete(txn, "a", rect(0, 0, 1, 1))
        assert tracer.of_type("vacuum.enqueue")
        misses = tracer.of_type("buffer.miss")  # capacity-less pool: all misses
        assert misses and all(set(e) == {"seq", "ts", "type", "page"} for e in misses)


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def _trace_of(self, tracer):
        buf = io.StringIO()
        tracer.dump_jsonl(buf)
        header, events, violations = load_jsonl(buf.getvalue().splitlines())
        assert violations == []
        return header, events

    def test_boundary_fraction_matches_ground_truth(self):
        index, tracer, _ = _traced_index(max_entries=4)
        changed = total = 0
        with index.transaction() as txn:
            for i in range(25):
                result = index.insert(txn, i, rect(i % 5, i % 7, i % 5 + 0.3, i % 7 + 0.3))
                total += 1
                changed += bool(result.changed_boundaries)
        report = analyze_events(*self._trace_of(tracer))
        bc = report["boundary_changes"]
        assert bc["inserts"] == total
        assert bc["changed"] == changed
        assert bc["fraction"] == pytest.approx(changed / total)

    def test_stress_run_report_sections(self):
        from repro.stress.harness import StressConfig, run_stress

        tracer = EventTracer(meta={"seed": 3})
        result = run_stress(StressConfig(seed=3), tracer=tracer)
        assert result.ok, result.violations
        header, events = self._trace_of(tracer)
        report = analyze_events(header, events)
        # trace-derived §3.4 numbers agree with the harness's own counters
        # (the trace also sees the preload transaction's inserts)
        bc = report["boundary_changes"]
        assert bc["inserts"] == result.inserts + result.config.n_preload
        assert result.inserts > 0
        # the contentious sections are populated for a faulty schedule
        assert report["lock_waits"]["total"] > 0
        assert report["wait_timelines"]
        assert report["waits_for"]
        assert report["heatmap"][0]["wait_time"] >= report["heatmap"][-1]["wait_time"]
        for timeline in report["wait_timelines"].values():
            for row in timeline:
                assert row["outcome"] in ("granted", "aborted", "timed_out", "unresolved")
        # the harness exports the lock manager's waits and end-of-run I/O
        assert result.lock_waits > 0
        snap = result.stats_snapshot
        assert set(snap) == {"logical_reads", "physical_reads", "writes", "allocations", "frees"}
        assert snap["logical_reads"] >= snap["physical_reads"] > 0
        assert snap["writes"] > 0 and snap["allocations"] > 0
        text = format_report(report)
        assert "boundary-change fraction" in text
        assert "lock heatmap" in text

    def test_analyze_trace_file_roundtrip(self, tmp_path):
        index, tracer, _ = _traced_index(max_entries=4)
        with index.transaction() as txn:
            index.insert(txn, "a", rect(0, 0, 1, 1))
        path = tmp_path / "t.jsonl"
        tracer.dump_jsonl(str(path))
        report, violations = analyze_trace(str(path))
        assert violations == []
        assert report["schema"] == "dgl-trace-report/1"
        assert report["transactions"]["committed"] == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_record_then_analyze(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "trace.jsonl"
        assert main(["record", "--seed", "3", "--out", str(trace)]) == 0
        report_json = tmp_path / "report.json"
        assert main(["analyze", str(trace), "--json", str(report_json), "--quiet"]) == 0
        report = json.loads(report_json.read_text())
        assert report["schema"] == "dgl-trace-report/1"
        assert report["transactions"]["begun"] > 0

    def test_analyze_fails_on_schema_violation(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "meta": {}, "events": 1, "dropped": 0})
            + "\n"
            + json.dumps({"seq": 0, "ts": 0.0, "type": "wat.wat"})
            + "\n"
        )
        assert main(["analyze", str(bad), "--quiet"]) == 1
        assert "schema violation" in capsys.readouterr().err
