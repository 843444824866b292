"""Unified observability for the DGL stack.

Producer side (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.tracer` -- the ring-buffered structured event tracer
  and the ``dgl-trace/1`` JSON-lines artifact format.

Counters are not kept here: page I/O is counted by
:class:`~repro.storage.stats.IOStats`, lock traffic by the
:class:`~repro.lock.manager.LockManager`.

Consumer side -- everything downstream of a trace:

* :mod:`repro.obs.model` -- the one lock replay (who holds, who waits
  for what) that the profiler, critical-path forensics and auditor drive;
* :mod:`repro.obs.profiler` -- the lock-contention profiler
  (``dgl-trace-report/1``): wait timelines, waits-for series, lock
  heatmap, latency percentiles, §3.4 boundary-change fraction;
* :mod:`repro.obs.auditor` -- the **online protocol auditor**: a tracer
  sink that checks Table 3 lock patterns, strict 2PL, short-lock
  lifetimes and the growth fences as events stream past, plus the
  flight-recorder deployment wrapper;
* :mod:`repro.obs.critical_path` -- per-transaction critical-path
  forensics (``dgl-critpath/1``): run/wait decomposition and blocker
  attribution;
* :mod:`repro.obs.diff` -- the report differ (``dgl-trace-diff/1``) with
  CI ``--fail-on`` gating;
* :mod:`repro.obs.render` -- the deterministic single-file HTML
  dashboard.

:func:`~repro.obs.instrument.instrument_index` wires a tracer into every
seam of a live :class:`~repro.core.index.PhantomProtectedRTree`; with no
tracer attached every seam costs one ``is not None`` test.
"""

from repro.obs.auditor import (
    AUDIT_SCHEMA,
    AuditViolation,
    FlightRecorder,
    ProtocolAuditor,
)
from repro.obs.critical_path import (
    CRITPATH_SCHEMA,
    analyze_critical_path,
    critical_path_from_trace,
    format_critical_path,
)
from repro.obs.diff import DIFF_SCHEMA, check_thresholds, diff_reports, load_report
from repro.obs.instrument import Instrumentation, instrument_index
from repro.obs.profiler import (
    REPORT_SCHEMA,
    analyze_events,
    analyze_trace,
    format_report,
)
from repro.obs.render import render_dashboard, render_from_trace
from repro.obs.tracer import EventTracer, TRACE_SCHEMA, load_jsonl

__all__ = [
    "EventTracer",
    "TRACE_SCHEMA",
    "REPORT_SCHEMA",
    "AUDIT_SCHEMA",
    "CRITPATH_SCHEMA",
    "DIFF_SCHEMA",
    "load_jsonl",
    "analyze_events",
    "analyze_trace",
    "format_report",
    "AuditViolation",
    "ProtocolAuditor",
    "FlightRecorder",
    "analyze_critical_path",
    "critical_path_from_trace",
    "format_critical_path",
    "diff_reports",
    "check_thresholds",
    "load_report",
    "render_dashboard",
    "render_from_trace",
    "Instrumentation",
    "instrument_index",
]
