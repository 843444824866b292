"""The lock-contention profiler: from a ``dgl-trace/1`` event stream to a
contention report.

The analyzer is a single ordered pass over the events that reconstructs:

* **per-resource wait timelines** -- every ``lock.enqueue`` matched with
  its ``lock.grant``/``lock.abort``/``lock.timeout``, giving (start, end,
  outcome, wait duration) per waiter per resource;
* **a waits-for time series** -- at each enqueue, the edge from the
  waiter to the transactions then holding the contended resource
  (holdings come from the shared :class:`~repro.obs.model.LockReplay`);
* **a lock heatmap** -- acquisitions, waits and accumulated wait time by
  resource (page / granule / object), sorted hottest-first;
* **per-operation latency percentiles** -- nearest-rank p50/p90/p99 over
  the ``op.begin``/``op.end`` spans, per operation kind;
* **the paper's §3.4 boundary-change fraction** -- the share of
  successful inserts whose ``op.end`` carries ``changed_boundaries`` --
  directly from trace events, no index access required.

Everything is deterministic: the report depends only on the event list.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.obs.model import WAIT_OUTCOMES, LockReplay
from repro.obs.tracer import load_jsonl

REPORT_SCHEMA = "dgl-trace-report/1"


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    The nearest-rank definition: the smallest value with at least
    ``q * n`` of the sample at or below it, i.e. index ``ceil(q * n)``
    (1-based).  ``math.ceil`` is exact where the old ``+ 0.999999``
    trick mis-rounded exact multiples (e.g. q=0.25 over 4 values).
    """
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _latency_summary(durations: List[float]) -> Dict[str, float]:
    ordered = sorted(durations)
    total = sum(ordered)
    return {
        "count": len(ordered),
        "sum": round(total, 6),
        "mean": round(total / len(ordered), 6) if ordered else 0.0,
        "p50": round(_percentile(ordered, 0.50), 6),
        "p90": round(_percentile(ordered, 0.90), 6),
        "p99": round(_percentile(ordered, 0.99), 6),
        "max": round(ordered[-1], 6) if ordered else 0.0,
    }


def analyze_events(
    header: Dict[str, object],
    events: List[Dict[str, object]],
    top: int = 20,
) -> Dict[str, object]:
    """Build the contention report from parsed trace events.

    ``top`` bounds the per-resource timeline and heatmap sections (the
    totals always cover every resource; only the listings are truncated,
    and the report says how many were dropped).
    """
    txns = {"begun": 0, "committed": 0, "aborted": 0}
    op_spans: Dict[object, Dict[str, object]] = {}
    op_stats: Dict[str, Dict[str, object]] = {}
    op_durations: Dict[str, List[float]] = {}
    inserts = 0
    boundary_changes = 0

    replay = LockReplay()
    timelines: Dict[str, List[Dict[str, object]]] = {}
    heat: Dict[str, Dict[str, float]] = {}
    waits_for: List[Dict[str, object]] = []
    wait_outcomes = {"granted": 0, "aborted": 0, "timed_out": 0, "unresolved": 0}
    wait_times: List[float] = []

    smo = {"grows": 0, "splits": 0, "eliminations": 0, "reinserts": 0}
    vacuum = {"enqueued": 0, "passes": 0, "attempts": 0, "processed": 0, "requeued": 0}
    buffer_misses = 0

    def _heat(resource: str) -> Dict[str, float]:
        cell = heat.get(resource)
        if cell is None:
            cell = heat[resource] = {"acquisitions": 0, "waits": 0, "wait_time": 0.0}
        return cell

    for event in events:
        etype = event["type"]
        ts = event.get("ts", 0.0)
        txn = event.get("txn")

        if etype == "txn.begin":
            txns["begun"] += 1
        elif etype == "txn.commit":
            txns["committed"] += 1
        elif etype == "txn.abort":
            txns["aborted"] += 1

        elif etype == "op.begin":
            op_spans[event.get("op")] = event
        elif etype == "op.end":
            kind = str(event.get("kind"))
            stats = op_stats.setdefault(
                kind, {"count": 0, "ok": 0, "failed": 0, "waits": 0, "restarts": 0}
            )
            stats["count"] += 1
            ok = bool(event.get("ok"))
            stats["ok" if ok else "failed"] += 1
            stats["waits"] += int(event.get("waits") or 0)
            stats["restarts"] += int(event.get("restarts") or 0)
            begin = op_spans.pop(event.get("op"), None)
            if begin is not None:
                op_durations.setdefault(kind, []).append(float(ts) - float(begin["ts"]))
            if kind == "insert" and ok:
                inserts += 1
                if event.get("changed_boundaries"):
                    boundary_changes += 1

        elif etype == "lock.acquire":
            # A grant that followed a wait is already counted by its
            # ``lock.grant`` event.
            replay.apply(event)
            if event.get("granted") and not event.get("waited"):
                _heat(str(event.get("resource")))["acquisitions"] += 1
        elif etype == "lock.enqueue":
            resource = str(event.get("resource"))
            _heat(resource)["waits"] += 1
            blocking = replay.apply(event).holders
            waits_for.append(
                {"ts": ts, "waiter": txn, "resource": resource, "holders": blocking}
            )
        elif etype in WAIT_OUTCOMES:
            resource = str(event.get("resource"))
            opened = replay.apply(event)
            outcome = WAIT_OUTCOMES[etype]
            wait_outcomes[outcome] += 1
            if etype == "lock.grant":
                _heat(resource)["acquisitions"] += 1
            if opened is not None:
                wait = float(ts) - float(opened.start)
                wait_times.append(wait)
                _heat(resource)["wait_time"] += wait
                timelines.setdefault(resource, []).append(dict(
                    txn=txn, mode=opened.mode, start=opened.start, holders=opened.holders,
                    end=ts, outcome=outcome, wait=round(wait, 6),
                ))
        elif etype in ("lock.release", "lock.end_op", "lock.release_all"):
            replay.apply(event)

        elif etype == "granule.grow":
            smo["grows"] += 1
        elif etype == "granule.split":
            smo["splits"] += 1
        elif etype == "granule.eliminate":
            smo["eliminations"] += 1
        elif etype == "granule.reinsert":
            smo["reinserts"] += 1

        elif etype == "vacuum.enqueue":
            vacuum["enqueued"] += 1
        elif etype == "vacuum.run":
            vacuum["passes"] += 1
            vacuum["attempts"] += int(event.get("attempts") or 0)
            vacuum["processed"] += int(event.get("processed") or 0)
            vacuum["requeued"] += int(event.get("requeued") or 0)

        elif etype == "buffer.miss":
            buffer_misses += 1

    # Waits still open when the trace ended (or truncated by the ring).
    for (txn, resource), opened in replay.waits.items():
        wait_outcomes["unresolved"] += 1
        timelines.setdefault(resource, []).append(dict(
            txn=txn, mode=opened.mode, start=opened.start, holders=opened.holders,
            end=None, outcome="unresolved", wait=None,
        ))

    by_wait_time = sorted(
        heat.items(), key=lambda kv: (-kv[1]["wait_time"], -kv[1]["waits"], kv[0])
    )
    heatmap = [
        {
            "resource": resource,
            "acquisitions": int(cell["acquisitions"]),
            "waits": int(cell["waits"]),
            "wait_time": round(cell["wait_time"], 6),
        }
        for resource, cell in by_wait_time[:top]
    ]
    hot_resources = [row["resource"] for row in heatmap if row["waits"]]

    dropped = int(header.get("dropped") or 0)
    return {
        "schema": REPORT_SCHEMA,
        "source": {
            "events": len(events),
            "dropped": dropped,
            "meta": header.get("meta") or {},
        },
        # A ring that wrapped lost the oldest events: every profile below
        # is computed from a truncated timeline and must say so.
        "truncated": bool(dropped),
        "transactions": txns,
        "operations": {
            kind: dict(stats, latency=_latency_summary(op_durations.get(kind, [])))
            for kind, stats in sorted(op_stats.items())
        },
        "boundary_changes": {
            "inserts": inserts,
            "changed": boundary_changes,
            "fraction": round(boundary_changes / inserts, 6) if inserts else 0.0,
        },
        "lock_waits": dict(
            wait_outcomes,
            total=sum(wait_outcomes.values()),
            wait_time=_latency_summary(wait_times),
        ),
        "wait_timelines": {
            resource: timelines[resource] for resource in hot_resources if resource in timelines
        },
        "waits_for": waits_for,
        "heatmap": heatmap,
        "heatmap_truncated": max(0, len(heat) - top),
        "smo": smo,
        "vacuum": vacuum,
        "buffer": {"misses": buffer_misses},
    }


def analyze_trace(
    path: str, top: int = 20
) -> Tuple[Optional[Dict[str, object]], List[str]]:
    """Load + validate + analyze one trace file.

    Returns ``(report, violations)``; the report is still produced when
    only non-fatal violations were found (``None`` only for an unreadable
    or headerless file), so a failing CI step can still show the partial
    analysis.
    """
    header, events, violations = load_jsonl(path)
    if not header:
        return None, violations
    return analyze_events(header, events, top=top), violations


def format_report(report: Dict[str, object], max_rows: int = 10) -> str:
    """A terminal-friendly rendering of the contention report."""
    lines: List[str] = []
    src = report["source"]
    lines.append(
        f"trace: {src['events']} events, {src['dropped']} dropped"
        + (f", meta={src['meta']}" if src["meta"] else "")
    )
    if report.get("truncated"):
        lines.append(
            "WARNING: trace truncated -- the ring dropped "
            f"{src['dropped']} event(s); the profile covers only the tail"
        )
    t = report["transactions"]
    lines.append(
        f"transactions: {t['begun']} begun, {t['committed']} committed, {t['aborted']} aborted"
    )
    bc = report["boundary_changes"]
    lines.append(
        f"boundary-change fraction (§3.4): {bc['changed']}/{bc['inserts']} inserts"
        f" = {bc['fraction']:.3f}"
    )
    lw = report["lock_waits"]
    lines.append(
        f"lock waits: {lw['total']} total ({lw['granted']} granted, "
        f"{lw['aborted']} aborted, {lw['timed_out']} timed out, "
        f"{lw['unresolved']} unresolved); "
        f"wait time p50={lw['wait_time']['p50']} p99={lw['wait_time']['p99']} "
        f"max={lw['wait_time']['max']}"
    )
    lines.append("per-operation latency:")
    for kind, stats in report["operations"].items():
        lat = stats["latency"]
        lines.append(
            f"  {kind:<16} n={stats['count']:<5} ok={stats['ok']:<5} "
            f"waits={stats['waits']:<4} restarts={stats['restarts']:<4} "
            f"p50={lat['p50']} p90={lat['p90']} p99={lat['p99']} max={lat['max']}"
        )
    lines.append("lock heatmap (hottest first):")
    for row in report["heatmap"][:max_rows]:
        lines.append(
            f"  {row['resource']:<16} acq={row['acquisitions']:<6} "
            f"waits={row['waits']:<4} wait_time={row['wait_time']}"
        )
    if report["heatmap_truncated"]:
        lines.append(f"  ... {report['heatmap_truncated']} cooler resource(s) omitted")
    smo, vac = report["smo"], report["vacuum"]
    lines.append(
        f"structure: {smo['grows']} grows, {smo['splits']} splits, "
        f"{smo['eliminations']} eliminations, {smo['reinserts']} reinserts"
    )
    lines.append(
        f"vacuum: {vac['passes']} passes, {vac['processed']} processed, "
        f"{vac['requeued']} requeued ({vac['enqueued']} enqueued)"
    )
    lines.append(f"buffer misses: {report['buffer']['misses']}")
    return "\n".join(lines)
