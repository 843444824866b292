"""Per-transaction critical-path forensics over a ``dgl-trace/1`` stream.

The contention profiler (:mod:`repro.obs.profiler`) answers "which
*resources* are hot"; this module answers the transaction-side question:
**where did this transaction's commit latency go, and who took it?**

Workers in the harness are synchronous -- a transaction that enqueues on
a lock is blocked until the wait resolves -- so a transaction's lifetime
decomposes exactly into *run* segments (it held the CPU) and *wait*
segments (it sat in a lock queue).  The analyzer walks the event stream
once, carving each transaction's ``txn.begin`` → ``txn.commit``/``abort``
window into those segments using the ``lock.enqueue`` /
``lock.grant``/``abort``/``timeout`` pairs, and attributes every wait
segment to the transactions holding the contended resource at enqueue
time (holders come from :class:`~repro.obs.model.LockReplay`, the same
replay the profiler and the auditor drive).

The report (schema ``dgl-critpath/1``) carries:

* per-transaction records -- total latency, run time, wait time, wait
  fraction, outcome, and the individual wait segments with their
  blockers -- sorted slowest-first;
* ``top_blockers`` -- transactions ranked by how much blocked time they
  inflicted on others (a wait with several holders splits its duration
  evenly between them, so attributed time is conserved);
* ``top_resources`` -- resources ranked by blocked time spent on them.

Deterministic: the report depends only on the event list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.model import WAIT_OUTCOMES, LockReplay
from repro.obs.tracer import load_jsonl

CRITPATH_SCHEMA = "dgl-critpath/1"


def analyze_critical_path(
    header: Dict[str, object],
    events: List[Dict[str, object]],
    top: int = 10,
) -> Dict[str, object]:
    """Build the critical-path report from parsed trace events.

    ``top`` bounds the listed transaction records and blocker/resource
    rankings; totals always cover everything.
    """
    replay = LockReplay()
    #: txn -> record under construction
    txns: Dict[object, Dict[str, object]] = {}
    order: List[object] = []  # first-seen order, for deterministic ties

    blocked_by: Dict[object, Dict[str, float]] = {}
    blocked_on: Dict[str, Dict[str, float]] = {}

    def _txn(txn: object) -> Dict[str, object]:
        record = txns.get(txn)
        if record is None:
            record = txns[txn] = {
                "txn": txn,
                "name": None,
                "begin": None,
                "end": None,
                "outcome": "open",
                "wait_time": 0.0,
                "segments": [],
                "ops": [],
            }
            order.append(txn)
        return record

    def _charge(table: Dict, key, wait: float, waits: int = 1) -> None:
        cell = table.setdefault(key, {"blocked_time": 0.0, "waits": 0})
        cell["blocked_time"] += wait
        cell["waits"] += waits

    op_spans: Dict[object, Dict[str, object]] = {}

    for event in events:
        etype = event["type"]
        ts = float(event.get("ts") or 0.0)
        txn = event.get("txn")

        if etype == "txn.begin":
            record = _txn(txn)
            record["begin"] = ts
            record["name"] = event.get("name")
        elif etype in ("txn.commit", "txn.abort"):
            record = _txn(txn)
            record["end"] = ts
            record["outcome"] = "committed" if etype == "txn.commit" else "aborted"

        elif etype == "op.begin":
            op_spans[event.get("op")] = event
        elif etype == "op.end":
            begin = op_spans.pop(event.get("op"), None)
            if begin is not None:
                _txn(txn)["ops"].append(
                    {
                        "kind": event.get("kind"),
                        "ok": bool(event.get("ok")),
                        "start": float(begin.get("ts") or 0.0),
                        "duration": round(ts - float(begin.get("ts") or 0.0), 6),
                        "waits": int(event.get("waits") or 0),
                        "restarts": int(event.get("restarts") or 0),
                    }
                )

        elif etype in WAIT_OUTCOMES:
            resource = str(event.get("resource"))
            opened = replay.apply(event)
            if opened is not None:
                start = float(opened.start or 0.0)
                wait = ts - start
                segment = dict(
                    resource=resource, mode=opened.mode, start=start, holders=opened.holders,
                    end=ts, wait=round(wait, 6), outcome=WAIT_OUTCOMES[etype],
                )
                record = _txn(txn)
                record["wait_time"] += wait
                record["segments"].append(segment)
                _charge(blocked_on, resource, wait)
                if segment["holders"]:
                    share = wait / len(segment["holders"])
                    for holder in segment["holders"]:
                        _charge(blocked_by, holder, share)
                else:
                    # blocked behind the queue, not a holder (fairness
                    # ordering): charge the queue pseudo-blocker
                    _charge(blocked_by, "(queue)", wait)
        elif etype.startswith("lock."):
            replay.apply(event)

    # Close out: waits never resolved (truncated trace), open transactions.
    for (txn, resource), opened in replay.waits.items():
        _txn(txn)["segments"].append(dict(
            resource=resource, mode=opened.mode, start=float(opened.start or 0.0),
            holders=opened.holders, end=None, wait=None, outcome="unresolved",
        ))

    records: List[Dict[str, object]] = []
    for txn in order:
        record = txns[txn]
        begin, end = record["begin"], record["end"]
        total = (end - begin) if (begin is not None and end is not None) else None
        wait = record["wait_time"]
        record["total"] = round(total, 6) if total is not None else None
        record["wait_time"] = round(wait, 6)
        record["run_time"] = (
            round(max(0.0, total - wait), 6) if total is not None else None
        )
        record["wait_fraction"] = (
            round(wait / total, 6) if total else 0.0
        )
        record["segments"].sort(key=lambda s: s["start"])
        records.append(record)

    records.sort(
        key=lambda r: (-(r["total"] if r["total"] is not None else -1.0), str(r["txn"]))
    )

    def _ranked(table: Dict) -> List[Dict[str, object]]:
        rows = [
            {"who": key, "blocked_time": round(cell["blocked_time"], 6),
             "waits": cell["waits"]}
            for key, cell in table.items()
        ]
        rows.sort(key=lambda r: (-r["blocked_time"], -r["waits"], str(r["who"])))
        return rows[:top]

    total_wait = sum(r["wait_time"] for r in records)
    closed = [r for r in records if r["total"] is not None]
    return {
        "schema": CRITPATH_SCHEMA,
        "source": {
            "events": len(events),
            "dropped": int(header.get("dropped") or 0),
            "meta": header.get("meta") or {},
        },
        "truncated": bool(int(header.get("dropped") or 0)),
        "transactions": {
            "count": len(records),
            "closed": len(closed),
            "total_wait_time": round(total_wait, 6),
            "mean_wait_fraction": round(
                sum(r["wait_fraction"] for r in closed) / len(closed), 6
            )
            if closed
            else 0.0,
        },
        "critical_paths": records[:top],
        "paths_truncated": max(0, len(records) - top),
        "top_blockers": _ranked(blocked_by),
        "top_resources": _ranked(blocked_on),
    }


def critical_path_from_trace(
    path: str, top: int = 10
) -> Tuple[Optional[Dict[str, object]], List[str]]:
    """Load + validate + analyze one trace file (CLI entry)."""
    header, events, violations = load_jsonl(path)
    if not header:
        return None, violations
    return analyze_critical_path(header, events, top=top), violations


def format_critical_path(report: Dict[str, object], max_segments: int = 5) -> str:
    """Terminal rendering of a ``dgl-critpath/1`` report."""
    lines: List[str] = []
    t = report["transactions"]
    lines.append(
        f"critical paths: {t['count']} transaction(s), "
        f"total wait {t['total_wait_time']}, "
        f"mean wait fraction {t['mean_wait_fraction']:.3f}"
        + (" [truncated trace]" if report["truncated"] else "")
    )
    for record in report["critical_paths"]:
        total = record["total"]
        header = (
            f"  {record['txn']!r:<12} {record['outcome']:<10} "
            f"total={total if total is not None else '?':<9} "
            f"run={record['run_time'] if record['run_time'] is not None else '?':<9} "
            f"wait={record['wait_time']:<9} "
            f"({record['wait_fraction']:.1%} waiting)"
        )
        lines.append(header)
        for segment in record["segments"][:max_segments]:
            holders = ",".join(segment["holders"]) or "(queue)"
            lines.append(
                f"      wait {segment['wait']} on {segment['resource']} "
                f"[{segment['mode']}] -> {segment['outcome']}, "
                f"blocked by {holders}"
            )
        hidden = len(record["segments"]) - max_segments
        if hidden > 0:
            lines.append(f"      ... {hidden} further wait segment(s)")
    if report["paths_truncated"]:
        lines.append(f"  ... {report['paths_truncated']} faster transaction(s) omitted")
    if report["top_blockers"]:
        lines.append("top blockers (attributed blocked time):")
        for row in report["top_blockers"]:
            lines.append(
                f"  {row['who']!s:<12} blocked_time={row['blocked_time']:<10} "
                f"waits={row['waits']}"
            )
    if report["top_resources"]:
        lines.append("top contended resources:")
        for row in report["top_resources"]:
            lines.append(
                f"  {row['who']:<16} blocked_time={row['blocked_time']:<10} "
                f"waits={row['waits']}"
            )
    return "\n".join(lines)
