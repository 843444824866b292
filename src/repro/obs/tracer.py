"""The structured event tracer (schema ``dgl-trace/1``).

One :class:`EventTracer` collects a bounded ring of structured events --
plain dicts with ``seq``/``ts``/``type`` plus type-specific fields -- from
every instrumented seam of the DGL stack:

=====================  =====================================================
event type             emitted by / meaning
=====================  =====================================================
``txn.begin``          index: transaction started (``txn``, ``name``)
``txn.commit``         index: transaction committed
``txn.abort``          index: transaction aborted (``reason``)
``op.begin``           index: operation span opened (``op``, ``txn``,
                       ``kind``; ``oid`` for single-object kinds)
``op.end``             index: span closed (``ok``, ``waits``, ``restarts``,
                       ``changed_boundaries`` for inserts; ``found`` for
                       single-object kinds).  No duration field: the
                       span's time is the ``ts`` difference to its
                       ``op.begin``
``op.phase``           protocol yield point (``tag``, ``txn``, ``resource``
                       when the phase is a restart caused by a blocked
                       lock want)
``lock.acquire``       lock manager: a request decided without queuing
                       (``granted``/``waited`` flags, ``mode``,
                       ``duration``)
``lock.enqueue``       lock manager: a request started waiting
``lock.grant``         lock manager: a queued request was granted
``lock.abort``         lock manager: a queued request was aborted
                       (deadlock victim / terminated transaction)
``lock.timeout``       lock manager: a queued request timed out
``lock.release``       lock manager: one (resource, mode, duration) unit
                       released early (short-lock release path)
``lock.end_op``        lock manager: an operation's short locks dropped
                       (``resources`` lists what was released)
``lock.release_all``   lock manager: commit/rollback released everything
``granule.grow``       protocol: a granule's boundary moved (§3.4)
                       (``page``, ``level``, ``grew``, ``old_mbr``,
                       ``new_mbr``; ``parent``: the node's parent on the
                       operation's planned path, null for the root)
``granule.split``      protocol: a node split (``old``/``left``/``right``)
``granule.eliminate``  protocol: node elimination during deferred delete
``granule.reinsert``   protocol: an orphan entry re-inserted (§3.7)
``buffer.miss``        buffer pool: a page fetch missed (physical read)
``vacuum.enqueue``     deferred-delete queue: a tombstone enqueued
``vacuum.run``         deferred-delete queue: one maintenance pass summary
=====================  =====================================================

The ring (a ``deque(maxlen=...)``) bounds memory; overwritten events are
counted in :attr:`EventTracer.dropped` and declared in the artifact
header, so the analyzer knows when a timeline is truncated.  Emission is
append-only and lock-free under the GIL; the tracer never blocks, never
re-enters the lock manager, and is safe to call as the lock manager's
``obs_sink``, which runs under the manager mutex.

Disabled tracing costs the instrumented code exactly one attribute test
per seam (``if tracer is not None``, or ``if sink is not None`` on the
protocol's and the lock manager's ``obs_sink``).
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from typing import Callable, Deque, Dict, IO, Iterable, List, Optional, Union

TRACE_SCHEMA = "dgl-trace/1"

#: every event type the schema admits (the analyzer validates against it)
EVENT_TYPES = frozenset(
    {
        "txn.begin",
        "txn.commit",
        "txn.abort",
        "op.begin",
        "op.end",
        "op.phase",
        "lock.acquire",
        "lock.enqueue",
        "lock.grant",
        "lock.abort",
        "lock.timeout",
        "lock.release",
        "lock.end_op",
        "lock.release_all",
        "granule.grow",
        "granule.split",
        "granule.eliminate",
        "granule.reinsert",
        "buffer.miss",
        "vacuum.enqueue",
        "vacuum.run",
    }
)

#: required fields per event type, beyond the envelope (seq, ts, type)
REQUIRED_FIELDS: Dict[str, tuple] = {
    "txn.begin": ("txn",),
    "txn.commit": ("txn",),
    "txn.abort": ("txn",),
    "op.begin": ("op", "txn", "kind"),
    "op.end": ("op", "txn", "kind", "ok"),
    "op.phase": ("txn", "tag"),
    "lock.acquire": ("txn", "resource", "mode", "granted"),
    "lock.enqueue": ("txn", "resource", "mode"),
    "lock.grant": ("txn", "resource", "mode"),
    "lock.abort": ("txn", "resource", "mode"),
    "lock.timeout": ("txn", "resource", "mode"),
    "lock.release": ("txn", "resource", "mode"),
    "lock.end_op": ("txn",),
    "lock.release_all": ("txn",),
    "granule.grow": ("txn", "page", "level"),
    "granule.split": ("txn", "old", "left", "right", "level"),
    "granule.eliminate": ("txn", "page"),
    "granule.reinsert": ("txn", "target_level"),
    "buffer.miss": ("page",),
    "vacuum.enqueue": ("oid",),
    "vacuum.run": ("attempts", "processed", "requeued"),
}

DEFAULT_CAPACITY = 65536


class EventTracer:
    """A bounded, append-only structured event buffer.

    ``clock`` supplies timestamps; pass the simulator clock for fully
    deterministic traces, or leave the default monotonic wall clock for
    production use.  ``meta`` is carried verbatim into the artifact
    header (seed, policy, workload parameters...).
    """

    __slots__ = ("clock", "capacity", "events", "dropped", "meta", "sinks", "_seq")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self.capacity = capacity
        self.events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.dropped = 0
        self.meta: Dict[str, object] = dict(meta or {})
        #: streaming consumers (the online auditor): each is called with
        #: the completed event dict, synchronously, *before* the ring can
        #: overwrite it -- a sink therefore sees every event even when the
        #: ring wraps.  Sinks must only record, never block or re-enter
        #: the lock manager (they may run under the manager mutex).
        self.sinks: List[Callable[[Dict[str, object]], None]] = []
        self._seq = itertools.count()

    # -- emission ------------------------------------------------------

    def emit(self, type_: str, **fields) -> None:
        """Append one event.  Never blocks, never raises on a full ring."""
        event: Dict[str, object] = {
            "seq": next(self._seq),
            "ts": self.clock(),
            "type": type_,
        }
        event.update(fields)
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)
        for sink in self.sinks:
            sink(event)

    def add_sink(self, sink: Callable[[Dict[str, object]], None]) -> None:
        """Attach a streaming consumer (see :attr:`sinks`)."""
        self.sinks.append(sink)

    def next_span_id(self) -> int:
        """A fresh id for correlating ``op.begin``/``op.end`` pairs."""
        return next(self._seq)

    # -- access / serialisation ----------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def of_type(self, type_: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e["type"] == type_]

    def header(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "meta": dict(self.meta),
            "events": len(self.events),
            "dropped": self.dropped,
        }

    def dump_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write the header line plus one JSON object per event.

        Returns the number of event lines written.
        """
        if isinstance(path_or_file, str):
            with open(path_or_file, "w") as fh:
                return self.dump_jsonl(fh)
        fh = path_or_file
        fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
        n = 0
        for event in self.events:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
            n += 1
        return n

    def __repr__(self) -> str:
        return (
            f"EventTracer(events={len(self.events)}/{self.capacity}, "
            f"dropped={self.dropped})"
        )


def load_jsonl(path_or_lines: Union[str, Iterable[str]]):
    """Parse a ``dgl-trace/1`` JSONL artifact.

    Returns ``(header, events, violations)``: schema problems are
    collected as human-readable strings rather than raised, so the CLI
    can report every violation in one pass.  A missing/foreign header or
    an unparseable line is a violation; unknown event types and missing
    required fields are violations; duplicate ``seq`` values are
    violations (they would alias span correlations).
    """
    if isinstance(path_or_lines, str):
        with open(path_or_lines) as fh:
            return load_jsonl(list(fh))
    violations: List[str] = []
    events: List[Dict[str, object]] = []
    header: Dict[str, object] = {}
    seen_seq = set()
    for lineno, line in enumerate(path_or_lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            violations.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            violations.append(f"line {lineno}: not a JSON object")
            continue
        if lineno == 1:
            if record.get("schema") != TRACE_SCHEMA:
                violations.append(
                    f"line 1: header schema {record.get('schema')!r} "
                    f"(expected {TRACE_SCHEMA!r})"
                )
            header = record
            continue
        etype = record.get("type")
        if not isinstance(etype, str) or etype not in EVENT_TYPES:
            violations.append(f"line {lineno}: unknown event type {etype!r}")
            continue
        seq = record.get("seq")
        if not isinstance(seq, int):
            violations.append(f"line {lineno}: missing/invalid seq {seq!r}")
        elif seq in seen_seq:
            violations.append(f"line {lineno}: duplicate seq {seq}")
        else:
            seen_seq.add(seq)
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            violations.append(f"line {lineno}: missing/invalid ts {ts!r}")
        for fieldname in REQUIRED_FIELDS.get(etype, ()):
            if fieldname not in record:
                violations.append(
                    f"line {lineno}: {etype} event missing field {fieldname!r}"
                )
        events.append(record)
    if not header:
        violations.append("empty trace: no header line")
    return header, events, violations
