"""The online protocol auditor: streaming Table-3 conformance checking.

Where the stress oracle (:mod:`repro.stress.oracle`) re-examines a run's
history and final state *after* it completes, the auditor checks the
``dgl-trace/1`` event stream *as it is emitted*; it is the one place
Table 3's lock patterns are checked, and every stress run carries it.
Attach it as a sink on the tracer (``tracer.add_sink(auditor.on_event)``)
and every event is validated against the protocol's invariants the
moment it happens.  The rules, in
the order a failing event trips them:

``wait-discipline``
    Every ``lock.grant`` / ``lock.abort`` / ``lock.timeout`` must close a
    matching ``lock.enqueue`` (same transaction, resource, mode), and a
    transaction never has two open waits on one resource.
``release-unheld``
    ``lock.release`` may only release a lock unit the transaction holds;
    every ``(resource, mode)`` a ``lock.end_op`` claims to drop must be a
    held short-duration unit.
``2pl``
    Commit-duration locks are strict two-phase: they are never released
    before ``lock.release_all``, no lock survives ``release_all``, and a
    terminated transaction acquires nothing further.
``short-outlives-op``
    Table 3's short-duration fences die with their operation: a
    transaction entering a new operation span (or reaching
    ``release_all``) while still holding short-duration locks leaked a
    fence.
``pattern``
    Every lock *request* (immediate acquire, conditional denial, or
    enqueue) inside an operation span must be a
    ``(namespace, mode, duration)`` triple Table 3 allows for that span's
    kind -- checked against :data:`repro.core.protocol.TABLE3_ALLOWED`,
    the same table the protocol implements.
    Locks requested outside any span are allowed only for §3.7 vacuum
    system transactions (the ``physical_delete`` row).
``first-touch``
    An operation that takes one object (``insert``, ``delete``,
    ``read_single``, ``update_single``) and ends ``ok`` having found it
    must, at ``op.end``, hold a lock on ``obj:<oid>`` whose mode covers
    the one :data:`repro.core.protocol.TABLE3_REQUIRED_OBJ_MODE` names
    for its kind (S for reads, X for writes); a lock the transaction took
    in an earlier operation counts.  ``pattern`` only bounds what a span
    requests, so this is the rule that sees a lock the protocol forgot.
``fence``
    The §3.3/§3.4 growth fences: when a granule's boundary grows, the
    growing transaction must at that moment hold a short SIX on the
    deformed external granule (level > 0) or a write-intent lock on the
    grown leaf (level 0), and -- for every grown node below the root --
    SIX on its parent's external granule, which the growth shrinks (the
    parent is the one on the operation's planned path, the event's
    ``parent`` field); a leaf split requires the §3.5 SIX on the
    pre-split granule.  This is the rule the paper's naive policy (§3.2)
    breaks -- a NAIVE-policy insert that moves boundaries trips it on the
    first ``granule.grow``.

The auditor is stateless about geometry -- it never touches the tree, the
lock manager, or any mutex -- so it is safe to run from the tracer's sink
position (which may be under the lock-manager mutex) and costs a few
dict operations per event.

Flight-recorder mode (:class:`FlightRecorder`) pairs the auditor with a
small bounded ring so it can stay attached during whole stress sweeps at
near-zero memory cost: the auditor sees *every* event as it is emitted
(sinks run before the ring overwrites), and on the first violation the
ring -- the last ``capacity`` events of context -- is dumped next to the
violation verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.protocol import TABLE3_ALLOWED, TABLE3_REQUIRED_OBJ_MODE
from repro.lock.modes import LockMode, covers
from repro.obs.model import WAIT_OUTCOMES, LockReplay, unit_of
from repro.obs.tracer import EventTracer

AUDIT_SCHEMA = "dgl-audit/1"

__all__ = ["AUDIT_SCHEMA", "AuditViolation", "ProtocolAuditor", "FlightRecorder"]

#: modes whose privileges include SIX (fence an external-granule deform)
_SIX_OR_STRONGER = ("SIX", "X")
#: modes carrying write intent on a leaf granule
_WRITE_INTENT = ("IX", "SIX", "X")


def _stringify_table(table) -> Dict[str, frozenset]:
    """Pre-compute Table 3 as string triples (events carry strings)."""
    return {
        kind: frozenset((ns, mode.value, dur.value) for ns, mode, dur in rows)
        for kind, rows in table.items()
    }


@dataclass(frozen=True)
class AuditViolation:
    """One auditor finding, anchored to the event that tripped it."""

    rule: str
    seq: int
    txn: object
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] seq {self.seq} txn {self.txn!r}: {self.detail}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "seq": self.seq,
            "txn": self.txn,
            "detail": self.detail,
        }


class ProtocolAuditor:
    """Streaming Table-3 / 2PL conformance checker over trace events.

    Feed it events via :meth:`on_event` (directly, or by attaching it as a
    tracer sink); read the result from :attr:`violations` /
    :meth:`verdict`.  ``max_violations`` bounds memory on a badly broken
    run -- further findings are counted, not stored.  ``on_violation``,
    when set, is called with each recorded violation as it is found (the
    flight recorder uses it for first-failure dumping).
    """

    def __init__(
        self,
        max_violations: int = 50,
        table=None,
        on_violation: Optional[Callable[[AuditViolation], None]] = None,
    ) -> None:
        self.max_violations = max_violations
        self.on_violation = on_violation
        if table is None:
            table = TABLE3_ALLOWED
        self._allowed = _stringify_table(table)
        #: kind -> (required object-lock mode, the modes covering it)
        self._first_touch = {
            kind: (needed.value, tuple(m.value for m in LockMode if covers(m, needed)))
            for kind, needed in TABLE3_REQUIRED_OBJ_MODE.items()
        }
        self.violations: List[AuditViolation] = []
        self.suppressed = 0  # findings beyond max_violations
        self.events_seen = 0
        self.locks_checked = 0
        #: who holds and who waits for what (the replay the profiler and
        #: critical-path forensics drive too)
        self.locks = LockReplay()
        #: txn -> open operation span {"op", "kind", "oid"}
        self._ops: Dict[object, Dict[str, object]] = {}
        self._names: Dict[object, object] = {}
        self._ended: Set[object] = set()
        self._aborted: Set[object] = set()

    # -- outcome -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations and not self.suppressed

    def verdict(self) -> Dict[str, object]:
        """The audit verdict document (schema ``dgl-audit/1``)."""
        return {
            "schema": AUDIT_SCHEMA,
            "clean": self.ok,
            "events": self.events_seen,
            "locks_checked": self.locks_checked,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed_violations": self.suppressed,
            "open_waits": len(self.locks.waits),
            "open_operations": len(self._ops),
        }

    def _flag(self, rule: str, event: Dict[str, object], detail: str) -> None:
        if len(self.violations) >= self.max_violations:
            self.suppressed += 1
            return
        violation = AuditViolation(
            rule, int(event.get("seq", -1)), event.get("txn"), detail
        )
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)

    # -- Table 3 pattern -----------------------------------------------

    def _check_pattern(self, event: Dict[str, object]) -> None:
        txn = event.get("txn")
        resource, mode, duration = unit_of(event)
        self.locks_checked += 1
        span = self._ops.get(txn)
        if span is not None:
            kind = str(span["kind"])
        else:
            name = self._names.get(txn)
            if name is None:
                return  # transaction predates attachment: cannot classify
            if isinstance(name, str) and name.startswith("vacuum-"):
                kind = "physical_delete"
            else:
                self._flag(
                    "pattern",
                    event,
                    f"lock request ({resource}, {mode}, {duration}) outside "
                    f"any operation span",
                )
                return
        allowed = self._allowed.get(kind)
        if allowed is None:
            self._flag("pattern", event, f"unknown operation kind {kind!r}")
            return
        namespace = resource.split(":", 1)[0]
        if (namespace, mode, duration) not in allowed:
            self._flag(
                "pattern",
                event,
                f"({namespace}, {mode}, {duration}) on {resource} is outside "
                f"the Table 3 row for {kind}",
            )

    # -- Table 3 first touch -------------------------------------------

    def _check_first_touch(self, event: Dict[str, object], span: Dict[str, object]) -> None:
        rule = self._first_touch.get(str(span["kind"]))
        if rule is None or span["oid"] is None:
            return
        needed, covering = rule
        resource = f"obj:{span['oid']}"
        if not self.locks.holds(event.get("txn"), resource, covering):
            self._flag(
                "first-touch",
                event,
                f"{span['kind']} found {resource} without holding a covering "
                f"{needed} lock on it",
            )

    # -- event dispatch ------------------------------------------------

    def on_event(self, event: Dict[str, object]) -> None:
        """Check one trace event (tracer-sink compatible)."""
        self.events_seen += 1
        etype = event.get("type")
        txn = event.get("txn")
        locks = self.locks

        if etype == "lock.acquire":
            self._check_pattern(event)
            locks.apply(event)
            if event.get("granted"):
                resource, mode, duration = unit = unit_of(event)
                if txn in self._ended:
                    self._flag(
                        "2pl",
                        event,
                        f"lock acquired on {resource} after release_all",
                    )
                # The grant event already accounted a waited hold; verify it.
                if event.get("waited") and unit not in locks.held.get(txn, {}):
                    self._flag(
                        "wait-discipline",
                        event,
                        f"waited acquire of ({mode}, {duration}) on "
                        f"{resource} has no preceding grant",
                    )

        elif etype == "lock.enqueue":
            self._check_pattern(event)
            resource = str(event.get("resource"))
            if (txn, resource) in locks.waits:
                self._flag(
                    "wait-discipline",
                    event,
                    f"enqueue on {resource} while an earlier wait on it is "
                    f"still open",
                )
            locks.apply(event)

        elif etype in WAIT_OUTCOMES:
            resource, mode, duration = unit_of(event)
            wait = locks.apply(event)
            if wait is None:
                self._flag(
                    "wait-discipline",
                    event,
                    f"{etype} of ({mode}, {duration}) on {resource} without "
                    f"an open enqueue",
                )
            elif (wait.mode, wait.duration) != (mode, duration):
                self._flag(
                    "wait-discipline",
                    event,
                    f"{etype} of ({mode}, {duration}) on {resource} but the "
                    f"open wait asked for {(wait.mode, wait.duration)}",
                )
            if etype == "lock.grant" and txn in self._ended:
                self._flag(
                    "2pl",
                    event,
                    f"lock granted on {resource} after release_all",
                )

        elif etype == "lock.release":
            resource, mode, duration = unit_of(event)
            if duration == "commit":
                self._flag(
                    "2pl",
                    event,
                    f"commit-duration ({mode}) lock on {resource} released "
                    f"before transaction end",
                )
            if not locks.apply(event):
                self._flag(
                    "release-unheld",
                    event,
                    f"release of ({mode}, {duration}) on {resource} not "
                    f"backed by a held unit",
                )

        elif etype == "lock.end_op":
            for resource, mode in locks.apply(event):
                self._flag(
                    "release-unheld",
                    event,
                    f"end_op drops short ({mode}) on {resource} not "
                    f"backed by a held unit",
                )

        elif etype == "lock.release_all":
            # An aborted transaction (txn.abort precedes its release_all)
            # may die mid-operation -- e.g. a vacuum system transaction
            # picked as a deadlock victim while holding its §3.7 fences --
            # and release_all is exactly the sweep that reclaims them.
            # Only a *non-aborted* transaction carrying shorts into
            # release_all leaked an operation fence.
            shorts = locks.shorts(txn)
            if shorts and txn not in self._aborted:
                self._flag(
                    "short-outlives-op",
                    event,
                    f"{len(shorts)} short-duration lock(s) still held at "
                    f"release_all (first: {shorts[0][:2]})",
                )
            stale = locks.apply(event)
            if stale:
                self._flag(
                    "wait-discipline",
                    event,
                    f"{stale} wait(s) still open at release_all",
                )
            self._ended.add(txn)

        elif etype == "op.begin":
            if txn in self._ops:
                self._flag(
                    "span",
                    event,
                    f"op.begin ({event.get('kind')}) while span "
                    f"{self._ops[txn].get('op')} is still open",
                )
            shorts = locks.shorts(txn)
            if shorts:
                self._flag(
                    "short-outlives-op",
                    event,
                    f"entering a new operation with {len(shorts)} short "
                    f"lock(s) still held (first: {shorts[0][:2]})",
                )
            self._ops[txn] = {
                "op": event.get("op"),
                "kind": event.get("kind"),
                "oid": event.get("oid"),
            }

        elif etype == "op.end":
            span = self._ops.pop(txn, None)
            if span is None:
                self._flag("span", event, "op.end without a matching op.begin")
            elif event.get("ok") and event.get("found"):
                self._check_first_touch(event, span)

        elif etype == "txn.begin":
            self._names[txn] = event.get("name")

        elif etype == "txn.commit":
            # commit order is release_all -> txn.commit, so anything still
            # "held" here escaped the release sweep
            leftover = locks.held.get(txn)
            if leftover:
                self._flag(
                    "2pl",
                    event,
                    f"{sum(leftover.values())} lock unit(s) survive {etype} "
                    f"(first: {next(iter(leftover))})",
                )

        elif etype == "txn.abort":
            # abort order is txn.abort -> release_all: locks are still
            # legitimately held at this event, so no leftover check here
            self._aborted.add(txn)

        elif etype == "granule.grow":
            if event.get("grew"):
                level = int(event.get("level") or 0)
                page = event.get("page")
                parent = event.get("parent")
                if parent is not None and not locks.holds(
                    txn, f"ext:{parent}", _SIX_OR_STRONGER
                ):
                    self._flag(
                        "fence",
                        event,
                        f"{'leaf' if level == 0 else 'node'} {page} grew inside "
                        f"ext:{parent} without the grower holding SIX on it "
                        f"(§3.3 fence)",
                    )
                if level > 0:
                    if not locks.holds(txn, f"ext:{page}", _SIX_OR_STRONGER):
                        self._flag(
                            "fence",
                            event,
                            f"external granule ext:{page} grew without the "
                            f"grower holding SIX on it (§3.3 fence)",
                        )
                else:
                    if not locks.holds(txn, f"leaf:{page}", _WRITE_INTENT):
                        self._flag(
                            "fence",
                            event,
                            f"leaf granule leaf:{page} grew without the grower "
                            f"holding a write-intent lock on it",
                        )

        elif etype == "granule.split":
            if int(event.get("level") or 0) == 0:
                old = event.get("old")
                if not locks.holds(txn, f"leaf:{old}", _SIX_OR_STRONGER):
                    self._flag(
                        "fence",
                        event,
                        f"leaf:{old} split without the splitter holding the "
                        f"§3.5 SIX on the pre-split granule",
                    )

    def replay(self, events) -> "ProtocolAuditor":
        """Feed a whole (already recorded) event list through the auditor."""
        for event in events:
            self.on_event(event)
        return self

    def __repr__(self) -> str:
        state = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return f"ProtocolAuditor({self.events_seen} events, {state})"


def format_verdict(verdict: Dict[str, object], max_rows: int = 20) -> str:
    """Terminal rendering of a ``dgl-audit/1`` verdict."""
    lines = [
        f"audit: {'CLEAN' if verdict['clean'] else 'VIOLATIONS FOUND'} "
        f"({verdict['events']} events, {verdict['locks_checked']} lock "
        f"requests checked)"
    ]
    for row in verdict["violations"][:max_rows]:
        lines.append(
            f"  [{row['rule']}] seq {row['seq']} txn {row['txn']!r}: {row['detail']}"
        )
    hidden = len(verdict["violations"]) - max_rows
    if hidden > 0:
        lines.append(f"  ... {hidden} further violation(s)")
    if verdict["suppressed_violations"]:
        lines.append(
            f"  ... {verdict['suppressed_violations']} violation(s) beyond "
            f"the recording cap"
        )
    return "\n".join(lines)


class FlightRecorder:
    """A bounded event ring plus the online auditor, as one attachable unit.

    Intended for standing deployment (the stress sweep runs every seed
    with one attached): the ring bounds memory, the auditor streams, and
    on the *first* violation the last ``capacity`` events plus the
    verdict-so-far are dumped to ``dump_path`` (when set), preserving the
    context that would otherwise be overwritten before anyone looked.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        meta: Optional[Dict[str, object]] = None,
        clock: Optional[Callable[[], float]] = None,
        dump_path: Optional[str] = None,
        max_violations: int = 50,
    ) -> None:
        self.tracer = EventTracer(capacity=capacity, clock=clock, meta=meta)
        self.auditor = ProtocolAuditor(
            max_violations=max_violations, on_violation=self._on_violation
        )
        self.tracer.add_sink(self.auditor.on_event)
        self.dump_path = dump_path
        self.dumped: Optional[str] = None
        self._handle = None

    @property
    def ok(self) -> bool:
        return self.auditor.ok

    def attach(self, index) -> "FlightRecorder":
        from repro.obs.instrument import instrument_index

        self._handle = instrument_index(index, self.tracer)
        return self

    def detach(self) -> None:
        if self._handle is not None:
            self._handle.detach()
            self._handle = None

    def _on_violation(self, violation: AuditViolation) -> None:
        if self.dump_path is not None and self.dumped is None:
            self.dump(self.dump_path)

    def dump(self, path: str) -> str:
        """Write the ring as a trace plus ``<path>.verdict.json``."""
        self.dumped = path
        self.tracer.dump_jsonl(path)
        verdict_path = path + ".verdict.json"
        with open(verdict_path, "w") as fh:
            json.dump(self.auditor.verdict(), fh, indent=2, default=str, sort_keys=True)
            fh.write("\n")
        return verdict_path

    def __repr__(self) -> str:
        return f"FlightRecorder({self.tracer!r}, {self.auditor!r})"
