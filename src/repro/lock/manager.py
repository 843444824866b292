"""The lock manager.

Implements granted groups, FIFO wait queues with conversion priority,
conditional/unconditional requests, short/commit durations, waits-for
deadlock detection, and one observation seam, ``obs_sink``, that reports
every lock decision (see :mod:`repro.obs`).

One function, :func:`_blockers`, is the grant rule.  It lists the
transactions a request waits for: every holder whose mode conflicts;
for a conversion nothing else; for a plain request also every
incompatible request ahead of it and, when nothing else stops it, the
first plain request ahead (the FIFO barrier).  A request is granted iff
that list is empty, and the list is exactly its waits-for edges, so a
new request, a queue wake-up, the deadlock graph and
``has_conflicting_holder`` cannot disagree about who waits for whom.
A lock set is one call, :meth:`LockManager.take`: in one mutex hold it
skips each want a held unit covers (:meth:`_Held.covers`, the one
covering rule, which ``holds_covering`` asks too), grants each
grantable one and stops at the first refusal.

Concurrency model: one lock table behind one re-entrant mutex.  The
mutex guards every resource's granted group and wait queue, the
per-transaction maps and the counters; a condition variable
on it serves threaded waits.  Deadlock detection runs inside
``acquire`` with the mutex still held, so the waits-for graph is always
a consistent snapshot of the whole table.

Every order that decides who wakes first, or which deadlock victim
dies, is canonical and process-independent: ``release_all`` and
``end_operation`` process queues in ``_resource_order``, the
deadlock sweep and the waits-for graph visit the resources with
waiters, in first-lock order, and each waiter's edges keep blocker
order (holders in grant order, then the queue).  Replays and trace
artifacts are therefore byte-identical across interpreter invocations.

The manager indexes the heads whose wait queue is not empty, so the
deadlock sweep, a victim's wake-up pass and ``waiting_requests`` cost
in proportion to the resources somebody waits on, not to every resource
ever locked.

Waiting is delegated to a pluggable :class:`WaitStrategy` so the same
manager serves three execution modes -- single-threaded (waits are
errors), real threads (condition variables), and the discrete-event
simulator (the strategy parks the simulated process and the scheduler
resumes it when the grant happens).
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Collection, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.lock.modes import MODE_NAME, LockDuration, LockMode, compatible, covers, supremum
from repro.lock.resource import ResourceId


#: a total order over resources that no process's hash seed changes
_resource_order = attrgetter("sort_key")

TxnId = Hashable
#: one lock request: (resource, mode, duration)
Want = Tuple[ResourceId, LockMode, LockDuration]


class LockError(Exception):
    """Base class for lock-manager failures."""


class WouldBlock(LockError):
    """An unconditional wait was required but no wait strategy can block.

    Raised in single-threaded use, where a blocked lock request could
    never be granted (there is nobody to release it).
    """


class DeadlockError(LockError):
    """This transaction was chosen as a deadlock victim and must abort."""

    def __init__(self, txn_id: TxnId, cycle: Tuple[TxnId, ...]) -> None:
        super().__init__(f"transaction {txn_id!r} aborted to break deadlock cycle {cycle!r}")
        self.txn_id = txn_id
        self.cycle = cycle


class LockTimeout(LockError):
    """An unconditional request waited longer than its timeout."""


class RequestStatus(enum.Enum):
    """Lifecycle of a lock request."""

    GRANTED = "granted"
    WAITING = "waiting"
    DENIED = "denied"  # conditional request, not grantable
    ABORTED = "aborted"  # deadlock victim or external abort


@dataclass
class LockRequest:
    """One waiting (or decided) lock acquisition."""

    txn_id: TxnId
    resource: ResourceId
    mode: LockMode
    duration: LockDuration
    conversion: bool
    seq: int
    status: RequestStatus = RequestStatus.WAITING
    error: Optional[LockError] = None
    #: monotonic token set by a parked wait strategy while registered
    #: (see :mod:`repro.concurrency.waits`); ``None`` when not parked
    wait_token: Optional[int] = field(default=None, repr=False, compare=False)


class _Held:
    """A transaction's holdings on one resource: counts per (mode, duration).

    A granted entry is never empty: every path that empties one deletes it."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[Tuple[LockMode, LockDuration], int] = {}

    def add(self, mode: LockMode, duration: LockDuration) -> None:
        key = (mode, duration)
        self.counts[key] = self.counts.get(key, 0) + 1

    def remove(self, mode: LockMode, duration: LockDuration) -> None:
        key = (mode, duration)
        count = self.counts.get(key, 0)
        if count <= 0:
            raise LockError(f"release of unheld lock {mode!r}/{duration!r}")
        if count == 1:
            del self.counts[key]
        else:
            self.counts[key] = count - 1

    def drop_duration(self, duration: LockDuration) -> None:
        self.counts = {k: v for k, v in self.counts.items() if k[1] != duration}

    def covers(self, mode: LockMode, duration: LockDuration) -> bool:
        """Does one held unit already give ``mode`` for ``duration``?  Its
        mode must cover ``mode`` and it must last long enough: a commit
        unit serves either duration, a short unit only a short want.  Units
        are judged one by one, not by their supremum: S and IX held as two
        units do not cover a SIX want (the auditor's fence asks for one)."""
        short_ok = duration is LockDuration.SHORT
        for held_mode, held_duration in self.counts:
            if covers(held_mode, mode) and (short_ok or held_duration is LockDuration.COMMIT):
                return True
        return False

    def effective(self) -> LockMode:
        units = iter(self.counts)
        mode = next(units)[0]
        for held_mode, _duration in units:
            mode = supremum(mode, held_mode)
        return mode

    def effective_for(self, duration: LockDuration) -> Optional[LockMode]:
        mode: Optional[LockMode] = None
        for held_mode, held_duration in self.counts:
            if held_duration == duration:
                mode = held_mode if mode is None else supremum(mode, held_mode)
        return mode


class _LockHead:
    """Per-resource state: the granted group and the wait queue.

    ``seq`` numbers heads in creation order, which is the lock table's
    insertion order.  Heads hash by identity; any order read off a set of
    heads comes from sorting on ``seq``."""

    __slots__ = ("granted", "queue", "seq")

    def __init__(self, seq: int) -> None:
        self.granted: Dict[TxnId, _Held] = {}
        self.queue: List[LockRequest] = []
        self.seq = seq


#: sort key of a set of heads: creation order
_by_seq = attrgetter("seq")


class WaitStrategy:
    """How a transaction physically waits for a lock grant."""

    def wait(self, manager: "LockManager", request: LockRequest, timeout: Optional[float]) -> None:
        """Block until ``request.status`` leaves WAITING.  Called with the
        manager mutex *held*; implementations must release it while blocked."""
        raise NotImplementedError

    def notify(self, manager: "LockManager", request: LockRequest) -> None:
        """Called (mutex held) when ``request`` changes status."""
        raise NotImplementedError


class SingleThreadedWait(WaitStrategy):
    """No blocking possible: a required wait is a programming error."""

    def wait(self, manager: "LockManager", request: LockRequest, timeout: Optional[float]) -> None:
        raise WouldBlock(
            f"transaction {request.txn_id!r} must wait for {request.mode!r} on "
            f"{request.resource!r}, but execution is single-threaded"
        )

    def notify(self, manager: "LockManager", request: LockRequest) -> None:
        pass


class ThreadedWait(WaitStrategy):
    """Real blocking on the manager's condition variable (``_cond``)."""

    def wait(self, manager: "LockManager", request: LockRequest, timeout: Optional[float]) -> None:
        cond = manager._cond
        deadline = None if timeout is None else manager._clock() + timeout
        while request.status is RequestStatus.WAITING:
            remaining = None if deadline is None else max(0.0, deadline - manager._clock())
            if not cond.wait(timeout=remaining):
                manager._timeout_request(request)
                return

    def notify(self, manager: "LockManager", request: LockRequest) -> None:
        manager._cond.notify_all()


class LockManager:
    """See module docstring."""

    def __init__(
        self,
        wait_strategy: Optional[WaitStrategy] = None,
        obs_sink: Optional[Callable[..., None]] = None,
    ) -> None:
        self.wait_strategy: WaitStrategy = wait_strategy or ThreadedWait()
        #: observability sink (see :mod:`repro.obs`): called as
        #: ``sink(event_type, **fields)`` for every lock decision --
        #: ``lock.acquire``, ``lock.enqueue``/``grant``/``abort``/``timeout``
        #: for waits, and ``lock.release``/``end_op``/``release_all``.
        #: ``None`` (default) costs one attribute test per decision.  It
        #: runs under the manager mutex: record only, never block or
        #: re-enter the manager.
        self.obs_sink = obs_sink
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        #: resource -> granted group and wait queue, in first-lock order
        self._heads: Dict[ResourceId, _LockHead] = {}
        #: the heads whose wait queue is not empty (kept by ``_enqueue``
        #: and ``_dequeue``); visit them through ``_waiting_heads``
        self._waiting: Set[_LockHead] = set()
        #: requests currently sitting in some wait queue
        self._queued = 0
        #: txn -> list of (resource, mode) short-duration holds, release order
        self._short_holds: Dict[TxnId, List[Tuple[ResourceId, LockMode]]] = {}
        #: txn -> first-wait sequence number, for victim selection
        self._txn_order: Dict[TxnId, int] = {}
        #: txn -> resources it ever touched (granted or queued), so
        #: ``release_all`` visits only the heads that can hold its state
        self._txn_resources: Dict[TxnId, Set[ResourceId]] = {}
        self._seq = itertools.count()
        self._head_seq = itertools.count()
        #: granted acquisitions by mode name
        self.acquisition_counts: Dict[str, int] = {}
        #: how many requests have had to wait
        self.wait_count = 0
        self.deadlock_count = 0

    @staticmethod
    def _clock() -> float:
        import time

        return time.monotonic()

    # ------------------------------------------------------------------
    # acquisition and release
    # ------------------------------------------------------------------

    def acquire(
        self,
        txn_id: TxnId,
        resource: ResourceId,
        mode: LockMode,
        duration: LockDuration = LockDuration.COMMIT,
        conditional: bool = False,
        timeout: Optional[float] = None,
    ) -> bool:
        """Request ``mode`` on ``resource``.

        Returns ``True`` when granted.  A *conditional* request returns
        ``False`` instead of waiting.  An unconditional request blocks via
        the wait strategy and may raise :class:`DeadlockError` /
        :class:`LockTimeout`.
        """
        with self._mutex:
            head = self._heads.get(resource)
            if head is None:
                head = self._heads[resource] = _LockHead(next(self._head_seq))
            conversion = txn_id in head.granted

            if not _blockers(head, txn_id, mode, conversion, head.queue):
                self._grant(head, txn_id, resource, mode, duration)
                self._record(txn_id, resource, mode, duration, granted=True, waited=False)
                return True

            if conditional:
                self._record(txn_id, resource, mode, duration, granted=False, waited=False)
                return False

            # Victim selection needs a begin-ish order for every *waiting*
            # transaction; record it before the request becomes visible.
            if txn_id not in self._txn_order:
                self._txn_order[txn_id] = next(self._seq)
            self._txn_resources.setdefault(txn_id, set()).add(resource)
            request = LockRequest(
                txn_id=txn_id,
                resource=resource,
                mode=mode,
                duration=duration,
                conversion=conversion,
                seq=next(self._seq),
            )
            self._enqueue(head, request)
            self.wait_count += 1
            self._emit_wait("lock.enqueue", request)
            # A cycle needs at least two waiting requests (ours included),
            # so the common lone-waiter case skips the sweep entirely; any
            # later waiter that completes a cycle runs its own detection.
            if self._queued >= 2:
                self._resolve_deadlocks()
            if request.status is RequestStatus.WAITING:
                try:
                    self.wait_strategy.wait(self, request, timeout)
                except WouldBlock:
                    if request in head.queue:
                        self._dequeue(head, request)
                    raise

            if request.status is RequestStatus.GRANTED:
                self._record(txn_id, resource, mode, duration, granted=True, waited=True)
                return True
            if request.status is RequestStatus.ABORTED:
                assert request.error is not None
                raise request.error
            raise LockTimeout(
                f"transaction {txn_id!r} timed out waiting for {mode!r} on {resource!r}"
            )

    def take(self, txn_id: TxnId, wants: Iterable[Want]) -> Tuple[Optional[int], List[Want]]:
        """Take the lock set ``wants`` conditionally, in order, in one mutex
        hold: skip a want some held unit covers (:meth:`_Held.covers`),
        grant one that is grantable, stop at the first that is not.  Returns
        the refused index (``None`` if none) and the wants granted; events
        are those of ``acquire(conditional=True)``."""
        granted: List[Want] = []
        with self._mutex:
            heads = self._heads
            for idx, want in enumerate(wants):
                resource, mode, duration = want
                head = heads.get(resource)
                if head is None:
                    head = heads[resource] = _LockHead(next(self._head_seq))
                held = head.granted.get(txn_id)
                if held is not None and held.covers(mode, duration):
                    continue
                if _blockers(head, txn_id, mode, held is not None, head.queue):
                    self._record(txn_id, resource, mode, duration, granted=False, waited=False)
                    return idx, granted
                self._grant(head, txn_id, resource, mode, duration)
                self._record(txn_id, resource, mode, duration, granted=True, waited=False)
                granted.append(want)
        return None, granted

    def release(
        self,
        txn_id: TxnId,
        resource: ResourceId,
        mode: LockMode,
        duration: LockDuration,
    ) -> None:
        """Release one previously granted (mode, duration) unit."""
        with self._mutex:
            head = self._heads.get(resource)
            held = head.granted.get(txn_id) if head else None
            if held is None:
                raise LockError(f"{txn_id!r} holds nothing on {resource!r}")
            held.remove(mode, duration)
            if duration is LockDuration.SHORT:
                shorts = self._short_holds.get(txn_id, [])
                try:
                    shorts.remove((resource, mode))
                except ValueError:
                    pass
            if not held.counts:
                del head.granted[txn_id]
            self._process_queue(head)
            self._emit("lock.release", txn_id, resource, mode, duration)

    def end_operation(self, txn_id: TxnId) -> None:
        """Release every short-duration lock the transaction holds.

        The paper's short-duration locks exist only to fence one structure
        modification; the protocol layer calls this in a ``finally`` as
        each Insert/Delete/Scan operation completes.
        """
        with self._mutex:
            shorts = self._short_holds.pop(txn_id, [])
            if not shorts:
                return
            sink = self.obs_sink
            if sink is not None:
                sink(
                    "lock.end_op",
                    txn=txn_id,
                    resources=[[repr(resource), mode.value] for resource, mode in shorts],
                )
            touched: Set[ResourceId] = set()
            for resource, _mode in shorts:
                head = self._heads[resource]
                held = head.granted.get(txn_id)
                if held is None:
                    continue
                held.drop_duration(LockDuration.SHORT)
                if not held.counts:
                    del head.granted[txn_id]
                if head.queue:
                    # only a head with waiters has a grant to make
                    touched.add(resource)
            # Canonical order: set iteration is hash-randomised per
            # process, and the queue-processing order decides which
            # waiter wakes first -- sorting keeps replays (and trace
            # artifacts) identical across interpreter invocations.
            for resource in sorted(touched, key=_resource_order):
                self._process_queue(self._heads[resource])

    def release_all(self, txn_id: TxnId) -> None:
        """Release everything at commit/rollback; cancels pending waits."""
        with self._mutex:
            self._short_holds.pop(txn_id, None)
            touched: List[ResourceId] = []
            for resource in self._txn_resources.pop(txn_id, ()):
                head = self._heads[resource]
                head.granted.pop(txn_id, None)
                if head.queue:  # only a head with waiters has a grant to make
                    touched.append(resource)
            # Same canonical order as end_operation: the _txn_resources
            # sets iterate in per-process hash order otherwise.
            for resource in sorted(touched, key=_resource_order):
                head = self._heads[resource]
                for request in [r for r in head.queue if r.txn_id == txn_id]:
                    self._dequeue(head, request)
                    request.status = RequestStatus.ABORTED
                    request.error = LockError(f"transaction {txn_id!r} terminated")
                    self._emit_wait("lock.abort", request)
                    self.wait_strategy.notify(self, request)
                if head.queue:
                    self._process_queue(head)
            self._txn_order.pop(txn_id, None)
            sink = self.obs_sink
            if sink is not None:
                sink("lock.release_all", txn=txn_id)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def held_mode(self, txn_id: TxnId, resource: ResourceId) -> Optional[LockMode]:
        """The transaction's effective mode on ``resource`` (None if none)."""
        with self._mutex:
            head = self._heads.get(resource)
            held = head.granted.get(txn_id) if head else None
            return held.effective() if held else None

    def held_commit_mode(self, txn_id: TxnId, resource: ResourceId) -> Optional[LockMode]:
        """Effective mode counting only commit-duration holds.

        The protocol asks :meth:`holds_covering` instead; this stays for
        tests and because perfbench's layer profiler wraps it by name."""
        with self._mutex:
            head = self._heads.get(resource)
            held = head.granted.get(txn_id) if head else None
            return held.effective_for(LockDuration.COMMIT) if held else None

    def holds_covering(
        self, txn_id: TxnId, resource: ResourceId, mode: LockMode, duration: LockDuration
    ) -> bool:
        """Does one unit the transaction holds on ``resource`` already give
        it ``mode`` for ``duration``?  (:meth:`_Held.covers`, the rule
        :meth:`take` skips a covered want by.)"""
        with self._mutex:
            head = self._heads.get(resource)
            held = head.granted.get(txn_id) if head else None
            return held is not None and held.covers(mode, duration)

    def holders(self, resource: ResourceId) -> Dict[TxnId, LockMode]:
        """Current holders and their effective modes."""
        with self._mutex:
            head = self._heads.get(resource)
            if head is None:
                return {}
            return {txn: held.effective() for txn, held in head.granted.items()}

    def has_conflicting_holder(
        self, resource: ResourceId, mode: LockMode, ignore: Collection[TxnId] = ()
    ) -> bool:
        """Would ``mode`` conflict with any current holder (sans ``ignore``)?

        Used by the modified insertion policy's active-searcher check: an
        inserter only traverses an overlapping path when somebody actually
        holds a conflicting (S/SIX) lock there.
        """
        with self._mutex:
            head = self._heads.get(resource)
            return head is not None and any(
                other not in ignore for other in _blockers(head, None, mode, True, ())
            )

    def locks_of(self, txn_id: TxnId) -> Dict[ResourceId, Dict[Tuple[LockMode, LockDuration], int]]:
        """Everything the transaction currently holds (for tests/traces)."""
        out: Dict[ResourceId, Dict[Tuple[LockMode, LockDuration], int]] = {}
        with self._mutex:
            for resource, head in self._heads.items():
                held = head.granted.get(txn_id)
                if held is not None:
                    out[resource] = dict(held.counts)
        return out

    def waiting_requests(self) -> List[LockRequest]:
        """Every request currently queued, across all resources."""
        with self._mutex:
            return [r for head in self._waiting_heads() for r in head.queue]

    # ------------------------------------------------------------------
    # internals (manager mutex held)
    # ------------------------------------------------------------------

    def _grant(
        self,
        head: _LockHead,
        txn_id: TxnId,
        resource: ResourceId,
        mode: LockMode,
        duration: LockDuration,
    ) -> None:
        held = head.granted.get(txn_id)
        if held is None:
            held = head.granted[txn_id] = _Held()
        held.add(mode, duration)
        if duration is LockDuration.SHORT:
            shorts = self._short_holds.get(txn_id)
            if shorts is None:
                self._short_holds[txn_id] = [(resource, mode)]
            else:
                shorts.append((resource, mode))
        resources = self._txn_resources.get(txn_id)
        if resources is None:
            self._txn_resources[txn_id] = {resource}
        else:
            resources.add(resource)
        counts = self.acquisition_counts
        name = MODE_NAME[mode]
        counts[name] = counts.get(name, 0) + 1

    def _enqueue(self, head: _LockHead, request: LockRequest) -> None:
        if request.conversion:
            # Conversions queue ahead of non-conversions, FIFO among themselves.
            idx = 0
            while idx < len(head.queue) and head.queue[idx].conversion:
                idx += 1
            head.queue.insert(idx, request)
        else:
            head.queue.append(request)
        self._waiting.add(head)
        self._queued += 1

    def _dequeue(self, head: _LockHead, request: LockRequest) -> None:
        head.queue.remove(request)
        if not head.queue:
            self._waiting.discard(head)
        self._queued -= 1

    def _waiting_heads(self) -> List[_LockHead]:
        """The heads with waiters, in lock-table insertion order: what a
        walk over ``_heads`` visits with the idle heads left out."""
        return sorted(self._waiting, key=_by_seq)

    def _process_queue(self, head: _LockHead) -> None:
        """Grant every waiter that waits for nobody, in one pass in queue
        order: a grant only adds a holder, so it never frees an earlier
        waiter that the pass left queued."""
        ahead: List[LockRequest] = []
        for request in list(head.queue):
            if _blockers(head, request.txn_id, request.mode, request.conversion, ahead):
                ahead.append(request)
                continue
            self._dequeue(head, request)
            self._grant(head, request.txn_id, request.resource, request.mode, request.duration)
            request.status = RequestStatus.GRANTED
            self._emit_wait("lock.grant", request)
            self.wait_strategy.notify(self, request)

    # ------------------------------------------------------------------
    # deadlock handling
    # ------------------------------------------------------------------

    def build_waits_for(self) -> Dict[TxnId, List[TxnId]]:
        """The waits-for graph implied by the current queues."""
        with self._mutex:
            return self._waits_for_locked()

    def _waits_for_locked(self) -> Dict[TxnId, List[TxnId]]:
        """Each waiter's blockers, waiters in first-lock then queue order."""
        graph: Dict[TxnId, List[TxnId]] = {}
        for head in self._waiting_heads():
            queue = head.queue
            for idx, request in enumerate(queue):
                blockers = _blockers(head, request.txn_id, request.mode, request.conversion, queue[:idx])
                if blockers:
                    graph[request.txn_id] = blockers
        return graph

    def _resolve_deadlocks(self) -> None:
        """Abort the youngest participant of each cycle until the waits-for
        graph is acyclic."""
        while True:
            cycle = _find_cycle(self._waits_for_locked())
            if cycle is None:
                return
            self.deadlock_count += 1
            victim = max(cycle, key=lambda t: self._txn_order.get(t, -1))
            self._abort_waiter(victim, tuple(cycle))

    def _abort_waiter(self, victim: TxnId, cycle: Tuple[TxnId, ...]) -> None:
        """Cancel the victim's waits, then re-process every queue."""
        error = DeadlockError(victim, cycle)
        for head in self._waiting_heads():
            for request in list(head.queue):
                if request.txn_id == victim:
                    self._dequeue(head, request)
                    request.status = RequestStatus.ABORTED
                    request.error = error
                    self._emit_wait("lock.abort", request)
                    self.wait_strategy.notify(self, request)
        # Whatever queue the victim vacated may now be grantable.
        for head in self._waiting_heads():
            self._process_queue(head)

    def _timeout_request(self, request: LockRequest) -> None:
        head = self._heads.get(request.resource)
        if head is not None and request in head.queue:
            self._dequeue(head, request)
            self._process_queue(head)
        if request.status is RequestStatus.WAITING:
            request.status = RequestStatus.DENIED
            self._emit_wait("lock.timeout", request)

    # ------------------------------------------------------------------
    # introspection for the stress harness
    # ------------------------------------------------------------------

    def outstanding(self) -> Tuple[int, int]:
        """(granted holds, queued requests) across the whole table.

        After every transaction has terminated both numbers must be zero;
        the stress harness asserts this as a post-run invariant (a leaked
        hold means some release path missed a bookkeeping entry).  A head
        left in the waiter index with an empty queue counts as one queued
        entry, so the index must be empty too.
        """
        holds = 0
        queued = 0
        with self._mutex:
            for head in self._heads.values():
                holds += len(head.granted)
                queued += len(head.queue)
            queued += sum(1 for head in self._waiting if not head.queue)
        return holds, queued

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def _record(
        self,
        txn_id: TxnId,
        resource: ResourceId,
        mode: LockMode,
        duration: LockDuration,
        granted: bool,
        waited: bool,
    ) -> None:
        sink = self.obs_sink
        if sink is not None:
            sink(
                "lock.acquire",
                txn=txn_id,
                resource=repr(resource),
                mode=mode.value,
                duration=duration.value,
                granted=granted,
                waited=waited,
            )

    def _emit_wait(self, event: str, request: LockRequest) -> None:
        self._emit(event, request.txn_id, request.resource, request.mode, request.duration)

    def _emit(
        self, event: str, txn: TxnId, resource: ResourceId, mode: LockMode, duration: LockDuration
    ) -> None:
        sink = self.obs_sink
        if sink is not None:
            sink(event, txn=txn, resource=repr(resource), mode=mode.value, duration=duration.value)

    def total_acquisitions(self) -> int:
        """Locks granted since construction (any mode, any duration)."""
        return sum(self.acquisition_counts.values())


def _blockers(
    head: _LockHead, txn: TxnId, mode: LockMode, converting: bool, ahead: Collection[LockRequest]
) -> List[TxnId]:
    """The grant rule: whom ``txn``'s request for ``mode`` on ``head``
    waits for, in blocker order.  ``ahead`` is the queue in front of the
    request (the whole queue for a new one).

    Empty iff the request is granted.  Every conflicting holder blocks
    it; a conversion waits for nothing else (the holder already belongs
    to the granted group).  A plain request also waits for every
    incompatible request ahead of it and, when nothing else stops it,
    for the first plain request ahead: no plain request overtakes
    another (the FIFO barrier).
    """
    blockers = []
    for other, held in head.granted.items():
        if other != txn and not compatible(mode, held.effective()):
            blockers.append(other)
    if converting:
        return blockers
    for request in ahead:
        if not compatible(mode, request.mode) and request.txn_id not in blockers:
            blockers.append(request.txn_id)
    if not blockers and ahead:
        blockers = [request.txn_id for request in ahead if not request.conversion][:1]
    return blockers


def _find_cycle(graph: Dict[TxnId, List[TxnId]]) -> Optional[List[TxnId]]:
    """Return the transactions on the first cycle a depth-first walk of the
    waits-for graph meets, visiting nodes and edges in the graph's order."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[TxnId, int] = {node: WHITE for node in graph}
    parent: Dict[TxnId, Optional[TxnId]] = {}

    for start in graph:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[TxnId, Iterable[TxnId]]] = [(start, iter(graph.get(start, ())))]
        color[start] = GREY
        parent[start] = None
        while stack:
            node, edges = stack[-1]
            advanced = False
            for nxt in edges:
                if nxt not in graph:
                    continue
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
                if color.get(nxt) == GREY:
                    # Found a cycle: walk parents from node back to nxt.
                    cycle = [nxt, node]
                    walk = parent[node]
                    while walk is not None and walk != nxt:
                        cycle.append(walk)
                        walk = parent[walk]
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
