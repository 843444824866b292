"""Predicate locking (the paper's [12], adapted from GiST to the R-tree).

Instead of locking named granules, each operation attaches a *predicate*
(a rectangle plus a shared/exclusive flag) to its transaction.  A new
predicate must wait while any other transaction holds an overlapping
predicate in a conflicting mode -- conflict is satisfiability of the
conjunction, which for rectangles is plain overlap.

This gives phantom protection with potentially higher concurrency than
granular locks (predicates are exact, granules are coarse), but every
acquisition compares against *all* predicates held by other transactions.
:attr:`PredicateLockTable.comparisons` counts those checks; the Table 4
benchmark reports them as the scheme's lock overhead, next to the O(1)
hash-table lookups of the granular scheme.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from repro.baselines.common import BaselineIndex
from repro.core.protocol import OpContext
from repro.geometry import Rect
from repro.lock.manager import (
    DeadlockError,
    LockError,
    RequestStatus,
    ThreadedWait,
    WaitStrategy,
    _find_cycle,
)
from repro.lock.modes import LockDuration, LockMode
from repro.rtree.entry import ObjectId
from repro.txn import Transaction

TxnId = Hashable


@dataclass
class PredicateRequest:
    """A waiting predicate acquisition (duck-typed like a LockRequest)."""

    txn_id: TxnId
    rect: Rect
    exclusive: bool
    seq: int
    #: never a conversion; present for wait-strategy compatibility
    conversion: bool = False
    status: RequestStatus = RequestStatus.WAITING
    error: Optional[LockError] = None
    #: monotonic token set by a parked wait strategy while registered
    wait_token: Optional[int] = None

    @property
    def resource(self) -> str:  # for error messages
        return f"predicate{self.rect!r}"

    @property
    def mode(self) -> str:
        return "X" if self.exclusive else "S"


@dataclass(frozen=True)
class HeldPredicate:
    rect: Rect
    exclusive: bool


class PredicateLockTable:
    """The predicate table: held predicates per transaction + wait queue.

    Deliberately mirrors the :class:`~repro.lock.manager.LockManager`
    surface (``_mutex``, ``_cond``, ``wait_strategy``, deadlock victims) so
    the same wait strategies -- threaded or simulated -- drive it.
    """

    def __init__(self, wait_strategy: Optional[WaitStrategy] = None) -> None:
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        self.wait_strategy: WaitStrategy = wait_strategy or ThreadedWait()
        self._held: Dict[TxnId, List[HeldPredicate]] = {}
        self._queue: List[PredicateRequest] = []
        self._txn_order: Dict[TxnId, int] = {}
        self._seq = itertools.count()
        #: pairwise predicate-overlap checks performed (the overhead metric)
        self.comparisons = 0
        self.acquisitions = 0
        self.wait_count = 0
        self.deadlock_count = 0

    @staticmethod
    def _clock() -> float:
        return time.monotonic()

    # -- ThreadedWait compatibility ---------------------------------------

    def _timeout_request(self, request: PredicateRequest) -> None:
        if request in self._queue:
            self._queue.remove(request)
            self._process_queue()
        if request.status is RequestStatus.WAITING:
            request.status = RequestStatus.DENIED

    # -- public API --------------------------------------------------------

    def acquire(self, txn_id: TxnId, rect: Rect, exclusive: bool, conditional: bool = False) -> bool:
        with self._mutex:
            self._txn_order.setdefault(txn_id, next(self._seq))
            if self._grantable(txn_id, rect, exclusive):
                self._held.setdefault(txn_id, []).append(HeldPredicate(rect, exclusive))
                self.acquisitions += 1
                return True
            if conditional:
                return False
            request = PredicateRequest(txn_id, rect, exclusive, next(self._seq))
            self._queue.append(request)
            self.wait_count += 1
            self._resolve_deadlocks()
            if request.status is RequestStatus.WAITING:
                self.wait_strategy.wait(self, request, None)
            if request.status is RequestStatus.GRANTED:
                return True
            if request.status is RequestStatus.ABORTED:
                assert request.error is not None
                raise request.error
            raise LockError(f"predicate wait failed for {txn_id!r}")

    def release_all(self, txn_id: TxnId) -> None:
        with self._mutex:
            self._held.pop(txn_id, None)
            for request in list(self._queue):
                if request.txn_id == txn_id:
                    self._queue.remove(request)
                    request.status = RequestStatus.ABORTED
                    request.error = LockError(f"transaction {txn_id!r} terminated")
                    self.wait_strategy.notify(self, request)
            self._txn_order.pop(txn_id, None)
            self._process_queue()

    def held_count(self) -> int:
        with self._mutex:
            return sum(len(v) for v in self._held.values())

    # -- internals (mutex held) ---------------------------------------------

    def _grantable(self, txn_id: TxnId, rect: Rect, exclusive: bool) -> bool:
        ok = True
        for other, predicates in self._held.items():
            if other == txn_id:
                continue
            for held in predicates:
                self.comparisons += 1
                if (exclusive or held.exclusive) and held.rect.intersects(rect):
                    ok = False
        return ok

    def _process_queue(self) -> None:
        made_progress = True
        while made_progress:
            made_progress = False
            for request in list(self._queue):
                if self._grantable(request.txn_id, request.rect, request.exclusive):
                    self._queue.remove(request)
                    self._held.setdefault(request.txn_id, []).append(
                        HeldPredicate(request.rect, request.exclusive)
                    )
                    self.acquisitions += 1
                    request.status = RequestStatus.GRANTED
                    self.wait_strategy.notify(self, request)
                    made_progress = True
                    break

    def _waits_for(self) -> Dict[TxnId, Set[TxnId]]:
        graph: Dict[TxnId, Set[TxnId]] = {}
        for request in self._queue:
            blockers: Set[TxnId] = set()
            for other, predicates in self._held.items():
                if other == request.txn_id:
                    continue
                for held in predicates:
                    if (request.exclusive or held.exclusive) and held.rect.intersects(request.rect):
                        blockers.add(other)
            if blockers:
                graph.setdefault(request.txn_id, set()).update(blockers)
        return graph

    def _resolve_deadlocks(self) -> None:
        while True:
            cycle = _find_cycle(self._waits_for())
            if cycle is None:
                return
            self.deadlock_count += 1
            victim = max(cycle, key=lambda t: self._txn_order.get(t, -1))
            error = DeadlockError(victim, tuple(cycle))
            for request in list(self._queue):
                if request.txn_id == victim:
                    self._queue.remove(request)
                    request.status = RequestStatus.ABORTED
                    request.error = error
                    self.wait_strategy.notify(self, request)
            self._process_queue()


class PredicateLockIndex(BaselineIndex):
    """Transactional R-tree protected by predicate locks."""

    name = "predicate-lock"

    def __init__(self, *args, predicate_table: Optional[PredicateLockTable] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.predicates = predicate_table if predicate_table is not None else PredicateLockTable()

    def _lock_predicate(self, ctx: OpContext, rect: Rect, exclusive: bool) -> None:
        """Attach one predicate; the operation's record lists it with the
        rectangle in place of a lock name."""
        self.predicates.acquire(ctx.txn_id, rect, exclusive)
        ctx.taken.append((rect, LockMode.X if exclusive else LockMode.S, LockDuration.COMMIT))

    def _lock_scan(self, ctx: OpContext, predicate: Rect, for_update: bool) -> None:
        self._lock_predicate(ctx, predicate, exclusive=for_update)

    def _lock_write(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_predicate(ctx, rect, exclusive=True)

    def _lock_read_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_predicate(ctx, rect, exclusive=False)

    def _lock_update_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_predicate(ctx, rect, exclusive=True)

    def _on_finish(self, txn: Transaction) -> None:
        self.predicates.release_all(txn.txn_id)
