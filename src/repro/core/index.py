"""The public phantom-protected R-tree.

:class:`PhantomProtectedRTree` combines the R-tree, the lock manager, the
transaction manager and the DGL protocol into the transactional access
method the paper describes.  All six operations of §3 are exposed; each
takes an explicit transaction, acquires the Table 3 locks, and registers
the undo/commit actions that make rollback and deferred deletion work.

Typical use::

    index = PhantomProtectedRTree(RTreeConfig(max_entries=50))
    txn = index.begin()
    index.insert(txn, "a", Rect((0, 0), (1, 1)))
    hits = index.read_scan(txn, Rect((0, 0), (10, 10)))
    index.commit(txn)

A transaction aborted as a deadlock victim raises
:class:`~repro.txn.errors.TransactionAborted`; the transaction is already
rolled back when the exception reaches the caller.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.concurrency.history import History, OpKind
from repro.core.maintenance import DeferredDeleteQueue
from repro.core.policy import InsertionPolicy
from repro.core.protocol import GranuleLockProtocol, OpContext, Want
from repro.geometry import Rect
from repro.lock.manager import DeadlockError, LockManager
from repro.rtree.entry import ObjectId
from repro.rtree.report import SMOReport
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.pager import PageManager
from repro.txn import Transaction, TransactionAborted, TransactionManager


@dataclass
class OpResult:
    """Common accounting attached to every operation result."""

    #: the locks this operation was granted (its ``OpContext.taken``)
    locks_taken: List[Want] = field(default_factory=list)
    #: the lock-manager waits this operation made (the predicate table's
    #: waits are not counted)
    lock_waits: int = 0
    restarts: int = 0
    physical_reads: int = 0


@dataclass
class InsertResult(OpResult):
    #: did this insertion move any granule boundary? (the §3.4 metric)
    changed_boundaries: bool = False
    report: Optional[SMOReport] = None


@dataclass
class DeleteResult(OpResult):
    found: bool = False


@dataclass
class ScanResult(OpResult):
    #: (oid, rect, payload) per qualifying object
    matches: List[Tuple[ObjectId, Rect, Any]] = field(default_factory=list)

    @property
    def oids(self) -> Tuple[ObjectId, ...]:
        return tuple(oid for oid, _rect, _payload in self.matches)


@dataclass
class SingleResult(OpResult):
    found: bool = False
    rect: Optional[Rect] = None
    payload: Any = None


class TransactionalIndex:
    """The transaction shell of every transactional index: managers,
    history, payloads, transactions, the deadlock-victim path and the
    operation span.  Subclasses build ``self.tree`` (its pager supplies
    :attr:`stats`) and the operations, each wrapped in :meth:`_operation`
    and taking its locks through the :class:`OpContext` it yields."""

    #: observability tracer (:mod:`repro.obs`), installed by
    #: :func:`repro.obs.instrument.instrument_index`; ``None`` costs one
    #: attribute test per seam
    tracer = None

    def __init__(
        self,
        lock_manager: Optional[LockManager] = None,
        txn_manager: Optional[TransactionManager] = None,
        history: Optional[History] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.lock_manager = lock_manager if lock_manager is not None else LockManager()
        self.txn_manager = (
            txn_manager if txn_manager is not None else TransactionManager(self.lock_manager)
        )
        if self.txn_manager.lock_manager is not self.lock_manager:
            raise ValueError("txn_manager must share the index's lock manager")
        self.history = history
        self._clock = clock if clock is not None else (lambda: 0.0)
        #: non-indexed attributes per object (updates touch only these)
        self.payloads: Dict[Any, Any] = {}

    @property
    def stats(self):
        return self.tree.pager.stats

    def begin(self, name: Optional[str] = None) -> Transaction:
        txn = self.txn_manager.begin(name)
        self._record(txn, OpKind.BEGIN)
        if self.tracer is not None:
            self.tracer.emit("txn.begin", txn=txn.txn_id, name=txn.name)
        return txn

    def commit(self, txn: Transaction) -> None:
        self.txn_manager.commit(txn)
        self._on_finish(txn)
        self._record(txn, OpKind.COMMIT)
        if self.tracer is not None:
            self.tracer.emit("txn.commit", txn=txn.txn_id)

    def abort(self, txn: Transaction, reason: str = "explicit abort") -> None:
        self.txn_manager.abort(txn, reason)
        self._on_finish(txn)
        self._record(txn, OpKind.ABORT)
        if self.tracer is not None:
            self.tracer.emit("txn.abort", txn=txn.txn_id, reason=reason)

    @contextmanager
    def transaction(self, name: Optional[str] = None) -> Iterator[Transaction]:
        txn = self.begin(name)
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.abort(txn, reason="exception in transaction body")
            raise
        else:
            if txn.is_active:
                self.commit(txn)

    def _on_finish(self, txn: Transaction) -> None:
        """Extra cleanup once a transaction committed or aborted."""

    def _abort_deadlock_victim(self, txn: Transaction, exc: DeadlockError) -> TransactionAborted:
        """Roll back a transaction whose operation lost a deadlock; returns
        the exception the operation raises."""
        reason = f"deadlock victim: {exc}"
        self.lock_manager.end_operation(txn.txn_id)
        self._record(txn, OpKind.ABORT)
        if self.tracer is not None:
            # before the rollback's release_all, as for a vacuum victim
            self.tracer.emit("txn.abort", txn=txn.txn_id, reason=reason)
        self.txn_manager.abort(txn, reason)
        self._on_finish(txn)
        return TransactionAborted(txn.txn_id, reason)

    @contextmanager
    def _operation(
        self, txn: Transaction, result: OpResult, kind: str, oid: Optional[ObjectId] = None
    ) -> Iterator[OpContext]:
        """One operation span.  Single-object operations pass ``oid``: the
        trace then carries it on ``op.begin`` and whether the operation
        found its object on ``op.end`` (an insert finds the one it adds)."""
        if not txn.is_active:
            raise TransactionAborted(txn.txn_id, txn.abort_reason or "not active")
        ctx = OpContext(self.lock_manager, txn.txn_id)
        before_reads = self.stats.physical_reads
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.next_span_id()
            tracer.emit(
                "op.begin",
                op=span,
                txn=txn.txn_id,
                kind=kind,
                **({} if oid is None else {"oid": oid}),
            )
        ok = False
        try:
            yield ctx
            ok = True
        except DeadlockError as exc:
            raise self._abort_deadlock_victim(txn, exc)
        finally:
            result.locks_taken = list(ctx.taken)
            result.lock_waits = ctx.waits
            result.restarts = ctx.restarts
            result.physical_reads = self.stats.physical_reads - before_reads
            # Metrics-registry wiring: protocol-level lock traffic lands in
            # the same stats bag the pager feeds, so ``snapshot()`` tells
            # the whole story (the once-dead ``lock_waits`` in particular).
            stats = self.stats
            if ctx.waits:
                stats.record_lock_wait(ctx.waits)
            if ctx.taken:
                stats.record_locks(m.value for _r, m, _d in ctx.taken)
            if tracer is not None:
                tracer.emit(
                    "op.end",
                    op=span,
                    txn=txn.txn_id,
                    kind=kind,
                    ok=ok,
                    waits=ctx.waits,
                    restarts=ctx.restarts,
                    changed_boundaries=getattr(result, "changed_boundaries", None),
                    **({} if oid is None else {"found": getattr(result, "found", ok)}),
                )
            if txn.is_active:
                self._end_operation(ctx)

    def _end_operation(self, ctx: OpContext) -> None:
        """Release the operation's short-duration locks."""
        self.lock_manager.end_operation(ctx.txn_id)

    def _record(self, txn: Transaction, kind: OpKind, **kw: Any) -> None:
        if self.history is not None:
            self.history.record(txn.txn_id, kind, sim_time=self._clock(), **kw)


class PhantomProtectedRTree(TransactionalIndex):
    """Transactional R-tree with dynamic granular locking."""

    def __init__(
        self,
        config: Optional[RTreeConfig] = None,
        lock_manager: Optional[LockManager] = None,
        txn_manager: Optional[TransactionManager] = None,
        policy: InsertionPolicy = InsertionPolicy.ON_GROWTH,
        history: Optional[History] = None,
        clock: Optional[Callable[[], float]] = None,
        pager: Optional[PageManager] = None,
    ) -> None:
        super().__init__(lock_manager, txn_manager, history, clock)
        self.tree = RTree(config, pager)
        self.protocol = GranuleLockProtocol(self.tree, self.lock_manager, policy)
        self.deferred = DeferredDeleteQueue()
        #: per-transaction write journal, for savepoint compensation
        #: records: (kind, oid, rect, old_payload-for-updates)
        self._journal: Dict[Any, List[Tuple[OpKind, ObjectId, Rect, Any]]] = {}

    # The shell's transaction methods, bound in this class's own namespace:
    # perfbench's layer profiler wraps the methods it finds there.
    begin = TransactionalIndex.begin
    commit = TransactionalIndex.commit
    abort = TransactionalIndex.abort

    @property
    def granules(self):
        return self.protocol.granules

    @property
    def policy(self) -> InsertionPolicy:
        return self.protocol.policy

    def _on_finish(self, txn: Transaction) -> None:
        self._journal.pop(txn.txn_id, None)

    # ------------------------------------------------------------------
    # savepoints (partial rollback)
    # ------------------------------------------------------------------

    def savepoint(self, txn: Transaction) -> Tuple[Any, int]:
        """Mark a point the transaction can roll back to without aborting."""
        journal = self._journal.setdefault(txn.txn_id, [])
        return (txn.savepoint(), len(journal))

    def rollback_to(self, txn: Transaction, savepoint: Tuple[Any, int]) -> None:
        """Undo everything after ``savepoint``; the transaction stays
        active and keeps its locks (strict 2PL).  Compensating entries are
        recorded in the history so the phantom oracle sees the partial
        rollback."""
        marker, journal_mark = savepoint
        self.txn_manager.rollback_to(txn, marker)
        journal = self._journal.get(txn.txn_id, [])
        undone = list(journal[journal_mark:])
        for kind, oid, rect, _extra in reversed(undone):
            if kind is OpKind.INSERT:
                self._record(txn, OpKind.DELETE, oid=oid, rect=rect)
            elif kind is OpKind.DELETE:
                self._record(txn, OpKind.INSERT, oid=oid, rect=rect)
        del journal[journal_mark:]
        self._compensate_rollback(txn, undone)

    def _compensate_rollback(self, txn: Transaction, undone: List[Tuple]) -> None:
        """Hook for subclasses that keep an external record of operations
        (the write-ahead-logging index appends compensation records here)."""

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def insert(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any = None
    ) -> InsertResult:
        """Insert an object (Table 3 rows "Insert ...")."""
        self.tree.check_dim(rect)
        result = InsertResult()
        with self._operation(txn, result, "insert", oid) as ctx:
            # The undo action is registered *before* the structure changes
            # and armed the moment it does, so a deadlock abort between the
            # modification and the post-split locks still rolls it back.
            applied = [False]

            def arm() -> None:
                applied[0] = True

            txn.log_undo(lambda: self._undo_insert(oid, rect) if applied[0] else None)
            _plan, report = self.protocol.insert(ctx, oid, rect, on_applied=arm)
            result.report = report
            result.changed_boundaries = report.changed_boundaries
            self.payloads[oid] = payload
            txn.writes += 1
            self._journal.setdefault(txn.txn_id, []).append((OpKind.INSERT, oid, rect, None))
            self._record(txn, OpKind.INSERT, oid=oid, rect=rect)
        return result

    def delete(self, txn: Transaction, oid: ObjectId, rect: Rect) -> DeleteResult:
        """Logically delete an object (§3.6); physical removal is deferred."""
        self.tree.check_dim(rect)
        result = DeleteResult()
        with self._operation(txn, result, "delete", oid) as ctx:
            leaf_id = self.protocol.logical_delete(ctx, oid, rect)
            result.found = leaf_id is not None
            if leaf_id is not None:
                txn.log_undo(lambda: self.tree.set_tombstone(oid, rect, False))
                txn.on_commit(lambda: self.deferred.enqueue(oid, rect))
                txn.writes += 1
                self._journal.setdefault(txn.txn_id, []).append((OpKind.DELETE, oid, rect, None))
                self._record(txn, OpKind.DELETE, oid=oid, rect=rect)
        return result

    def read_single(self, txn: Transaction, oid: ObjectId, rect: Rect) -> SingleResult:
        """Read one object by id (Table 3: S lock on the object only)."""
        self.tree.check_dim(rect)
        result = SingleResult()
        with self._operation(txn, result, "read_single", oid) as ctx:
            entry = self.protocol.lock_read_single(ctx, oid, rect)
            if entry is not None:
                result.found = True
                result.rect = entry.rect
                result.payload = self.payloads.get(oid)
            txn.reads += 1
            self._record(
                txn,
                OpKind.READ_SINGLE,
                oid=oid,
                rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def read_scan(self, txn: Transaction, predicate: Rect) -> ScanResult:
        """All objects overlapping ``predicate`` (Table 3: S on all
        overlapping granules, commit duration -- this is what protects the
        range from phantoms until the transaction ends)."""
        self.tree.check_dim(predicate)
        result = ScanResult()
        with self._operation(txn, result, "read_scan") as ctx:
            entries = self.protocol.execute_scan(ctx, predicate)
            payload = self.payloads.get
            result.matches = [(e.oid, e.rect, payload(e.oid)) for e in entries]
            txn.reads += 1
            if self.history is not None:  # result.oids is built only to be recorded
                self._record(txn, OpKind.READ_SCAN, rect=predicate, result=result.oids)
        return result

    def update_single(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any
    ) -> SingleResult:
        """Update an object's non-indexed attributes (Table 3: IX on the
        granule, X on the object).  Changing indexed attributes is modelled
        as delete + insert, as the paper prescribes."""
        self.tree.check_dim(rect)
        result = SingleResult()
        with self._operation(txn, result, "update_single", oid) as ctx:
            entry = self.protocol.lock_update_single(ctx, oid, rect)
            if entry is not None:
                result.found = True
                result.rect = entry.rect
                old = self.payloads.get(oid)
                self.payloads[oid] = payload
                result.payload = payload
                txn.log_undo(lambda: self.payloads.__setitem__(oid, old))
                txn.writes += 1
                self._journal.setdefault(txn.txn_id, []).append(
                    (OpKind.UPDATE_SINGLE, oid, rect, old)
                )
            self._record(
                txn,
                OpKind.UPDATE_SINGLE,
                oid=oid,
                rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def update_scan(
        self,
        txn: Transaction,
        predicate: Rect,
        update: Callable[[ObjectId, Rect, Any], Any],
    ) -> ScanResult:
        """Update every object overlapping ``predicate`` (Table 3: SIX on
        the minimal covering granules, S on the rest, X per object)."""
        self.tree.check_dim(predicate)
        result = ScanResult()
        with self._operation(txn, result, "update_scan") as ctx:
            entries = self.protocol.lock_update_scan(ctx, predicate)
            for e in entries:
                old = self.payloads.get(e.oid)
                new = update(e.oid, e.rect, old)
                self.payloads[e.oid] = new
                txn.log_undo(lambda oid=e.oid, value=old: self.payloads.__setitem__(oid, value))
                self._journal.setdefault(txn.txn_id, []).append(
                    (OpKind.UPDATE_SINGLE, e.oid, e.rect, old)
                )
                result.matches.append((e.oid, e.rect, new))
            txn.reads += 1
            txn.writes += len(entries)
            if self.history is not None:
                self._record(txn, OpKind.UPDATE_SCAN, rect=predicate, result=result.oids)
        return result

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def run_deferred_delete(self, oid: ObjectId, rect: Rect) -> None:
        """Physically remove one committed tombstone (§3.7), as its own
        system transaction."""
        txn = self.txn_manager.begin(name=f"vacuum-{oid}")
        if self.tracer is not None:
            self.tracer.emit("txn.begin", txn=txn.txn_id, name=txn.name)
        ctx = OpContext(self.lock_manager, txn.txn_id)
        try:
            report = self.protocol.physical_delete(ctx, oid, rect)
            if report is not None:
                self.payloads.pop(oid, None)
        except DeadlockError as exc:
            if self.tracer is not None:
                self.tracer.emit("txn.abort", txn=txn.txn_id, reason=f"deadlock: {exc}")
            raise self.txn_manager.abort_and_raise(txn, f"deadlock: {exc}")
        finally:
            self.protocol.end_operation(ctx)
            if txn.is_active:
                self.txn_manager.commit(txn)
                if self.tracer is not None:
                    self.tracer.emit("txn.commit", txn=txn.txn_id)

    def vacuum(self, limit: Optional[int] = None) -> int:
        """Process the deferred-delete queue; returns removals performed."""
        return self.deferred.run(self, limit)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _end_operation(self, ctx: OpContext) -> None:
        self.protocol.end_operation(ctx)

    def _undo_insert(self, oid: ObjectId, rect: Rect) -> None:
        """Rolling back an insert: tombstone it now (the aborting
        transaction still holds IX on the granule and X on the object, so
        this is safe) and let the deferred pass remove it physically --
        granule boundaries never move during rollback."""
        located = self.tree.find_entry(oid, rect)
        if located is None:
            return  # the insert never physically landed
        self.tree.set_tombstone(oid, rect, True, located)
        self.payloads.pop(oid, None)
        self.deferred.enqueue(oid, rect)

    def __repr__(self) -> str:
        return (
            f"PhantomProtectedRTree(size={self.tree.size}, height={self.tree.height}, "
            f"policy={self.policy.value}, pending_deletes={len(self.deferred)})"
        )
