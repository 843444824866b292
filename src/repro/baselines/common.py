"""Shared machinery for the baseline indexes.

:class:`BaselineIndex` owns the R-tree (the transaction shell,
:class:`~repro.core.index.TransactionalIndex`, owns the managers, history
recording and payload store), and turns each operation into the template

    lock (subclass hook)  ->  apply under latch  ->  record

Subclasses only decide *what to lock*: each hook takes the operation's
:class:`~repro.core.protocol.OpContext` and requests its locks through
it, so ``locks_taken`` lists the operation's own grants.  Baselines
perform deletes physically and immediately (they either hold an X on the
whole tree, make no stability promises at all, or hold a predicate
covering the object, so the deferred-delete machinery of §3.6 is
unnecessary for them).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.concurrency.history import OpKind
from repro.core.index import DeleteResult, InsertResult, ScanResult, SingleResult
from repro.core.index import TransactionalIndex
from repro.core.protocol import OpContext
from repro.geometry import Rect
from repro.rtree.entry import ObjectId
from repro.rtree.tree import RTree, RTreeConfig
from repro.txn import Transaction


class BaselineIndex(TransactionalIndex):
    """Template base class; see module docstring."""

    name = "baseline"

    def __init__(self, config: Optional[RTreeConfig] = None, **shell: Any) -> None:
        super().__init__(**shell)
        self.tree = RTree(config)
        self.latch = threading.RLock()

    # -- subclass hooks (each may wait; called without the latch) ---------

    def _lock_scan(self, ctx: OpContext, predicate: Rect, for_update: bool) -> None:
        raise NotImplementedError

    def _lock_write(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        raise NotImplementedError

    def _lock_read_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        raise NotImplementedError

    def _lock_update_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        raise NotImplementedError

    # -- operations ------------------------------------------------------------

    def insert(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any = None
    ) -> InsertResult:
        result = InsertResult()
        with self._operation(txn, result, "insert", oid) as ctx:
            self._lock_write(ctx, oid, rect)
            with self.latch:
                report = self.tree.insert(oid, rect)
            result.report = report
            result.changed_boundaries = report.changed_boundaries
            self.payloads[oid] = payload
            txn.log_undo(lambda: self._undo_insert(oid, rect))
            txn.writes += 1
            self._record(txn, OpKind.INSERT, oid=oid, rect=rect)
        return result

    def delete(self, txn: Transaction, oid: ObjectId, rect: Rect) -> DeleteResult:
        result = DeleteResult()
        with self._operation(txn, result, "delete", oid) as ctx:
            self._lock_write(ctx, oid, rect)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
                if located is not None:
                    self.tree.delete(oid, rect)
            if located is not None:
                result.found = True
                old_payload = self.payloads.pop(oid, None)
                txn.log_undo(lambda: self._undo_delete(oid, rect, old_payload))
                txn.writes += 1
                self._record(txn, OpKind.DELETE, oid=oid, rect=rect)
        return result

    def read_single(self, txn: Transaction, oid: ObjectId, rect: Rect) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "read_single", oid) as ctx:
            self._lock_read_single(ctx, oid, rect)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
            if located is not None:
                result.found = True
                result.rect = located[1].rect
                result.payload = self.payloads.get(oid)
            txn.reads += 1
            self._record(
                txn, OpKind.READ_SINGLE, oid=oid, rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def read_scan(self, txn: Transaction, predicate: Rect) -> ScanResult:
        result = ScanResult()
        with self._operation(txn, result, "read_scan") as ctx:
            self._lock_scan(ctx, predicate, for_update=False)
            with self.latch:
                entries = self.tree.search(predicate)
            result.matches = [(e.oid, e.rect, self.payloads.get(e.oid)) for e in entries]
            txn.reads += 1
            self._record(txn, OpKind.READ_SCAN, rect=predicate, result=result.oids)
        return result

    def update_single(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any
    ) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "update_single", oid) as ctx:
            self._lock_update_single(ctx, oid, rect)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
            if located is not None:
                result.found = True
                result.rect = located[1].rect
                old = self.payloads.get(oid)
                self.payloads[oid] = payload
                result.payload = payload
                txn.log_undo(lambda: self.payloads.__setitem__(oid, old))
                txn.writes += 1
            self._record(
                txn, OpKind.UPDATE_SINGLE, oid=oid, rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def update_scan(
        self,
        txn: Transaction,
        predicate: Rect,
        update: Callable[[ObjectId, Rect, Any], Any],
    ) -> ScanResult:
        result = ScanResult()
        with self._operation(txn, result, "update_scan") as ctx:
            self._lock_scan(ctx, predicate, for_update=True)
            with self.latch:
                entries = self.tree.search(predicate)
            for e in entries:
                old = self.payloads.get(e.oid)
                new = update(e.oid, e.rect, old)
                self.payloads[e.oid] = new
                txn.log_undo(lambda oid=e.oid, value=old: self.payloads.__setitem__(oid, value))
                result.matches.append((e.oid, e.rect, new))
            txn.reads += 1
            txn.writes += len(entries)
            self._record(txn, OpKind.UPDATE_SCAN, rect=predicate, result=result.oids)
        return result

    def vacuum(self, limit: Optional[int] = None) -> int:
        """Baselines delete physically; nothing is deferred."""
        return 0

    # -- undo ------------------------------------------------------------------

    def _undo_insert(self, oid: ObjectId, rect: Rect) -> None:
        with self.latch:
            self.tree.delete(oid, rect)
        self.payloads.pop(oid, None)

    def _undo_delete(self, oid: ObjectId, rect: Rect, payload: Any) -> None:
        with self.latch:
            self.tree.insert(oid, rect)
        self.payloads[oid] = payload

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.tree.size}, height={self.tree.height})"
