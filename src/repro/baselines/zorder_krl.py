"""Z-order + key-range locking: the alternative §2 argues against.

Objects are stored in a B+-tree keyed by the Z-order (Morton) code of
their centre; phantom protection comes from textbook key-range locking.
The scheme is *sound* -- scans lock every key range overlapping their
Z-interval, so no overlapping insert can slip in -- but the paper's two
predicted pathologies are measurable:

* **extra I/O**: a region query must scan the whole Z-interval
  ``[z(lo), z(hi)]``, reading every entry whose code falls inside even
  when its rectangle is nowhere near the region;
* **false locks / low concurrency**: all those unrelated entries get
  commit-duration S locks, blocking writers that a spatial scheme would
  never touch ("locking objects which may not be in the region specified
  by the query").

Completeness note: an object can intersect a query without its *centre*
lying inside it, so queries are expanded by the maximum object extent
before Z-encoding (the standard trick when forcing spatial data into a
one-dimensional index); results are post-filtered by true intersection.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.btree.btree import BPlusTree, BTreeConfig, BTreeError
from repro.btree.krl import KeyRangeLockManager, range_resource
from repro.btree.zorder import DEFAULT_BITS, z_encode_rect, z_range_for_rect
from repro.concurrency.history import OpKind
from repro.core.index import DeleteResult, InsertResult, ScanResult, SingleResult
from repro.core.index import TransactionalIndex
from repro.core.protocol import COMMIT, SHORT, OpContext, S, X
from repro.geometry import Rect
from repro.rtree.entry import ObjectId
from repro.txn import Transaction
from repro.workloads.datasets import UNIT


class ZOrderScanResult(ScanResult):
    """Scan result extended with the §2 overhead metrics."""

    def __init__(self) -> None:
        super().__init__()
        #: entries read (and locked) whose rectangle misses the predicate
        self.false_locked = 0
        #: entries read from the Z-interval in total
        self.interval_entries = 0


class ZOrderKRLIndex(TransactionalIndex):
    """Transactional spatial index over a Z-ordered B+-tree with KRL."""

    name = "zorder-krl"

    def __init__(
        self,
        universe: Rect = UNIT,
        btree_config: Optional[BTreeConfig] = None,
        bits: int = DEFAULT_BITS,
        max_object_extent: float = 0.05,
        **shell: Any,
    ) -> None:
        super().__init__(**shell)
        self.universe = universe
        self.bits = bits
        self.max_object_extent = max_object_extent
        self.tree = BPlusTree(btree_config)
        self.krl = KeyRangeLockManager(self.tree)
        #: oid -> (z key, rect); rect kept for post-filtering and undo
        self._directory: Dict[ObjectId, tuple] = {}
        self.latch = threading.RLock()

    # -- lock choreography (conditional under the latch, wait outside,
    #    recompute: the key set may move while a transaction sleeps) ------

    def _lock_scan_interval(self, ctx: OpContext, z_lo: int, z_hi: int) -> None:
        """Commit S on every range endpoint covering [z_lo, z_hi], with
        the revalidate loop (endpoints recomputed after every wait)."""
        while True:
            with self.latch:
                wants = [
                    (range_resource(ep), S, COMMIT) for ep in self.krl.scan_endpoints(z_lo, z_hi)
                ]
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    return
            ctx.wait_for(blocked)

    # -- operations ------------------------------------------------------------

    def insert(self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any = None) -> InsertResult:
        result = InsertResult()
        with self._operation(txn, result, "insert", oid) as ctx:
            key = z_encode_rect(rect, self.universe, self.bits)
            while True:
                with self.latch:
                    if oid in self._directory:
                        raise BTreeError(f"duplicate object id {oid!r}")
                    # next-key locking: short X on the gap owner, commit X
                    # on the new entry's own range
                    wants = [
                        (range_resource(self.krl.next_endpoint(key, oid)), X, SHORT),
                        (range_resource((key, oid)), X, COMMIT),
                    ]
                    blocked = ctx.acquire_conditional(wants)
                    if blocked is None:
                        self.tree.insert(key, oid, rect)
                        self._directory[oid] = (key, rect)
                        break
                ctx.wait_for(blocked)
            self.payloads[oid] = payload
            txn.log_undo(lambda: self._undo_insert(oid))
            txn.writes += 1
            self._record(txn, OpKind.INSERT, oid=oid, rect=rect)
        return result

    def delete(self, txn: Transaction, oid: ObjectId, rect: Rect) -> DeleteResult:
        result = DeleteResult()
        with self._operation(txn, result, "delete", oid) as ctx:
            while True:
                with self.latch:
                    stored = self._directory.get(oid)
                    if stored is None:
                        break
                    key, stored_rect = stored
                    # the deleted key's gap merges into the next range:
                    # commit X on both, so scans of the gap wait us out
                    wants = [
                        (range_resource((key, oid)), X, COMMIT),
                        (range_resource(self.krl.next_endpoint(key, oid)), X, COMMIT),
                    ]
                    blocked = ctx.acquire_conditional(wants)
                    if blocked is None:
                        self.tree.delete(key, oid)
                        del self._directory[oid]
                        result.found = True
                        break
                ctx.wait_for(blocked)
            if not result.found:
                # absent object: cover the spot it would occupy, KRL-style
                key = z_encode_rect(rect, self.universe, self.bits)
                self._lock_scan_interval(ctx, key, key)
                return result
            old_payload = self.payloads.pop(oid, None)
            txn.log_undo(lambda: self._undo_delete(oid, key, stored_rect, old_payload))
            txn.writes += 1
            self._record(txn, OpKind.DELETE, oid=oid, rect=stored_rect)
        return result

    def read_single(self, txn: Transaction, oid: ObjectId, rect: Rect) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "read_single", oid) as ctx:
            stored = self._directory.get(oid)
            if stored is not None:
                key, stored_rect = stored
                # commit S on the entry's own range
                ctx.acquire_all([(range_resource((key, oid)), S, COMMIT)])
                result.found = True
                result.rect = stored_rect
                result.payload = self.payloads.get(oid)
            txn.reads += 1
            self._record(
                txn, OpKind.READ_SINGLE, oid=oid, rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def read_scan(self, txn: Transaction, predicate: Rect) -> ZOrderScanResult:
        result = ZOrderScanResult()
        with self._operation(txn, result, "read_scan") as ctx:
            self._scan(ctx, predicate, result)
            txn.reads += 1
            self._record(txn, OpKind.READ_SCAN, rect=predicate, result=result.oids)
        return result

    def _scan(self, ctx: OpContext, predicate: Rect, result: ZOrderScanResult) -> None:
        """Lock the predicate's whole Z-interval, then collect its matches."""
        expanded = predicate.expanded(self.max_object_extent)
        z_lo, z_hi = z_range_for_rect(expanded, self.universe, self.bits)
        # lock the *entire* Z-interval: this is the §2 overhead
        self._lock_scan_interval(ctx, z_lo, z_hi)
        with self.latch:
            entries = self.tree.range_scan(z_lo, z_hi)
        for _key, oid, rect in entries:
            result.interval_entries += 1
            if rect.intersects(predicate):
                result.matches.append((oid, rect, self.payloads.get(oid)))
            else:
                result.false_locked += 1

    def update_single(self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "update_single", oid) as ctx:
            stored = self._directory.get(oid)
            if stored is not None:
                key, stored_rect = stored
                # payload-only change: X on the entry's own range suffices
                # (no range merges or splits)
                ctx.acquire_all([(range_resource((key, oid)), X, COMMIT)])
                old = self.payloads.get(oid)
                self.payloads[oid] = payload
                txn.log_undo(lambda: self.payloads.__setitem__(oid, old))
                result.found = True
                result.rect = stored_rect
                result.payload = payload
                txn.writes += 1
            self._record(
                txn, OpKind.UPDATE_SINGLE, oid=oid, rect=rect,
                result=(oid,) if result.found else (),
            )
        return result

    def update_scan(self, txn: Transaction, predicate: Rect, update) -> ZOrderScanResult:
        result = ZOrderScanResult()
        with self._operation(txn, result, "update_scan") as ctx:
            self._scan(ctx, predicate, result)
            for i, (oid, rect, old) in enumerate(result.matches):
                key, _r = self._directory[oid]
                ctx.acquire_all([(range_resource((key, oid)), X, COMMIT)])
                new = update(oid, rect, old)
                self.payloads[oid] = new
                txn.log_undo(lambda oid=oid, value=old: self.payloads.__setitem__(oid, value))
                result.matches[i] = (oid, rect, new)
            txn.reads += 1
            txn.writes += len(result.matches)
            self._record(txn, OpKind.UPDATE_SCAN, rect=predicate, result=result.oids)
        return result

    def vacuum(self, limit: Optional[int] = None) -> int:
        return 0

    # -- undo ------------------------------------------------------------------

    def _undo_insert(self, oid: ObjectId) -> None:
        stored = self._directory.pop(oid, None)
        if stored is not None:
            with self.latch:
                self.tree.delete(stored[0], oid)
        self.payloads.pop(oid, None)

    def _undo_delete(self, oid: ObjectId, key: int, rect: Rect, payload: Any) -> None:
        with self.latch:
            self.tree.insert(key, oid, rect)
        self._directory[oid] = (key, rect)
        self.payloads[oid] = payload

    def __repr__(self) -> str:
        return f"ZOrderKRLIndex(size={len(self.tree)}, bits={self.bits})"
