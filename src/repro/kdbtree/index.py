"""The simplified phantom-protection protocol for K-D-B-trees.

Because a K-D-B-tree's leaf regions partition the space and are
*data-independent* (inserting or deleting a point never moves a region;
only node splits carve them), the granular protocol collapses to:

* **ReadScan**: commit S on every leaf region overlapping the predicate
  (they tile the space, so this is full coverage by construction);
* **Insert**: commit IX on the containing region + commit X on the
  object.  If the insertion overflows a node, a short SIX on every leaf
  region the split cascade will carve fences out their S holders first;
  afterwards a commit IX on the (possibly new) containing half;
* **Delete**: logical, IX + X; the deferred physical pass takes just a
  short IX on the region -- regions never shrink, so there is nothing
  else to protect.  No external granules, no growth fences, no lock
  inheritance: footnote 4's "much simpler" protocol, implemented.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Sequence

from repro.concurrency.history import OpKind
from repro.core.index import DeleteResult, InsertResult, ScanResult, SingleResult
from repro.core.index import TransactionalIndex
from repro.core.maintenance import DeferredDeleteQueue
from repro.core.protocol import OpContext, Want
from repro.geometry import Rect
from repro.kdbtree.tree import KDBConfig, KDBError, KDBTree
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId
from repro.txn import Transaction

S, X, IX, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.SIX
SHORT, COMMIT = LockDuration.SHORT, LockDuration.COMMIT

Point = Sequence[float]


def _object_wants(leaf_id: int, oid: Any) -> List[Want]:
    """Commit IX on the object's region and commit X on the object."""
    return [(ResourceId.leaf(leaf_id), IX, COMMIT), (ResourceId.obj(oid), X, COMMIT)]


class KDBPhantomIndex(TransactionalIndex):
    """Transactional K-D-B-tree with the simplified granular protocol."""

    def __init__(self, config: Optional[KDBConfig] = None, **shell: Any) -> None:
        super().__init__(**shell)
        self.tree = KDBTree(config)
        self.deferred = DeferredDeleteQueue()
        self.latch = threading.RLock()

    # -- operations --------------------------------------------------------------

    def insert(self, txn: Transaction, oid: Any, point: Point, payload: Any = None) -> InsertResult:
        result = InsertResult()
        with self._operation(txn, result, "insert", oid) as ctx:

            def attempt() -> None:
                located = self.tree.find_entry(oid, point)
                if located is not None:
                    leaf_id, entry = located
                    ctx.require(_object_wants(leaf_id, oid))
                    if not entry.tombstone:
                        raise KDBError(f"duplicate object id {oid!r}")
                    self.tree.set_tombstone(oid, point, False)  # revival
                    return
                plan = self.tree.plan_insert(point)
                wants = [(ResourceId.obj(oid), X, COMMIT)]
                if plan.will_split:
                    # fence the S holders of every region the split cascade
                    # will carve
                    for leaf_id in plan.splitting_leaves:
                        wants.append((ResourceId.leaf(leaf_id), SIX, SHORT))
                else:
                    wants.append((ResourceId.leaf(plan.leaf_id), IX, COMMIT))
                ctx.require(wants)
                self.tree.insert(oid, point)
                if plan.will_split:
                    # the point's containing half: either a page we hold SIX
                    # on, or a brand-new one -- never blocks
                    home = self.tree.leaf_for(point)
                    ctx.acquire_all([(ResourceId.leaf(home.page_id), IX, COMMIT)])
                result.changed_boundaries = plan.will_split

            ctx.retry(self.latch, attempt)
            self.payloads[oid] = payload
            txn.log_undo(lambda: self._undo_insert(oid, point))
            txn.writes += 1
            self._record(txn, OpKind.INSERT, oid=oid, rect=Rect.from_point(point))
        return result

    def delete(self, txn: Transaction, oid: Any, point: Point) -> DeleteResult:
        result = DeleteResult()
        with self._operation(txn, result, "delete", oid) as ctx:

            def attempt() -> bool:
                located = self.tree.find_entry(oid, point)
                if located is None:
                    return False
                leaf_id, entry = located
                ctx.require(_object_wants(leaf_id, oid))
                if entry.tombstone:
                    return False
                self.tree.set_tombstone(oid, point, True)
                return True

            result.found = ctx.retry(self.latch, attempt)
            if not result.found:
                # absent object: S on the region that would contain it,
                # then look again -- it may have been inserted meanwhile
                self._lock_scan(ctx, Rect.from_point(point))
                result.found = ctx.retry(self.latch, attempt)
            if result.found:
                txn.log_undo(lambda: self.tree.set_tombstone(oid, point, False))
                txn.on_commit(lambda: self.deferred.enqueue(oid, tuple(point)))
                txn.writes += 1
                self._record(txn, OpKind.DELETE, oid=oid, rect=Rect.from_point(point))
        return result

    def read_single(self, txn: Transaction, oid: Any, point: Point) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "read_single", oid) as ctx:

            def attempt() -> None:
                located = self.tree.find_entry(oid, point)
                if located is None:
                    return
                _leaf_id, entry = located
                ctx.require([(ResourceId.obj(oid), S, COMMIT)])
                if not entry.tombstone:
                    result.found = True
                    result.rect = Rect.from_point(entry.point)
                    result.payload = self.payloads.get(oid)

            ctx.retry(self.latch, attempt)
            txn.reads += 1
            self._record(
                txn, OpKind.READ_SINGLE, oid=oid, rect=Rect.from_point(point),
                result=(oid,) if result.found else (),
            )
        return result

    def read_scan(self, txn: Transaction, predicate: Rect) -> ScanResult:
        result = ScanResult()
        with self._operation(txn, result, "read_scan") as ctx:
            self._lock_scan(ctx, predicate)
            with self.latch:
                entries = [e for e in self.tree.search(predicate) if not e.tombstone]
            result.matches = [
                (e.oid, Rect.from_point(e.point), self.payloads.get(e.oid)) for e in entries
            ]
            txn.reads += 1
            self._record(txn, OpKind.READ_SCAN, rect=predicate, result=result.oids)
        return result

    def update_single(self, txn: Transaction, oid: Any, point: Point, payload: Any) -> SingleResult:
        result = SingleResult()
        with self._operation(txn, result, "update_single", oid) as ctx:

            def attempt() -> None:
                located = self.tree.find_entry(oid, point)
                if located is None:
                    return
                leaf_id, entry = located
                ctx.require(_object_wants(leaf_id, oid))
                if not entry.tombstone:
                    old = self.payloads.get(oid)
                    self.payloads[oid] = payload
                    txn.log_undo(lambda: self.payloads.__setitem__(oid, old))
                    result.found = True
                    result.rect = Rect.from_point(entry.point)
                    result.payload = payload
                    txn.writes += 1

            ctx.retry(self.latch, attempt)
            self._record(
                txn, OpKind.UPDATE_SINGLE, oid=oid, rect=Rect.from_point(point),
                result=(oid,) if result.found else (),
            )
        return result

    def _lock_scan(self, ctx: OpContext, predicate: Rect) -> None:
        def attempt() -> None:
            leaf_ids = self.tree.overlapping_leaf_ids(predicate)
            ctx.require([(ResourceId.leaf(lid), S, COMMIT) for lid in leaf_ids])

        ctx.retry(self.latch, attempt)

    # -- maintenance --------------------------------------------------------------

    def run_deferred_delete(self, oid: Any, point: Point) -> None:
        """§3.7 for space partitioning: a short IX on the region and the
        object X -- nothing else, because regions never move."""
        with self._system_operation(f"kdb-vacuum-{oid}") as ctx:

            def attempt() -> None:
                located = self.tree.find_entry(oid, point)
                if located is None or not located[1].tombstone:
                    return
                leaf_id, _entry = located
                ctx.require([
                    (ResourceId.leaf(leaf_id), IX, SHORT),
                    (ResourceId.obj(oid), X, COMMIT),
                ])
                self.tree.delete(oid, point)
                self.payloads.pop(oid, None)

            ctx.retry(self.latch, attempt)

    def vacuum(self, limit: Optional[int] = None) -> int:
        return self.deferred.run(self, limit)

    # -- plumbing ---------------------------------------------------------------

    def _undo_insert(self, oid: Any, point: Point) -> None:
        if self.tree.find_entry(oid, point) is None:
            return
        self.tree.set_tombstone(oid, point, True)
        self.payloads.pop(oid, None)
        self.deferred.enqueue(oid, tuple(point))

    def __repr__(self) -> str:
        return f"KDBPhantomIndex(size={self.tree.size}, height={self.tree.height})"
