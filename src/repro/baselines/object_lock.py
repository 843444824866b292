"""Object-only locking: the strawman that exhibits phantoms.

Scans S-lock the objects they *found*; writers X-lock the object they
touch.  Nothing protects the scanned *range*: a subsequent insertion into
the range conflicts with no lock the scanner holds.  This is exactly the
scenario from the paper's introduction ("even if all objects currently in
the database that satisfy the predicate are locked, the object-level
locks will not prevent subsequent insertions into the search range"), and
the phantom benchmarks use this index to show the anomaly occurring.
"""

from __future__ import annotations

from repro.baselines.common import BaselineIndex
from repro.core.protocol import OpContext
from repro.geometry import Rect
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId
from repro.rtree.entry import ObjectId


class ObjectLockIndex(BaselineIndex):
    """Strict 2PL on objects only -- degree 2 for predicates, phantoms allowed."""

    name = "object-lock"

    def _lock_scan(self, ctx: OpContext, predicate: Rect, for_update: bool) -> None:
        # Lock the current members of the range, and only them.
        with self.latch:
            entries = self.tree.search(predicate)
        mode = LockMode.X if for_update else LockMode.S
        ctx.acquire_all([(ResourceId.obj(e.oid), mode, LockDuration.COMMIT) for e in entries])

    def _lock_object(self, ctx: OpContext, oid: ObjectId, mode: LockMode) -> None:
        ctx.acquire_all([(ResourceId.obj(oid), mode, LockDuration.COMMIT)])

    def _lock_write(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_object(ctx, oid, LockMode.X)

    def _lock_read_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_object(ctx, oid, LockMode.S)

    def _lock_update_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_object(ctx, oid, LockMode.X)
