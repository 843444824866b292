"""Whole-index locking -- the Postgres strategy the paper cites.

"Postgres requires transactions to lock the entire R-tree thereby
disallowing concurrent operations" (§1, footnote 1).  Readers take a
commit-duration S on the one tree resource, writers a commit-duration X.
Phantom-free by brute force; the throughput benchmarks show the cost.
"""

from __future__ import annotations

from repro.baselines.common import BaselineIndex
from repro.core.protocol import OpContext
from repro.geometry import Rect
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId
from repro.rtree.entry import ObjectId


class TreeLockIndex(BaselineIndex):
    """S/X locking of the entire index."""

    name = "tree-lock"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tree_resource = ResourceId.tree(id(self))

    def _lock_tree(self, ctx: OpContext, mode: LockMode) -> None:
        ctx.acquire_all([(self._tree_resource, mode, LockDuration.COMMIT)])

    def _lock_scan(self, ctx: OpContext, predicate: Rect, for_update: bool) -> None:
        self._lock_tree(ctx, LockMode.X if for_update else LockMode.S)

    def _lock_write(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_tree(ctx, LockMode.X)

    def _lock_read_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_tree(ctx, LockMode.S)

    def _lock_update_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> None:
        self._lock_tree(ctx, LockMode.X)
