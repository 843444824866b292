"""Key-range locking (KRL) over the B+-tree.

The B-tree solution the paper's §2 summarises: "the semi-open ranges
(k_i, k_i+1], defined by the ordered list of attribute values present in
the B-tree, serve as the lockable granules.  A scan acquires locks to
completely cover its query range" and an insert/delete takes the classic
next-key lock so that splitting or merging a range conflicts with any
scan covering it.

Granule naming: the range ``(k_i, k_i+1]`` is locked through its upper
endpoint ``k_i+1`` (an existing entry), and the unbounded range above the
largest key through the :data:`INFINITY` sentinel.  Lock modes and
durations come from the same multi-granularity lock manager the R-tree
protocol uses, so the §2 comparison runs on identical machinery.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.btree.btree import BPlusTree
from repro.lock.resource import Namespace, ResourceId

#: lock name for the open range above the largest key present
INFINITY: Tuple[str] = ("+inf",)

KeyPair = Tuple[int, Hashable]


def range_resource(endpoint) -> ResourceId:
    """Lock name of the range whose upper endpoint is ``endpoint``."""
    return ResourceId(Namespace.OBJECT, ("krl", endpoint))


class KeyRangeLockManager:
    """KRL range naming for one B+-tree.

    Every method computes range endpoints and must run under the caller's
    structure latch.  The caller requests the endpoints' locks
    conditionally and, on a would-block, releases the latch, waits
    unconditionally, and recomputes -- the key set may have moved while
    it slept.  (An earlier version iterated the live tree across
    unconditional waits; a key inserted behind the iterator during a park
    was never locked, and the phantom oracle caught the resulting dirty
    read at full scale.)
    """

    def __init__(self, tree: BPlusTree) -> None:
        self.tree = tree

    def scan_endpoints(self, lo: int, hi: int) -> List[object]:
        """Every range endpoint covering the key interval [lo, hi]: each
        entry key inside it, plus the first key beyond (or INFINITY)."""
        endpoints: List[object] = []
        for key, oid, _payload in self.tree.iter_from(lo):
            endpoints.append((key, oid))
            if key > hi:
                return endpoints  # the 'beyond' endpoint owns the tail gap
        endpoints.append(INFINITY)
        return endpoints

    def next_endpoint(self, key: int, oid: Hashable) -> object:
        """The endpoint owning the gap a (key, oid) insertion or deletion
        splits or merges: the smallest entry greater than it, or INFINITY."""
        for found_key, found_oid, _payload in self.tree.iter_from(key):
            if (found_key, found_oid) > (key, oid):
                return (found_key, found_oid)
        return INFINITY
