"""Dynamic granular locking (DGL) -- the paper's contribution.

The public entry point is :class:`~repro.core.index.PhantomProtectedRTree`,
an R-tree wrapper whose operations (``insert``, ``delete``, ``read_single``,
``read_scan``, ``update_single``, ``update_scan``) run inside transactions
and take exactly the locks of the paper's Table 3, so that committed scans
are protected from phantom insertions and deletions.

Internals:

* :mod:`repro.core.granules` -- the lockable granules: leaf granules (the
  lowest-level bounding rectangles) and external granules (per non-leaf
  node, the node's space minus its children), which together cover the
  embedded space; the lock path tests a predicate against an external
  granule by subtracting the children it touches from the predicate
  clipped to the node's space, without building the granule;
* :mod:`repro.core.protocol` -- the lock-acquisition engine implementing
  Table 3, including the extra short-duration IX/SIX locks that make the
  protocol sound while granules grow, shrink and split;
* :mod:`repro.core.policy` -- the base (`ALL_PATHS`) and modified
  (`ON_GROWTH`, `ON_GROWTH_ACTIVE_SEARCHERS`) insertion policies of §3.4;
* :mod:`repro.core.maintenance` -- the deferred physical-delete queue of
  §3.7.
"""

from repro.core.granules import GranuleSet
from repro.core.policy import InsertionPolicy
from repro.core.index import PhantomProtectedRTree, ScanResult
from repro.core.maintenance import DeferredDeleteQueue

__all__ = [
    "GranuleSet",
    "InsertionPolicy",
    "PhantomProtectedRTree",
    "ScanResult",
    "DeferredDeleteQueue",
]
