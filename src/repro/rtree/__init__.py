"""A page-based Guttman R-tree.

This is the multidimensional access method the paper builds on: nodes live
on storage pages (one node per page), leaves hold ``(oid, rect)`` data
entries, non-leaf nodes hold ``(mbr, child page id)`` entries.  Insertion
uses Guttman's ChooseLeaf/AdjustTree with pluggable node-split algorithms
(quadratic, linear, R*), deletion uses CondenseTree with node
elimination and orphan re-insertion at the correct level.  Objects are
located through an object directory kept beside the tree (oid -> leaf
page id) instead of Guttman's FindLeaf descent.

Two features exist specifically for the locking layer above:

* :meth:`~repro.rtree.tree.RTree.plan_insert` /
  :meth:`~repro.rtree.tree.RTree.plan_delete` predict, without mutating,
  which granules an operation will grow, shrink or split -- the DGL
  protocol acquires its short-duration locks from these plans *before* the
  structure changes.
* every mutation returns an :class:`~repro.rtree.report.SMOReport`
  describing exactly what changed (grown MBRs, splits with new page ids,
  eliminated nodes, re-insertions) so the protocol can take the post-split
  locks the paper's Table 3 prescribes.
"""

from repro.rtree.entry import LeafEntry, ChildEntry
from repro.rtree.node import Node
from repro.rtree.report import SMOReport, SplitRecord, GrowthRecord, ReinsertRecord
from repro.rtree.splits import (
    SPLIT_ALGORITHMS,
    quadratic_split,
    linear_split,
    rstar_split,
    greene_split,
)
from repro.rtree.tree import RTree, RTreeConfig, InsertPlan, DeletePlan
from repro.rtree.validate import validate_tree, RTreeInvariantError

__all__ = [
    "LeafEntry",
    "ChildEntry",
    "Node",
    "RTree",
    "RTreeConfig",
    "InsertPlan",
    "DeletePlan",
    "SMOReport",
    "SplitRecord",
    "GrowthRecord",
    "ReinsertRecord",
    "SPLIT_ALGORITHMS",
    "quadratic_split",
    "linear_split",
    "rstar_split",
    "greene_split",
    "validate_tree",
    "RTreeInvariantError",
]
