"""Structure-modification reports.

Every mutating R-tree call returns an :class:`SMOReport` saying exactly
which granules changed shape.  The DGL layer reads these to take the
post-modification locks of the paper's Table 3 (IX on the split halves
``g1``/``g2``, inherited S locks, and so on), and the experiments read them
to count boundary-changing insertions for the §3.4 fanout study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.geometry import Rect
from repro.rtree.entry import LeafEntry
from repro.storage.page import PageId


@dataclass(frozen=True)
class GrowthRecord:
    """A node's bounding rectangle grew (or shrank, for deferred deletes)."""

    page_id: PageId
    level: int
    old_mbr: Optional[Rect]
    new_mbr: Optional[Rect]
    #: the node's parent on the operation's planned path (``None`` for the
    #: root).  A split may give the node a new parent afterwards; the
    #: external granule the change deforms is the planned parent's.
    parent: Optional[PageId] = None

    @property
    def grew(self) -> bool:
        """True when the new MBR covers space the old one did not."""
        if self.old_mbr is None:
            return True
        if self.new_mbr is None:
            return False
        return not self.old_mbr.contains(self.new_mbr)


@dataclass(frozen=True)
class SplitRecord:
    """Node ``old_id`` split; its entries now live in ``left_id``/``right_id``.

    The left half reuses the original page id (so commit-duration locks
    taken on ``g`` before the split still name a live granule, matching the
    paper's "IX on g1 and g2" which implicitly keeps ``g``'s identity for
    one half).
    """

    old_id: PageId
    left_id: PageId
    right_id: PageId
    level: int
    old_mbr: Optional[Rect]
    left_mbr: Rect
    right_mbr: Rect


@dataclass(frozen=True)
class ReinsertRecord:
    """An orphan data entry re-inserted during CondenseTree."""

    entry: LeafEntry
    target_page: PageId


@dataclass
class SMOReport:
    """Everything one mutating operation did to the tree structure."""

    #: leaf that received / lost the data entry (None for no-op deletes)
    target_leaf: Optional[PageId] = None
    #: nodes whose MBR changed, bottom-up order
    growth: List[GrowthRecord] = field(default_factory=list)
    #: node splits, bottom-up order
    splits: List[SplitRecord] = field(default_factory=list)
    #: page ids of nodes eliminated by CondenseTree
    eliminated: List[PageId] = field(default_factory=list)
    #: orphan entries re-inserted after node elimination
    reinserted: List[ReinsertRecord] = field(default_factory=list)
    #: with ``delete(collect_orphans=True)``: entries awaiting re-insertion
    #: as ``(entry, target_level)`` pairs -- the caller must re-insert them
    orphans: List[tuple] = field(default_factory=list)
    #: a new root was created (root split) or the root was replaced (shrink)
    new_root: Optional[PageId] = None

    def merge(self, other: "SMOReport") -> None:
        """Fold a nested report (e.g. from an orphan re-insertion) into this one."""
        self.growth.extend(other.growth)
        self.splits.extend(other.splits)
        self.eliminated.extend(other.eliminated)
        self.reinserted.extend(other.reinserted)
        self.orphans.extend(other.orphans)
        if other.new_root is not None:
            self.new_root = other.new_root

    @property
    def changed_boundaries(self) -> bool:
        """Did this operation change any granule boundary?

        This is the §3.4 metric: the fraction of inserters for which this
        is true determines who pays the all-overlapping-paths overhead
        under the modified insertion policy.
        """
        return bool(self.splits) or any(g.grew for g in self.growth)

    def grown_leaf_record(self) -> Optional[GrowthRecord]:
        """The growth record of the target leaf, if its MBR changed."""
        for g in self.growth:
            if g.level == 0:
                return g
        return None

    def __repr__(self) -> str:
        return (
            f"SMOReport(target={self.target_leaf}, growth={len(self.growth)}, "
            f"splits={len(self.splits)}, eliminated={len(self.eliminated)}, "
            f"reinserted={len(self.reinserted)})"
        )
