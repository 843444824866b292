"""R-tree nodes (the payload of a storage page).

Levels are counted from the leaves: leaf nodes have ``level == 0`` and the
root has the highest level.  The paper numbers levels from the top (root =
level 1); the conversion ``paper_level = tree_height - node.level`` is done
by the experiment code, not here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.geometry import Rect
from repro.rtree.entry import ChildEntry, LeafEntry, ObjectId
from repro.storage.page import INVALID_PAGE, PageId

Entry = Union[LeafEntry, ChildEntry]


class Node:
    """One R-tree node: a typed list of entries plus parent bookkeeping."""

    __slots__ = ("page_id", "level", "entries", "parent_id")

    def __init__(self, page_id: PageId, level: int, parent_id: PageId = INVALID_PAGE) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = []
        self.parent_id = parent_id

    # -- structure -----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """Leaves sit at level 0 and hold data entries."""
        return self.level == 0

    @property
    def is_root(self) -> bool:
        return self.parent_id == INVALID_PAGE

    def mbr(self) -> Optional[Rect]:
        """Minimum bounding rectangle of the entries, or ``None`` if empty.

        Tombstoned entries still contribute: a logically deleted object is
        physically present until the deferred delete runs, and its granule
        must keep covering it.
        """
        if not self.entries:
            return None
        return Rect.bounding(e.rect for e in self.entries)

    # -- leaf-side helpers ---------------------------------------------------

    def find_entry(self, oid: ObjectId) -> Optional[LeafEntry]:
        """Locate a data entry by object id (leaf nodes only)."""
        assert self.is_leaf
        for entry in self.entries:
            if entry.oid == oid:  # type: ignore[union-attr]
                return entry  # type: ignore[return-value]
        return None

    # -- index-side helpers ----------------------------------------------------

    def child_entry(self, child_id: PageId) -> Optional[ChildEntry]:
        """Locate the index entry pointing at ``child_id`` (non-leaf only)."""
        assert not self.is_leaf
        for entry in self.entries:
            if entry.child_id == child_id:  # type: ignore[union-attr]
                return entry  # type: ignore[return-value]
        return None

    def child_rects(self) -> Sequence[Rect]:
        assert not self.is_leaf
        return [e.rect for e in self.entries]

    def remove_child(self, child_id: PageId) -> None:
        assert not self.is_leaf
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.child_id != child_id]  # type: ignore[union-attr]
        if len(self.entries) == before:
            raise KeyError(f"node {self.page_id} has no child {child_id}")

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"index(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
