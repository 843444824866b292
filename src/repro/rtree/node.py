"""R-tree nodes (the payload of a storage page).

Levels are counted from the leaves: leaf nodes have ``level == 0`` and the
root has the highest level.  The paper numbers levels from the top (root =
level 1); the conversion ``paper_level = tree_height - node.level`` is done
by the experiment code, not here.

Beside its entry list a node keeps its entries' boxes packed in one
``array('d')``, ``bounds``: entry ``k``'s ``d`` lo values, then its ``d``
hi values, at ``bounds[2dk : 2d(k+1)]``.  A scan's per-node overlap filter
(:meth:`Node.overlapping`) and :meth:`Node.mbr` read only that block,
instead of chasing entry, rectangle and coordinate objects scattered over
the heap, the layout the CR-tree uses for main-memory R-trees (Kim, Cha
and Kwon, SIGMOD 2001).  The two stay in step because only the node's
own methods change its entries (:meth:`append`, :meth:`remove`,
:meth:`set_entries`, :meth:`set_child_rect`, :meth:`remove_child`);
``validate_tree`` checks that they do.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Union

from repro.geometry import Rect
from repro.rtree.entry import ChildEntry, LeafEntry, ObjectId
from repro.storage.page import INVALID_PAGE, PageId

Entry = Union[LeafEntry, ChildEntry]


def pack_bounds(entries: Iterable[Entry]) -> "array[float]":
    """The packed block of the entries' boxes: each box's lo values, then
    its hi values, one entry after another."""
    return array("d", [v for e in entries for v in e.rect.lo + e.rect.hi])


class Node:
    """One R-tree node: a typed list of entries, their packed bounds, and
    parent bookkeeping.  Read ``entries`` freely; change it only through
    the node's methods."""

    __slots__ = ("page_id", "level", "entries", "bounds", "parent_id")

    def __init__(self, page_id: PageId, level: int, parent_id: PageId = INVALID_PAGE) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = []
        self.bounds = array("d")
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
        must keep covering it.  Taken per axis as a C-level ``min``/``max``
        over a strided slice of :attr:`bounds`; both keep the first of
        equal values, as :meth:`Rect.bounding` does, so the result is
        bit-identical to ``Rect.bounding`` over the entries' rects.
        """
        n = len(self.entries)
        if not n:
            return None
        b = self.bounds
        stride = len(b) // n
        dim = stride >> 1
        # bounds of valid boxes need no re-validation
        return Rect._derived(
            tuple([min(b[i::stride]) for i in range(dim)]),
            tuple([max(b[i::stride]) for i in range(dim, stride)]),
        )

    def overlapping(self, rect: Rect) -> List[Entry]:
        """The entries whose box meets the closed box ``rect``, in order.

        Entry by entry the same answer as ``entry.rect.intersects(rect)``.
        This is the per-node loop of every scan (the R-tree's searches and
        the granule walk), so it compares against :attr:`bounds` and reads
        ``entries[k]`` only for a hit.  Two dimensions compare the four
        bounds inline; other dimensions loop over the axes.
        """
        lo, hi = rect.lo, rect.hi
        entries = self.entries
        b = self.bounds
        out: List[Entry] = []
        if len(lo) == 2:
            x0, y0 = lo
            x1, y1 = hi
            k = 0
            it = iter(b)
            for lx, ly, hx, hy in zip(it, it, it, it):
                if lx <= x1 and ly <= y1 and x0 <= hx and y0 <= hy:
                    out.append(entries[k])
                k += 1
            return out
        dim = len(lo)
        stride = 2 * dim
        axes = range(dim)
        for k in range(len(entries)):
            base = k * stride
            for i in axes:
                if b[base + i] > hi[i] or lo[i] > b[base + dim + i]:
                    break
            else:
                out.append(entries[k])
        return out

    # -- changing the entries ----------------------------------------------------

    def append(self, entry: Entry) -> None:
        """Add one entry at the end."""
        self.entries.append(entry)
        r = entry.rect
        self.bounds.extend(r.lo + r.hi)

    def remove(self, entry: Entry) -> None:
        """Remove one entry (by identity)."""
        k = self.entries.index(entry)
        del self.entries[k]
        stride = 2 * entry.rect.dim
        del self.bounds[k * stride : (k + 1) * stride]

    def set_entries(self, entries: Sequence[Entry]) -> None:
        """Replace every entry."""
        self.entries = list(entries)
        self.bounds = pack_bounds(self.entries)

    def set_child_rect(self, child_id: PageId, rect: Rect) -> None:
        """Set the rectangle of the index entry pointing at ``child_id``."""
        k = self._child_index(child_id)
        self.entries[k].rect = rect
        stride = 2 * rect.dim
        self.bounds[k * stride : (k + 1) * stride] = array("d", rect.lo + rect.hi)

    def remove_child(self, child_id: PageId) -> None:
        """Remove the index entry pointing at ``child_id``."""
        self.remove(self.entries[self._child_index(child_id)])

    # -- leaf-side helpers ---------------------------------------------------

    def find_entry(self, oid: ObjectId) -> Optional[LeafEntry]:
        """Locate a data entry by object id (leaf nodes only)."""
        assert self.is_leaf
        for entry in self.entries:
            if entry.oid == oid:  # type: ignore[union-attr]
                return entry  # type: ignore[return-value]
        return None

    # -- index-side helpers ----------------------------------------------------

    def child_entry(self, child_id: PageId) -> ChildEntry:
        """The index entry pointing at ``child_id`` (non-leaf only)."""
        return self.entries[self._child_index(child_id)]  # type: ignore[return-value]

    def _child_index(self, child_id: PageId) -> int:
        assert not self.is_leaf
        for k, entry in enumerate(self.entries):
            if entry.child_id == child_id:  # type: ignore[union-attr]
                return k
        raise KeyError(f"node {self.page_id} has no child {child_id}")

    def child_rects(self) -> Sequence[Rect]:
        assert not self.is_leaf
        return [e.rect for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"index(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
