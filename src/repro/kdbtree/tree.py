"""The K-D-B-tree (Robinson 1981), for point data.

Structure: every node owns a *region* (an axis-aligned box; the root owns
the universe).  A region node's children's regions partition its region
exactly; a point node (leaf) stores the points lying in its region.
Splits are by hyperplane: an overflowing leaf is split at the median of
its widest axis; an overflowing region node is split by a hyperplane too,
and children straddling it are split *recursively downward* -- the
defining (and notorious) K-D-B behaviour.  Deletion is lazy (no
re-merging), which keeps regions stable -- exactly the property the
simplified locking protocol exploits.

Boundary convention: a region is half-open, ``[lo, hi)`` in every axis,
except along the universe's upper faces where it is closed -- so the
regions tile the closed universe with every point in exactly one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.storage.page import INVALID_PAGE, PageId
from repro.storage.pager import PageManager


class KDBError(Exception):
    """Malformed K-D-B-tree operation."""


@dataclass(frozen=True)
class KDBConfig:
    """Structural parameters: node capacity and the embedded space."""

    max_entries: int = 16
    universe: Rect = Rect((0.0, 0.0), (1.0, 1.0))

    def __post_init__(self) -> None:
        if self.max_entries < 4:
            raise ValueError("max_entries must be at least 4")

    @property
    def dim(self) -> int:
        """Dimensionality of the embedded space."""
        return self.universe.dim


class PointEntry:
    """A stored point: ``(oid, point)`` plus the logical-delete flag."""

    __slots__ = ("oid", "point", "tombstone")

    def __init__(self, oid: Hashable, point: Tuple[float, ...], tombstone: bool = False) -> None:
        self.oid = oid
        self.point = point
        self.tombstone = tombstone

    def __repr__(self) -> str:
        flag = ", tombstone" if self.tombstone else ""
        return f"PointEntry({self.oid!r}, {self.point}{flag})"


class KDBNode:
    """One K-D-B node: a leaf of points or a region node of children."""

    __slots__ = ("page_id", "is_leaf", "region", "entries", "children", "parent_id")

    def __init__(self, page_id: PageId, is_leaf: bool, region: Rect,
                 parent_id: PageId = INVALID_PAGE) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.region = region
        #: leaves: PointEntry list
        self.entries: List[PointEntry] = []
        #: region nodes: child page ids (regions live on the children)
        self.children: List[PageId] = []
        self.parent_id = parent_id


def _region_contains(region: Rect, point: Sequence[float], universe: Rect) -> bool:
    """Half-open containment, closed on the universe's upper faces."""
    for axis, value in enumerate(point):
        lo, hi = region.lo[axis], region.hi[axis]
        if value < lo:
            return False
        if value >= hi and not (hi == universe.hi[axis] and value == hi):
            return False
    return True


def _split_region(region: Rect, axis: int, at: float) -> Tuple[Rect, Rect]:
    left_hi = list(region.hi)
    left_hi[axis] = at
    right_lo = list(region.lo)
    right_lo[axis] = at
    return Rect(region.lo, left_hi), Rect(right_lo, region.hi)


@dataclass
class KDBSplitPlan:
    """Predicted consequences of an insertion (for the locking layer)."""

    leaf_id: PageId
    #: leaf page ids whose region will be carved by the split cascade
    #: (the target leaf itself when it overflows, plus any leaves split
    #: downward by a propagating region-node split)
    splitting_leaves: List[PageId] = field(default_factory=list)
    versions: Dict[PageId, int] = field(default_factory=dict)

    @property
    def will_split(self) -> bool:
        """Does the insertion overflow its leaf (triggering a cascade)?"""
        return bool(self.splitting_leaves)


class KDBTree:
    """See module docstring."""

    def __init__(self, config: Optional[KDBConfig] = None, pager: Optional[PageManager] = None) -> None:
        self.config = config if config is not None else KDBConfig()
        self.pager = pager if pager is not None else PageManager()
        root_page = self.pager.allocate()
        root_page.payload = KDBNode(root_page.page_id, is_leaf=True, region=self.config.universe)
        self.root_id: PageId = root_page.page_id
        self._size = 0

    # -- access ----------------------------------------------------------

    def node(self, page_id: PageId, count_io: bool = True) -> KDBNode:
        if count_io:
            return self.pager.read(page_id).payload
        return self.pager.peek(page_id).payload

    @property
    def size(self) -> int:
        """Number of live (non-tombstoned) points."""
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (regions are perfectly balanced by splits)."""
        h = 1
        node = self.node(self.root_id, count_io=False)
        while not node.is_leaf:
            node = self.node(node.children[0], count_io=False)
            h += 1
        return h

    def iter_nodes(self) -> Iterator[KDBNode]:
        stack = [self.node(self.root_id, count_io=False)]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                for child_id in node.children:
                    stack.append(self.node(child_id, count_io=False))

    def iter_leaves(self) -> Iterator[KDBNode]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    # -- lookup ----------------------------------------------------------

    def leaf_for(self, point: Sequence[float]) -> KDBNode:
        """The unique leaf whose region contains the point (I/O counted)."""
        node = self.node(self.root_id)
        while not node.is_leaf:
            for child_id in node.children:
                child = self.node(child_id)
                if _region_contains(child.region, point, self.config.universe):
                    node = child
                    break
            else:
                raise KDBError(f"no child region contains {point}; partition broken")
        return node

    def overlapping_leaf_ids(self, rect: Rect) -> List[PageId]:
        """Leaves whose region overlaps the predicate (the scan granules)."""
        if rect.dim != self.config.dim:
            raise ValueError(f"dimension mismatch: {rect.dim} != tree dimension {self.config.dim}")
        out: List[PageId] = []
        stack = [self.node(self.root_id)]
        while stack:
            node = stack.pop()
            if not node.region.intersects(rect):
                continue
            if node.is_leaf:
                out.append(node.page_id)
            else:
                for child_id in node.children:
                    stack.append(self.node(child_id))
        return out

    def find_entry(self, oid: Hashable, point: Sequence[float]) -> Optional[Tuple[PageId, PointEntry]]:
        leaf = self.leaf_for(point)
        for entry in leaf.entries:
            if entry.oid == oid:
                return leaf.page_id, entry
        return None

    def search(self, rect: Rect, include_tombstones: bool = False) -> List[PointEntry]:
        out: List[PointEntry] = []
        for leaf_id in self.overlapping_leaf_ids(rect):
            leaf = self.node(leaf_id, count_io=False)
            for entry in leaf.entries:
                if rect.contains_point(entry.point) and (include_tombstones or not entry.tombstone):
                    out.append(entry)
        return out

    # -- planning (for the locking layer) ---------------------------------

    def plan_insert(self, point: Sequence[float]) -> KDBSplitPlan:
        """Which leaf receives the point, and which leaf regions the split
        cascade would carve (no mutation)."""
        leaf = self.leaf_for(point)
        plan = KDBSplitPlan(leaf_id=leaf.page_id)
        if len(leaf.entries) + 1 > self.config.max_entries:
            plan.splitting_leaves.append(leaf.page_id)
            # Propagate: each ancestor that would overflow splits by a
            # hyperplane, carving its straddling descendant leaves.  The
            # hyperplane actually chosen depends on intermediate splits,
            # so the prediction is conservative: every leaf under an
            # overflowing ancestor is a potential carve target (a sound
            # superset for the SIX fences the locking layer takes).
            node = leaf
            while node.parent_id != INVALID_PAGE:
                parent = self.node(node.parent_id, count_io=False)
                if len(parent.children) + 1 <= self.config.max_entries:
                    break
                plan.splitting_leaves.extend(
                    descendant.page_id
                    for descendant in self._descend(parent)
                    if descendant.is_leaf and descendant.page_id not in plan.splitting_leaves
                )
                node = parent
        plan.versions = {
            pid: self.pager.peek(pid).version
            for pid in [plan.leaf_id, *plan.splitting_leaves]
            if self.pager.exists(pid)
        }
        return plan

    def plan_is_current(self, versions: Dict[PageId, int]) -> bool:
        for page_id, version in versions.items():
            if not self.pager.exists(page_id) or self.pager.peek(page_id).version != version:
                return False
        return True

    def _descend(self, node: KDBNode) -> Iterator[KDBNode]:
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            if not current.is_leaf:
                for child_id in current.children:
                    stack.append(self.node(child_id, count_io=False))

    # -- insertion -----------------------------------------------------------

    def insert(self, oid: Hashable, point: Sequence[float]) -> List[PageId]:
        """Insert a point; returns the page ids of leaves split (carved)
        in the process, for the locking layer's bookkeeping."""
        if len(point) != self.config.dim:
            raise KDBError(f"point dimension {len(point)} != {self.config.dim}")
        if not self.config.universe.contains_point(point):
            raise KDBError(f"point {point} outside the universe")
        if self.find_entry(oid, point) is not None:
            raise KDBError(f"duplicate object id {oid!r}")
        carved: List[PageId] = []
        leaf = self.leaf_for(point)
        leaf.entries.append(PointEntry(oid, tuple(float(v) for v in point)))
        self.pager.write(leaf.page_id)
        self._size += 1
        node = leaf
        while len(node.entries if node.is_leaf else node.children) > self.config.max_entries:
            carved.extend(self._split(node))
            if node.parent_id == INVALID_PAGE:
                break
            node = self.node(node.parent_id, count_io=False)
        return carved

    def _choose_leaf_split(self, node: KDBNode) -> Tuple[int, float]:
        axis = max(range(self.config.dim), key=node.region.side)
        values = sorted(e.point[axis] for e in node.entries)
        at = values[len(values) // 2]
        lo, hi = node.region.lo[axis], node.region.hi[axis]
        if not (lo < at < hi):
            at = (lo + hi) / 2.0
        return axis, at

    def _choose_region_split(self, node: KDBNode) -> Tuple[int, float]:
        axis = max(range(self.config.dim), key=node.region.side)
        boundaries = sorted(
            {self.node(c, count_io=False).region.lo[axis] for c in node.children}
            - {node.region.lo[axis]}
        )
        if boundaries:
            at = boundaries[len(boundaries) // 2]
        else:
            at = (node.region.lo[axis] + node.region.hi[axis]) / 2.0
        return axis, at

    def _split(self, node: KDBNode) -> List[PageId]:
        """Split an overflowing node; returns carved leaf page ids."""
        if node.is_leaf:
            axis, at = self._choose_leaf_split(node)
        else:
            axis, at = self._choose_region_split(node)
        carved: List[PageId] = [node.page_id] if node.is_leaf else []
        left, right, sub_carved = self._split_at(node, axis, at)
        carved.extend(sub_carved)
        if node.page_id == self.root_id:
            root_page = self.pager.allocate()
            new_root = KDBNode(root_page.page_id, is_leaf=False, region=self.config.universe)
            new_root.children = [left.page_id, right.page_id]
            left.parent_id = new_root.page_id
            right.parent_id = new_root.page_id
            root_page.payload = new_root
            self.root_id = new_root.page_id
            self.pager.write(new_root.page_id)
        else:
            parent = self.node(node.parent_id, count_io=False)
            idx = parent.children.index(node.page_id)
            parent.children[idx : idx + 1] = [left.page_id, right.page_id]
            left.parent_id = parent.page_id
            right.parent_id = parent.page_id
            self.pager.write(parent.page_id)
        return carved

    def _split_at(self, node: KDBNode, axis: int, at: float) -> Tuple[KDBNode, KDBNode, List[PageId]]:
        """Split ``node`` by the hyperplane ``x[axis] = at``; recursively
        carve straddling children.  The left half reuses the page id."""
        left_region, right_region = _split_region(node.region, axis, at)
        right_page = self.pager.allocate()
        right = KDBNode(right_page.page_id, node.is_leaf, right_region, node.parent_id)
        right_page.payload = right
        carved: List[PageId] = []

        if node.is_leaf:
            stay, move = [], []
            for entry in node.entries:
                target = stay if _region_contains(left_region, entry.point, self.config.universe) else move
                target.append(entry)
            node.entries = stay
            right.entries = move
        else:
            stay_children: List[PageId] = []
            move_children: List[PageId] = []
            for child_id in list(node.children):
                child = self.node(child_id, count_io=False)
                if child.region.hi[axis] <= at:
                    stay_children.append(child_id)
                elif child.region.lo[axis] >= at:
                    move_children.append(child_id)
                    child.parent_id = right.page_id
                else:
                    # straddling child: the downward cascade
                    if child.is_leaf:
                        carved.append(child.page_id)
                    child_left, child_right, sub = self._split_at(child, axis, at)
                    carved.extend(sub)
                    stay_children.append(child_left.page_id)
                    move_children.append(child_right.page_id)
                    child_left.parent_id = node.page_id
                    child_right.parent_id = right.page_id
            node.children = stay_children
            right.children = move_children
        node.region = left_region
        self.pager.write(node.page_id)
        self.pager.write(right.page_id)
        return node, right, carved

    # -- deletion (logical + lazy physical) ----------------------------------

    def set_tombstone(self, oid: Hashable, point: Sequence[float], value: bool) -> PageId:
        located = self.find_entry(oid, point)
        if located is None:
            raise KDBError(f"object {oid!r} not found")
        leaf_id, entry = located
        if entry.tombstone == value:
            raise KDBError(f"object {oid!r} tombstone already {value}")
        entry.tombstone = value
        self.pager.write(leaf_id)
        self._size += -1 if value else 1
        return leaf_id

    def delete(self, oid: Hashable, point: Sequence[float]) -> bool:
        """Physical removal; regions are untouched (lazy deletion), so
        this never affects any other transaction's lock coverage."""
        located = self.find_entry(oid, point)
        if located is None:
            return False
        leaf_id, entry = located
        leaf = self.node(leaf_id, count_io=False)
        leaf.entries.remove(entry)
        if not entry.tombstone:
            self._size -= 1
        self.pager.write(leaf_id)
        return True

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Regions partition parents exactly; points live where they belong."""
        from repro.geometry import Region

        live = 0
        root = self.node(self.root_id, count_io=False)
        assert root.region == self.config.universe, "root must own the universe"
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    assert _region_contains(node.region, entry.point, self.config.universe), (
                        f"point {entry.point} outside leaf region {node.region}"
                    )
                    if not entry.tombstone:
                        live += 1
                continue
            assert node.children, f"empty region node {node.page_id}"
            child_regions = []
            for child_id in node.children:
                child = self.node(child_id, count_io=False)
                assert child.parent_id == node.page_id
                assert node.region.contains(child.region)
                child_regions.append(child.region)
                stack.append(child)
            # children tile the region exactly and disjointly
            assert Region(child_regions).covers(node.region), (
                f"children do not cover region node {node.page_id}"
            )
            for i, a in enumerate(child_regions):
                for b in child_regions[i + 1 :]:
                    assert not a.intersects_open(b), "overlapping sibling regions"
        assert live == self._size, f"size counter {self._size} != live {live}"

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"KDBTree(size={self._size}, height={self.height}, max_entries={self.config.max_entries})"
