"""The page-based Guttman R-tree.

Besides the classic operations (insert / delete / search), the tree offers
*planning* calls that predict the structural consequences of a mutation
without performing it.  The DGL protocol needs those predictions because
the paper's Table 3 acquires short-duration locks *before* granules grow,
shrink or split:

* :meth:`RTree.plan_insert` -- which leaf receives the object, whether the
  leaf granule will grow or split, and which ancestors' external granules
  will change.
* :meth:`RTree.plan_delete` -- which leaf holds the object, whether the
  node would underflow, and which ancestors' BRs would shrink.

Plans carry page-version stamps; the protocol re-validates a plan after
any blocking lock wait and re-plans if the tree moved underneath it.  A
plan made in the current latch hold can also be handed back to
:meth:`RTree.insert`, :meth:`RTree.reinsert_entry` and
:meth:`RTree.delete`, which then apply it along the planned path instead
of searching again; they refuse a plan whose pages moved since.

Beside the pages the tree keeps an *object directory*, one dict from
object id to the page id of the leaf holding its entry (tombstoned
entries included).  It is updated only where leaf entries move, so a
locate (:meth:`RTree.find_entry`) is one directory probe plus one leaf
read, and the delete path is that leaf plus its ``parent_id`` chain.  The
directory is assumed memory-resident: a probe is charged as one logical
page access that hits the buffer pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.rtree.entry import ChildEntry, LeafEntry, ObjectId
from repro.rtree.node import Entry, Node
from repro.rtree.report import GrowthRecord, ReinsertRecord, SMOReport, SplitRecord
from repro.rtree.splits import SPLIT_ALGORITHMS, SplitFunction
from repro.storage.page import INVALID_PAGE, PageId
from repro.storage.pager import PageManager


class RTreeError(Exception):
    """Raised on malformed operations (e.g. deleting a missing object)."""


@dataclass(frozen=True)
class RTreeConfig:
    """Structural parameters.

    ``max_entries`` is the paper's *fanout*; ``min_entries`` defaults to
    40% of it (Guttman allows any m <= M/2).  ``universe`` is the embedded
    space ``S``: the space the root's external granule extends to.
    """

    max_entries: int = 50
    min_entries: int = 0  # 0 -> derive as max(2, 40% of max_entries)
    split_algorithm: str = "quadratic"
    universe: Rect = Rect((0.0, 0.0), (1.0, 1.0))

    def __post_init__(self) -> None:
        if self.max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        derived = self.min_entries or max(2, int(round(self.max_entries * 0.4)))
        if derived > self.max_entries // 2:
            raise ValueError("min_entries must not exceed max_entries / 2")
        object.__setattr__(self, "min_entries", derived)
        if self.split_algorithm not in SPLIT_ALGORITHMS:
            raise ValueError(f"unknown split algorithm {self.split_algorithm!r}")

    @property
    def split_fn(self) -> SplitFunction:
        """The configured node-split algorithm."""
        return SPLIT_ALGORITHMS[self.split_algorithm]

    @property
    def dim(self) -> int:
        """Dimensionality of the embedded space."""
        return self.universe.dim


@dataclass
class InsertPlan:
    """Predicted consequences of inserting ``rect`` (see module docstring).

    Also used for orphan re-insertions at higher levels (``target_level >
    0``): the ``leaf_*`` fields then describe the target *node* rather
    than a leaf.
    """

    rect: Rect
    #: page ids on the chosen insertion path, root first, target last
    path_ids: List[PageId]
    #: level of the node receiving the entry (0 for ordinary inserts)
    target_level: int = 0
    #: the granule that will receive (and afterwards cover) the object
    leaf_id: PageId = INVALID_PAGE
    #: leaf MBR before the insertion (None for an empty leaf)
    leaf_old_mbr: Optional[Rect] = None
    #: will the leaf granule's boundary grow?
    leaf_grows: bool = False
    #: will the leaf node split?
    leaf_splits: bool = False
    #: path page ids (non-leaf) whose node will split, bottom-up
    splitting_ancestors: List[PageId] = field(default_factory=list)
    #: path page ids whose *external granule* changes (parents of growing
    #: or splitting path nodes), i.e. the SIX set of Table 3
    changed_external_parents: List[PageId] = field(default_factory=list)
    #: page versions observed while planning, for re-validation
    versions: Dict[PageId, int] = field(default_factory=dict)

    @property
    def changes_boundaries(self) -> bool:
        """Will this insertion move any granule boundary (§3.4's metric)?"""
        return self.leaf_grows or self.leaf_splits


@dataclass
class DeletePlan:
    """Predicted consequences of physically deleting an object."""

    oid: ObjectId
    rect: Rect
    path_ids: List[PageId]
    leaf_id: PageId
    #: node would drop below min fill and be eliminated
    underflows: bool
    #: path page ids whose external granule may change (BR shrink), the
    #: SIX set of §3.7; conservative when elimination cascades
    changed_external_parents: List[PageId] = field(default_factory=list)
    #: rectangles of the entries that node elimination would orphan and
    #: re-insert (the protocol fences these regions before mutating)
    orphan_rects: List[Rect] = field(default_factory=list)
    versions: Dict[PageId, int] = field(default_factory=dict)


class RTree:
    """A Guttman R-tree over a :class:`~repro.storage.pager.PageManager`."""

    def __init__(self, config: Optional[RTreeConfig] = None, pager: Optional[PageManager] = None) -> None:
        self.config = config if config is not None else RTreeConfig()
        self.pager = pager if pager is not None else PageManager()
        root_page = self.pager.allocate()
        root_page.payload = Node(root_page.page_id, level=0)
        self.root_id: PageId = root_page.page_id
        self._size = 0  # live (non-tombstoned) data entries
        #: object directory: oid -> page id of the leaf holding its entry
        self.directory: Dict[ObjectId, PageId] = {}

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------

    def node(self, page_id: PageId, count_io: bool = True) -> Node:
        """Fetch the node stored on ``page_id``.

        ``count_io=False`` bypasses the buffer-pool accounting; use it only
        for bookkeeping that a real system would do without extra I/O
        (e.g. re-touching a node already pinned by the current operation).
        """
        if count_io:
            return self.pager.read(page_id).payload
        return self.pager.peek(page_id).payload

    def root(self, count_io: bool = True) -> Node:
        """The root node."""
        return self.node(self.root_id, count_io)

    @property
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self.pager.peek(self.root_id).payload.level + 1

    @property
    def size(self) -> int:
        """Number of live (non-tombstoned) data entries."""
        return self._size

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def check_dim(self, rect: Rect) -> None:
        """Reject a rectangle of the wrong dimensionality.

        The hot geometric predicates do not check dimensions themselves
        (they run once per entry a traversal visits), so rectangles
        entering from outside are checked once, here.
        """
        if rect.dim != self.config.dim:
            raise ValueError(f"dimension mismatch: {rect.dim} != tree dimension {self.config.dim}")

    def search(self, rect: Rect, include_tombstones: bool = False) -> List[LeafEntry]:
        """All data entries whose rectangle overlaps ``rect``."""
        self.check_dim(rect)
        results: List[LeafEntry] = []
        stack = [self.root()]
        while stack:
            node = stack.pop()
            hits = node.overlapping(rect)
            if node.is_leaf:
                results += [e for e in hits if include_tombstones or not e.tombstone]  # type: ignore[union-attr]
                continue
            for entry in hits:
                stack.append(self.node(entry.child_id))  # type: ignore[union-attr]
        return results

    def search_leaves(self, leaf_ids: Iterable[PageId], rect: Rect) -> List[LeafEntry]:
        """The live data entries overlapping ``rect`` on the given leaves.

        The second half of a locked scan: the caller has already walked the
        non-leaf levels (the granule walk decides leaf overlap one level
        up) and passes the overlapping leaves, so only those pages are
        read here.  Each leaf's entries go through one
        :meth:`Node.overlapping` call, in leaf order and entry order;
        tombstoned entries are dropped after it.
        """
        results: List[LeafEntry] = []
        for page_id in leaf_ids:
            hits = self.node(page_id).overlapping(rect)
            results += [e for e in hits if not e.tombstone]  # type: ignore[union-attr]
        return results

    def search_point(self, point: Sequence[float]) -> List[LeafEntry]:
        """All data entries whose rectangle contains the point."""
        return self.search(Rect.from_point(point))

    def find_entry(self, oid: ObjectId, rect: Rect) -> Optional[Tuple[PageId, LeafEntry]]:
        """Locate the data entry for ``oid`` if its rectangle overlaps ``rect``.

        One object-directory probe, charged as a buffer hit, then one leaf
        read when the oid is present.  The paper's FindLeaf, descending
        every subtree that overlaps ``rect``, finds every entry this
        returns.  Objects in flight as orphans of a
        ``delete(collect_orphans=True)`` are absent until re-inserted.
        """
        self.check_dim(rect)
        located = self._locate(oid, rect)
        return None if located is None else (located[0].page_id, located[1])

    def _locate(self, oid: ObjectId, rect: Rect) -> Optional[Tuple[Node, LeafEntry]]:
        self.pager.stats.record_read(hit=True)  # the directory probe
        leaf_id = self.directory.get(oid)
        if leaf_id is None:
            return None
        leaf = self.node(leaf_id)
        entry = leaf.find_entry(oid)
        if entry is None:
            raise RTreeError(f"directory maps {oid!r} to page {leaf_id}, which does not hold it")
        return (leaf, entry) if entry.rect.intersects(rect) else None

    def overlapping_leaf_ids(self, rect: Rect) -> List[PageId]:
        """Page ids of all leaf granules overlapping ``rect``.

        The traversal reads only non-leaf nodes: a parent stores the MBRs
        of its children, so leaf-granule overlap is decided one level up --
        this is why the paper notes an inserter "never needs to access the
        lowest level index nodes" when taking its short-duration locks.
        """
        self.check_dim(rect)
        root = self.root()
        if root.is_leaf:
            mbr = root.mbr()
            return [root.page_id] if mbr is not None and mbr.intersects(rect) else []
        result: List[PageId] = []
        stack = [root]
        while stack:
            node = stack.pop()
            hits = node.overlapping(rect)
            if node.level == 1:
                result += [entry.child_id for entry in hits]  # type: ignore[union-attr]
            else:
                for entry in hits:
                    stack.append(self.node(entry.child_id))  # type: ignore[union-attr]
        return result

    def iter_leaves(self, under: PageId = INVALID_PAGE) -> Iterator[Node]:
        """Every leaf node of the tree, or of the subtree rooted at page
        ``under``, without I/O accounting (validator use)."""
        stack = [self.pager.peek(self.root_id if under == INVALID_PAGE else under).payload]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                for entry in node.entries:
                    stack.append(self.pager.peek(entry.child_id).payload)

    def iter_nodes(self) -> Iterator[Node]:
        """Every node, without I/O accounting."""
        stack = [self.pager.peek(self.root_id).payload]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                for entry in node.entries:
                    stack.append(self.pager.peek(entry.child_id).payload)

    def all_entries(self, include_tombstones: bool = False) -> List[LeafEntry]:
        """Every data entry in the tree, without I/O accounting."""
        out: List[LeafEntry] = []
        for leaf in self.iter_leaves():
            for entry in leaf.entries:
                if include_tombstones or not entry.tombstone:
                    out.append(entry)  # type: ignore[arg-type]
        return out

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan_insert(self, rect: Rect, target_level: int = 0) -> InsertPlan:
        """Predict the structural effect of inserting ``rect`` (no mutation).

        ``target_level > 0`` plans an orphan subtree re-insertion: the
        entry lands in a node at that level instead of a leaf.
        """
        self.check_dim(rect)
        path = self._choose_path(rect, target_level=target_level)
        plan = InsertPlan(
            rect=rect, path_ids=[n.page_id for n in path], target_level=target_level
        )
        old_mbrs = self._path_mbrs(path)
        leaf = path[-1]
        plan.leaf_id = leaf.page_id
        plan.leaf_old_mbr = old_mbrs[-1]
        plan.leaf_grows = plan.leaf_old_mbr is None or not plan.leaf_old_mbr.contains(rect)
        plan.leaf_splits = len(leaf.entries) + 1 > self.config.max_entries

        # Split cascade: a node splits when its child below splits and the
        # extra entry overflows it.
        splits_below = plan.leaf_splits
        node_splits: Dict[PageId, bool] = {leaf.page_id: plan.leaf_splits}
        for node in reversed(path[:-1]):
            will_split = splits_below and len(node.entries) + 1 > self.config.max_entries
            node_splits[node.page_id] = will_split
            splits_below = will_split
            if will_split:
                plan.splitting_ancestors.append(node.page_id)

        # A node's MBR grows exactly when the object escapes it (the new
        # MBR is old ∪ rect at every level of the path).
        grows: Dict[PageId, bool] = {
            node.page_id: mbr is None or not mbr.contains(rect)
            for node, mbr in zip(path, old_mbrs)
        }

        # ext(P) changes for every path node P whose on-path child grows or
        # splits -- the short-duration SIX set of Table 3.
        for parent, child in zip(path[:-1], path[1:]):
            if grows[child.page_id] or node_splits[child.page_id]:
                plan.changed_external_parents.append(parent.page_id)

        # A subtree re-insertion adds a child entry to the target node
        # itself, shrinking the target's own external granule (§3.7).
        if target_level > 0:
            plan.changed_external_parents.append(leaf.page_id)

        plan.versions = self._stamp_versions(plan.path_ids)
        return plan

    def plan_delete(self, oid: ObjectId, rect: Rect) -> Optional[DeletePlan]:
        """Predict the structural effect of physically removing ``oid``."""
        self.check_dim(rect)
        located = self._find_path_to(oid, rect)
        if located is None:
            return None
        path = located
        leaf = path[-1]
        old_mbrs = self._path_mbrs(path)
        underflows = len(leaf.entries) - 1 < self.config.min_entries and not leaf.is_root
        plan = DeletePlan(
            oid=oid,
            rect=rect,
            path_ids=[n.page_id for n in path],
            leaf_id=leaf.page_id,
            underflows=underflows,
        )
        if underflows:
            # Elimination may cascade; conservatively take the whole path,
            # and predict which entries would be orphaned so the caller can
            # fence their regions before the structure moves.
            plan.changed_external_parents = [n.page_id for n in path[:-1]]
            plan.orphan_rects.extend(
                e.rect for e in leaf.entries if e.oid != oid  # type: ignore[union-attr]
            )
            doomed = leaf
            for node in reversed(path[:-1]):
                # ``node`` loses its doomed child; does it underflow too?
                if node is path[0] or len(node.entries) - 1 >= self.config.min_entries:
                    break
                plan.orphan_rects.extend(
                    e.rect for e in node.entries if e.child_id != doomed.page_id  # type: ignore[union-attr]
                )
                doomed = node
        else:
            # The leaf shrinks only when the object touched its boundary;
            # each ancestor's BR shrinks only if its child's did.
            entry = leaf.find_entry(oid)
            assert entry is not None
            remaining = [e.rect for e in leaf.entries if e is not entry]
            new_mbr = Rect.bounding(remaining) if remaining else None
            child_changed = new_mbr != old_mbrs[-1]
            child_new = new_mbr
            for parent, child, parent_old in zip(
                reversed(path[:-1]), reversed(path[1:]), reversed(old_mbrs[:-1])
            ):
                if not child_changed:
                    break
                plan.changed_external_parents.append(parent.page_id)
                sibling_rects = [
                    e.rect for e in parent.entries if e.child_id != child.page_id  # type: ignore[union-attr]
                ]
                if child_new is not None:
                    sibling_rects.append(child_new)
                parent_new = Rect.bounding(sibling_rects) if sibling_rects else None
                child_changed = parent_new != parent_old
                child_new = parent_new
        plan.versions = self._stamp_versions(plan.path_ids)
        return plan

    def plan_is_current(self, versions: Dict[PageId, int]) -> bool:
        """Check whether any planned-over page changed or vanished."""
        for page_id, version in versions.items():
            if not self.pager.exists(page_id):
                return False
            if self.pager.peek(page_id).version != version:
                return False
        return True

    def _stamp_versions(self, page_ids: Sequence[PageId]) -> Dict[PageId, int]:
        return {pid: self.pager.peek(pid).version for pid in page_ids}

    def _planned_path(self, plan: InsertPlan | DeletePlan) -> List[Node]:
        """The nodes on ``plan``'s path, root first.

        The plan read these pages in the caller's current latch hold, so
        they are re-touched without I/O.  A plan whose pages changed or
        vanished since, or whose path no longer starts at the root, is
        refused: a stale path must never be applied.
        """
        if not self.plan_is_current(plan.versions) or plan.path_ids[0] != self.root_id:
            raise RTreeError("stale plan: the tree moved since it was made")
        return [self.node(page_id, count_io=False) for page_id in plan.path_ids]

    def _path_mbrs(self, path: List[Node]) -> List[Optional[Rect]]:
        """The current MBR of each node on a root-first path.

        Only the root's is computed from its entries; every other node's
        is its entry rectangle in the parent, which :func:`validate_tree`
        checks equals the child's MBR.
        """
        mbrs = [path[0].mbr()]
        for parent, child in zip(path, path[1:]):
            mbrs.append(parent.child_entry(child.page_id).rect)
        return mbrs

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, oid: ObjectId, rect: Rect, plan: Optional[InsertPlan] = None) -> SMOReport:
        """Insert a data object.  Duplicate oids are rejected (the object
        directory holds one leaf per oid).

        ``plan`` is a :meth:`plan_insert` result for ``rect`` from the
        caller's current latch hold: the object then goes down the
        planned path.
        """
        if rect.dim != self.config.dim:
            raise RTreeError(f"object dimension {rect.dim} != tree dimension {self.config.dim}")
        report = self._insert_entry(LeafEntry(oid, rect), 0, plan)
        self._size += 1
        return report

    def reinsert_entry(
        self, entry: Entry, target_level: int, plan: Optional[InsertPlan] = None
    ) -> SMOReport:
        """Re-insert an orphan collected by ``delete(collect_orphans=True)``.

        A re-inserted data entry keeps its identity (including a tombstone
        flag); a re-inserted child entry re-attaches its whole subtree.
        ``plan`` is as for :meth:`insert`.
        """
        report = self._insert_entry(entry, target_level, plan)
        if isinstance(entry, LeafEntry) and report.target_leaf is not None:
            report.reinserted.append(ReinsertRecord(entry, report.target_leaf))
        return report

    def _insert_entry(
        self, entry: Entry, target_level: int, plan: Optional[InsertPlan] = None
    ) -> SMOReport:
        report = SMOReport()
        if plan is None:
            path = self._choose_path(entry.rect, target_level)
        else:
            if plan.rect != entry.rect or plan.target_level != target_level:
                raise RTreeError("plan was made for another rectangle or level")
            path = self._planned_path(plan)
        old_mbrs = self._path_mbrs(path)
        target = path[-1]
        report.target_leaf = target.page_id if target.is_leaf else None

        if isinstance(entry, ChildEntry):
            child = self.pager.peek(entry.child_id).payload
            child.parent_id = target.page_id
            for leaf in self.iter_leaves(entry.child_id):
                self.register_leaf(leaf)
        elif entry.oid in self.directory:
            raise RTreeError(f"duplicate object id {entry.oid!r}")
        else:
            self.directory[entry.oid] = target.page_id
        target.append(entry)
        self.pager.write(target.page_id)

        new_mbrs = self._adjust_upward(path, old_mbrs, entry.rect, report)

        parent_id: Optional[PageId] = None
        for node, old, new in zip(path, old_mbrs, new_mbrs):
            if new != old:
                report.growth.append(GrowthRecord(node.page_id, node.level, old, new, parent_id))
            parent_id = node.page_id
        return report

    def _adjust_upward(
        self, path: List[Node], old_mbrs: List[Optional[Rect]], rect: Rect, report: SMOReport
    ) -> List[Rect]:
        """AdjustTree: propagate MBR updates and splits from leaf to root
        after ``rect`` was added to ``path[-1]``; returns the path nodes'
        MBRs afterwards.

        Every path node gained ``rect`` (directly, or through its on-path
        child's entry or that child's two split halves), so a node covers
        ``old ∪ rect`` now; only a split node's halves are recomputed from
        their entries.  ``old_mbrs[i]`` is also ``path[i]``'s current entry
        rectangle in its parent.
        """
        new_mbrs: List[Rect] = []
        for idx in range(len(path) - 1, -1, -1):
            node = path[idx]
            old = old_mbrs[idx]
            grown = rect if old is None else old.union(rect)
            if len(node.entries) > self.config.max_entries:
                right, left_mbr, right_mbr = self._split_node(node, grown, report)
                new_mbrs.append(left_mbr)
                if idx == 0:
                    self._grow_root(node, left_mbr, right, right_mbr, report)
                else:
                    parent = path[idx - 1]
                    parent.set_child_rect(node.page_id, left_mbr)
                    parent.append(ChildEntry(right_mbr, right.page_id))
                    right.parent_id = parent.page_id
                    self.pager.write(parent.page_id)
            else:
                new_mbrs.append(grown)
                if idx > 0 and grown != old:
                    path[idx - 1].set_child_rect(node.page_id, grown)
                    self.pager.write(path[idx - 1].page_id)
        new_mbrs.reverse()
        return new_mbrs

    def _split_node(self, node: Node, old_mbr: Rect, report: SMOReport) -> Tuple[Node, Rect, Rect]:
        """Split an overflowing node (whose MBR is ``old_mbr``) in place;
        returns the new right node and the MBRs of both halves."""
        left_entries, right_entries = self.config.split_fn(node.entries, self.config.min_entries)
        right_page = self.pager.allocate()
        right = Node(right_page.page_id, node.level, parent_id=node.parent_id)
        right_page.payload = right
        node.set_entries(left_entries)
        right.set_entries(right_entries)
        if node.is_leaf:
            self.register_leaf(right)
        else:
            for entry in right.entries:
                child = self.pager.peek(entry.child_id).payload  # type: ignore[union-attr]
                child.parent_id = right.page_id
        self.pager.write(node.page_id)
        self.pager.write(right.page_id)
        left_mbr = node.mbr()
        right_mbr = right.mbr()
        assert left_mbr is not None and right_mbr is not None
        report.splits.append(
            SplitRecord(
                old_id=node.page_id,
                left_id=node.page_id,
                right_id=right.page_id,
                level=node.level,
                old_mbr=old_mbr,
                left_mbr=left_mbr,
                right_mbr=right_mbr,
            )
        )
        return right, left_mbr, right_mbr

    def _grow_root(
        self, left: Node, left_mbr: Rect, right: Node, right_mbr: Rect, report: SMOReport
    ) -> None:
        root_page = self.pager.allocate()
        new_root = Node(root_page.page_id, level=left.level + 1)
        root_page.payload = new_root
        new_root.set_entries(
            [ChildEntry(left_mbr, left.page_id), ChildEntry(right_mbr, right.page_id)]
        )
        left.parent_id = new_root.page_id
        right.parent_id = new_root.page_id
        self.root_id = new_root.page_id
        self.pager.write(new_root.page_id)
        report.new_root = new_root.page_id

    def _choose_path(self, rect: Rect, target_level: int) -> List[Node]:
        """ChooseLeaf / ChooseSubtree descending by least enlargement."""
        node = self.root()
        path = [node]
        while node.level > target_level:
            best_entry: Optional[ChildEntry] = None
            best_enlargement = float("inf")
            best_area = float("inf")
            for entry in node.entries:
                # the area only breaks ties: it is taken for ties and winners
                enlargement = entry.rect.enlargement(rect)
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement and entry.rect.area() < best_area
                ):
                    best_entry = entry  # type: ignore[assignment]
                    best_enlargement = enlargement
                    best_area = entry.rect.area()
            assert best_entry is not None, "non-leaf node with no entries"
            node = self.node(best_entry.child_id)
            path.append(node)
        if node.level != target_level:
            raise RTreeError(
                f"cannot reach level {target_level}; tree height is {self.height}"
            )
        return path

    def _find_path_to(self, oid: ObjectId, rect: Rect) -> Optional[List[Node]]:
        """Root-to-leaf path of the leaf containing ``oid``, or ``None``:
        the :meth:`find_entry` locate, then the leaf's parent pointers,
        each parent read through the buffer pool."""
        located = self._locate(oid, rect)
        if located is None:
            return None
        node = located[0]
        path = [node]
        while not node.is_root:
            node = self.node(node.parent_id)
            path.append(node)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # object directory
    # ------------------------------------------------------------------

    def register_leaf(self, leaf: Node) -> None:
        """Point the directory at ``leaf`` for every entry it holds."""
        page_id = leaf.page_id
        for entry in leaf.entries:
            self.directory[entry.oid] = page_id  # type: ignore[union-attr]

    def _unregister(self, entry: Entry) -> None:
        """Drop an orphan's objects (a data entry, or a whole subtree's)
        from the directory while it is out of the tree; re-inserting the
        orphan registers them again."""
        if isinstance(entry, LeafEntry):
            del self.directory[entry.oid]
            return
        for leaf in self.iter_leaves(entry.child_id):
            for data in leaf.entries:
                del self.directory[data.oid]  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def set_tombstone(
        self,
        oid: ObjectId,
        rect: Rect,
        value: bool,
        located: Optional[Tuple[PageId, LeafEntry]] = None,
    ) -> PageId:
        """Mark (or unmark) an object logically deleted.

        Tombstoning never moves a granule boundary; the physical removal
        happens later via :meth:`delete`.  ``located`` is a
        :meth:`find_entry` result from the caller's current latch hold; the
        object is then not searched for again.
        """
        if located is None:
            located = self.find_entry(oid, rect)
            if located is None:
                raise RTreeError(f"object {oid!r} not found")
        leaf_id, entry = located
        if self.node(leaf_id, count_io=False).find_entry(oid) is not entry:
            raise RTreeError(f"stale locate: object {oid!r} is not on page {leaf_id}")
        if entry.tombstone == value:
            raise RTreeError(f"object {oid!r} tombstone already {value}")
        entry.tombstone = value
        self.pager.write(leaf_id)
        self._size += -1 if value else 1
        return leaf_id

    def delete(
        self,
        oid: ObjectId,
        rect: Rect,
        collect_orphans: bool = False,
        plan: Optional[DeletePlan] = None,
    ) -> SMOReport:
        """Physically remove an object (Guttman's Delete with CondenseTree).

        With ``collect_orphans=True`` the entries of eliminated nodes are
        *not* re-inserted here; they are returned in ``report.orphans`` as
        ``(entry, target_level)`` pairs so the locking protocol can
        re-insert each one under its own locks (§3.7).  The caller must
        re-insert them all or the objects are lost.

        ``plan`` is a :meth:`plan_delete` result for ``oid`` from the
        caller's current latch hold: the object is then removed along the
        planned path instead of being searched for again.
        """
        self.check_dim(rect)
        if plan is None:
            path = self._find_path_to(oid, rect)
            if path is None:
                raise RTreeError(f"object {oid!r} not found")
        else:
            if plan.oid != oid:
                raise RTreeError(f"plan was made for object {plan.oid!r}, not {oid!r}")
            path = self._planned_path(plan)
        leaf = path[-1]
        entry = leaf.find_entry(oid)
        assert entry is not None
        if not entry.tombstone:
            self._size -= 1
        report = SMOReport(target_leaf=leaf.page_id)
        old_mbrs = dict(zip([n.page_id for n in path], self._path_mbrs(path)))
        leaf.remove(entry)
        del self.directory[oid]
        self.pager.write(leaf.page_id)

        new_mbrs = self._condense(path, report, collect_orphans=collect_orphans)

        parent_id: Optional[PageId] = None
        for node_id, old in old_mbrs.items():
            if self.pager.exists(node_id):
                node = self.pager.peek(node_id).payload
                new = new_mbrs.get(node_id)
                if new is None:
                    new = node.mbr()
                if new != old:
                    report.growth.append(GrowthRecord(node_id, node.level, old, new, parent_id))
            parent_id = node_id

        self._shrink_root(report)
        return report

    def _condense(
        self, path: List[Node], report: SMOReport, collect_orphans: bool = False
    ) -> Dict[PageId, Rect]:
        """CondenseTree: eliminate underfull nodes bottom-up, re-insert orphans.

        Returns the new MBR of each surviving non-root path node, as
        computed here for its parent entry.  It is empty when orphans were
        re-inserted in place, since they may have moved those MBRs again.
        """
        eliminated: List[Node] = []
        new_mbrs: Dict[PageId, Rect] = {}
        idx = len(path) - 1
        while idx > 0:
            node = path[idx]
            parent = path[idx - 1]
            if len(node.entries) < self.config.min_entries:
                parent.remove_child(node.page_id)
                eliminated.append(node)
                self.pager.write(parent.page_id)
            else:
                new_mbr = node.mbr()
                assert new_mbr is not None
                new_mbrs[node.page_id] = new_mbr
                if parent.child_entry(node.page_id).rect != new_mbr:
                    parent.set_child_rect(node.page_id, new_mbr)
                    self.pager.write(parent.page_id)
            idx -= 1

        for node in eliminated:
            report.eliminated.append(node.page_id)
            self.pager.free(node.page_id)

        # Orphans: data entries go back at the leaf level, subtrees at the
        # level that keeps all leaves aligned.
        for node in eliminated:
            for entry in node.entries:
                if isinstance(entry, LeafEntry):
                    target_level = 0
                else:
                    child = self.pager.peek(entry.child_id).payload
                    target_level = child.level + 1
                self._unregister(entry)
                if collect_orphans:
                    report.orphans.append((entry, target_level))
                else:
                    new_mbrs.clear()
                    sub = self._insert_entry(entry, target_level=target_level)
                    if isinstance(entry, LeafEntry):
                        assert sub.target_leaf is not None
                        report.reinserted.append(ReinsertRecord(entry, sub.target_leaf))
                    report.merge(sub)
        return new_mbrs

    def _shrink_root(self, report: SMOReport) -> None:
        while True:
            root = self.pager.peek(self.root_id).payload
            if root.is_leaf or len(root.entries) != 1:
                break
            child_id = root.entries[0].child_id  # type: ignore[union-attr]
            child = self.pager.peek(child_id).payload
            child.parent_id = INVALID_PAGE
            self.pager.free(root.page_id)
            report.eliminated.append(root.page_id)
            self.root_id = child_id
            report.new_root = child_id

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"RTree(size={self._size}, height={self.height}, "
            f"fanout={self.config.max_entries}, split={self.config.split_algorithm!r})"
        )
