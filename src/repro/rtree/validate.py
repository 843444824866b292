"""Structural invariant checker for the R-tree.

Used by unit tests and by the hypothesis property suites after random
operation sequences.  Checks, for the whole tree:

1. every non-root node holds between ``min_entries`` and ``max_entries``
   entries; the root holds at most ``max_entries`` (and at least 2 when it
   is a non-leaf);
2. every index entry's rectangle equals the MBR of the child it points to
   (tight bounding rectangles);
3. all leaves sit at level 0 and node levels decrease by exactly one per
   edge (balance);
4. parent pointers are consistent with the edges;
5. every page reachable from the root exists in the page manager, and the
   live size counter matches the number of non-tombstoned entries;
6. the object directory equals a full leaf scan: every data entry,
   tombstoned or not, maps to its own leaf, and no other oid is mapped;
7. every node's packed bounds (``Node.bounds``) hold exactly its
   entries' boxes, in entry order.
"""

from __future__ import annotations

from typing import Dict, List

from repro.rtree.entry import LeafEntry, ObjectId
from repro.rtree.node import pack_bounds
from repro.rtree.tree import RTree
from repro.storage.page import INVALID_PAGE, PageId


class RTreeInvariantError(AssertionError):
    """An R-tree structural invariant does not hold."""


def validate_tree(tree: RTree) -> None:
    """Raise :class:`RTreeInvariantError` on the first violated invariant."""
    errors: List[str] = []
    root = tree.pager.peek(tree.root_id).payload
    if root.parent_id != INVALID_PAGE:
        errors.append(f"root {root.page_id} has parent {root.parent_id}")

    live = 0
    scanned: Dict[ObjectId, PageId] = {}
    seen_pages = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.page_id in seen_pages:
            errors.append(f"page {node.page_id} reachable twice")
            continue
        seen_pages.add(node.page_id)
        if not tree.pager.exists(node.page_id):
            errors.append(f"reachable page {node.page_id} not in page manager")
            continue

        if node is not root:
            if len(node.entries) < tree.config.min_entries:
                errors.append(
                    f"node {node.page_id} underfull: {len(node.entries)} < {tree.config.min_entries}"
                )
        elif not node.is_leaf and len(node.entries) < 2:
            errors.append(f"non-leaf root {node.page_id} has {len(node.entries)} entries")
        if len(node.entries) > tree.config.max_entries:
            errors.append(
                f"node {node.page_id} overfull: {len(node.entries)} > {tree.config.max_entries}"
            )
        if node.bounds != pack_bounds(node.entries):
            errors.append(f"node {node.page_id} packed bounds differ from its entries")

        if node.is_leaf:
            for entry in node.entries:
                if not isinstance(entry, LeafEntry):
                    errors.append(f"leaf {node.page_id} holds non-data entry {entry!r}")
                    continue
                if entry.oid in scanned:
                    errors.append(
                        f"object {entry.oid!r} on leaves {scanned[entry.oid]} and {node.page_id}"
                    )
                scanned[entry.oid] = node.page_id
                if not entry.tombstone:
                    live += 1
            continue

        for entry in node.entries:
            if isinstance(entry, LeafEntry):
                errors.append(f"index node {node.page_id} holds data entry {entry!r}")
                continue
            if not tree.pager.exists(entry.child_id):
                errors.append(f"child page {entry.child_id} of {node.page_id} missing")
                continue
            child = tree.pager.peek(entry.child_id).payload
            if child.level != node.level - 1:
                errors.append(
                    f"child {child.page_id} at level {child.level} under "
                    f"node {node.page_id} at level {node.level}"
                )
            if child.parent_id != node.page_id:
                errors.append(
                    f"child {child.page_id} parent pointer {child.parent_id} != {node.page_id}"
                )
            child_mbr = child.mbr()
            if child_mbr is None:
                errors.append(f"child {child.page_id} is empty but referenced")
            elif entry.rect != child_mbr:
                errors.append(
                    f"index entry rect {entry.rect} != child {child.page_id} MBR {child_mbr}"
                )
            stack.append(child)

    if live != tree.size:
        errors.append(f"size counter {tree.size} != live entries {live}")
    if tree.directory != scanned:
        wrong = sorted(
            repr(oid)
            for oid in scanned.keys() | tree.directory.keys()
            if tree.directory.get(oid) != scanned.get(oid)
        )
        errors.append(f"object directory disagrees with the leaves on {len(wrong)} oid(s): {wrong[:5]}")

    if errors:
        raise RTreeInvariantError("; ".join(errors))
