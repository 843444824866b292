"""Sort-Tile-Recursive (STR) bulk loading.

Experiments that need a pre-populated 32,000-object tree (Table 2, the
§3.4 fanout sweep) can build it far faster with STR packing than with
32,000 individual Guttman insertions; both paths are available and the
benchmarks state which one they used.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.rtree.entry import ChildEntry, LeafEntry, ObjectId
from repro.rtree.node import Node
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.pager import PageManager


def _tile(entries: List, capacity: int, dim: int, axis: int = 0) -> List[List]:
    """Recursively tile entries into groups of at most ``capacity``."""
    if len(entries) <= capacity:
        return [entries]
    # the centre along ``axis`` only, computed as ``Rect.center`` does
    entries = sorted(entries, key=lambda e: (e.rect.lo[axis] + e.rect.hi[axis]) / 2.0)
    n_groups = math.ceil(len(entries) / capacity)
    if axis == dim - 1:
        return [entries[i * capacity : (i + 1) * capacity] for i in range(n_groups)]
    # Number of vertical slabs: ceil(sqrt-like partition per STR).
    slab_count = math.ceil(n_groups ** (1.0 / (dim - axis)))
    slab_size = math.ceil(len(entries) / slab_count)
    groups: List[List] = []
    for i in range(slab_count):
        slab = entries[i * slab_size : (i + 1) * slab_size]
        if slab:
            groups.extend(_tile(slab, capacity, dim, axis + 1))
    return groups


def _enforce_min_fill(groups: List[List], min_fill: int, max_fill: int) -> List[List]:
    """Rebalance so no group is underfull (tiling can leave small tails)."""
    fixed: List[List] = []
    for group in groups:
        fixed.append(group)
        while len(fixed) >= 2 and len(fixed[-1]) < min_fill:
            donor = fixed[-2]
            needed = min_fill - len(fixed[-1])
            if len(donor) - needed >= min_fill:
                fixed[-1] = donor[-needed:] + fixed[-1]
                fixed[-2] = donor[:-needed]
            else:
                merged = donor + fixed[-1]
                if len(merged) > max_fill:
                    # Split evenly; each half is >= max_fill/2 >= min_fill.
                    half = len(merged) // 2
                    fixed = fixed[:-2] + [merged[:half], merged[half:]]
                else:
                    fixed = fixed[:-2] + [merged]
    return fixed


def bulk_load(
    objects: Iterable[Tuple[ObjectId, Rect]],
    config: Optional[RTreeConfig] = None,
    pager: Optional[PageManager] = None,
    fill_factor: float = 0.7,
) -> RTree:
    """Build an R-tree by STR packing.

    ``fill_factor`` controls how full the packed nodes are; 0.7 mimics a
    tree grown by insertions closely enough for the I/O experiments (and
    leaves headroom so subsequent measured insertions behave normally
    rather than splitting on every call).
    """
    tree = RTree(config, pager)
    entries: List[LeafEntry] = [LeafEntry(oid, rect) for oid, rect in objects]
    if not entries:
        return tree
    capacity = max(tree.config.min_entries, int(tree.config.max_entries * fill_factor))
    dim = tree.config.dim

    # Pack leaves.
    groups = _enforce_min_fill(
        _tile(entries, capacity, dim), tree.config.min_entries, tree.config.max_entries
    )
    level_nodes: List[Node] = []
    for group in groups:
        page = tree.pager.allocate()
        node = Node(page.page_id, level=0)
        node.set_entries(group)
        page.payload = node
        tree.register_leaf(node)
        level_nodes.append(node)

    # Pack index levels until a single node remains.
    level = 0
    while len(level_nodes) > 1:
        level += 1
        child_entries = [ChildEntry(n.mbr(), n.page_id) for n in level_nodes]  # type: ignore[arg-type]
        groups = _enforce_min_fill(
            _tile(child_entries, capacity, dim), tree.config.min_entries, tree.config.max_entries
        )
        next_nodes: List[Node] = []
        for group in groups:
            page = tree.pager.allocate()
            node = Node(page.page_id, level=level)
            node.set_entries(group)
            for entry in group:
                tree.pager.peek(entry.child_id).payload.parent_id = node.page_id
            page.payload = node
            next_nodes.append(node)
        level_nodes = next_nodes

    # Swap in the packed root (the constructor made an empty leaf root).
    old_root = tree.root_id
    tree.root_id = level_nodes[0].page_id
    tree.pager.free(old_root)
    tree._size = len(entries)
    return tree


def load_many(tree: RTree, objects: Sequence[Tuple[ObjectId, Rect]]) -> None:
    """Plain repeated insertion (the paper's construction method)."""
    for oid, rect in objects:
        tree.insert(oid, rect)
