"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.geometry import Rect
from repro.lock import LockManager
from repro.rtree.entry import ChildEntry, LeafEntry
from repro.rtree.node import Node
from repro.rtree.tree import RTree, RTreeConfig

UNIT = Rect((0.0, 0.0), (1.0, 1.0))
TEN = Rect((0.0, 0.0), (10.0, 10.0))


def rect(x1: float, y1: float, x2: float, y2: float) -> Rect:
    return Rect((x1, y1), (x2, y2))


def random_objects(
    n: int, seed: int = 0, extent: float = 0.02, universe: Rect = UNIT
) -> List[Tuple[int, Rect]]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        lo = []
        hi = []
        for u_lo, u_hi in universe:
            span = u_hi - u_lo
            side = rng.random() * extent * span
            start = u_lo + rng.random() * (span - side)
            lo.append(start)
            hi.append(start + side)
        out.append((i, Rect(lo, hi)))
    return out


def build_manual_tree(
    config: RTreeConfig,
    leaves: Sequence[Sequence[Tuple[object, Rect]]],
    grouping: Sequence[Sequence[int]] = (),
) -> Tuple[RTree, Dict[str, int]]:
    """Assemble an R-tree with exact node contents (for figure scenarios).

    ``leaves[i]`` lists the (oid, rect) entries of leaf ``i``.  With no
    ``grouping`` all leaves hang off the root; otherwise ``grouping[j]``
    lists the leaf indexes under intermediate node ``j`` and the
    intermediate nodes hang off the root.  Returns the tree and a name map
    ``{"leaf0": page_id, ..., "mid0": page_id, ..., "root": page_id}``.
    """
    tree = RTree(config)
    pager = tree.pager
    names: Dict[str, int] = {}

    leaf_nodes: List[Node] = []
    for i, entries in enumerate(leaves):
        page = pager.allocate()
        node = Node(page.page_id, level=0)
        node.set_entries([LeafEntry(oid, r) for oid, r in entries])
        page.payload = node
        tree.register_leaf(node)
        leaf_nodes.append(node)
        names[f"leaf{i}"] = node.page_id
        tree._size += len(entries)

    if grouping:
        mid_nodes: List[Node] = []
        for j, member_idxs in enumerate(grouping):
            page = pager.allocate()
            node = Node(page.page_id, level=1)
            for idx in member_idxs:
                leaf = leaf_nodes[idx]
                node.append(ChildEntry(leaf.mbr(), leaf.page_id))
                leaf.parent_id = node.page_id
            page.payload = node
            mid_nodes.append(node)
            names[f"mid{j}"] = node.page_id
        top_children: List[Node] = mid_nodes
        root_level = 2
    else:
        top_children = leaf_nodes
        root_level = 1

    root_page = pager.allocate()
    root = Node(root_page.page_id, level=root_level)
    for child in top_children:
        root.append(ChildEntry(child.mbr(), child.page_id))
        child.parent_id = root.page_id
    root_page.payload = root
    names["root"] = root.page_id

    old_root = tree.root_id
    tree.root_id = root.page_id
    pager.free(old_root)
    return tree, names


@pytest.fixture
def small_config() -> RTreeConfig:
    return RTreeConfig(max_entries=4, universe=TEN)


@pytest.fixture
def unit_config() -> RTreeConfig:
    return RTreeConfig(max_entries=8, universe=UNIT)


@pytest.fixture(params=[False, True], ids=["bare", "observed"])
def observed(request) -> bool:
    """Run a lock-manager test bare and again with a recording
    ``obs_sink`` attached: the assertions must hold on both, so
    observation can never change a lock decision."""
    return request.param


def make_lock_manager(observed: bool, **kwargs) -> LockManager:
    """A lock manager, bare or with an ``obs_sink`` recording into a
    private log (and passing each event on to any ``obs_sink`` given)."""
    if observed:
        log: List[tuple] = []
        inner = kwargs.get("obs_sink")

        def sink(event: str, **fields) -> None:
            log.append((event, fields))
            if inner is not None:
                inner(event, **fields)

        kwargs["obs_sink"] = sink
    return LockManager(**kwargs)
