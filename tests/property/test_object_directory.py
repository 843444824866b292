"""Property tests: the R-tree's object directory under random sequences.

The directory (oid -> leaf page id) must equal a full leaf scan after
every step of a random mix of inserts, tombstones, untombstones and
physical deletes whose orphans are collected and re-inserted one by one,
and ``find_entry`` must agree with a rect-guided reference traversal for
present oids, absent oids and orphans still out of the tree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.rtree import RTree, RTreeConfig, validate_tree
from repro.rtree.entry import LeafEntry


KINDS = ("insert", "tombstone", "untombstone", "delete", "delete")


def random_box(rng: random.Random, dim: int) -> Rect:
    lo = [rng.uniform(0, 0.9) for _ in range(dim)]
    return Rect(lo, [a + rng.uniform(0, 0.1) for a in lo])


@st.composite
def scenarios(draw):
    """A preload of inserts, then a delete-heavy random mix: enough
    deletes for node eliminations to cascade and orphan whole subtrees."""
    dim = draw(st.sampled_from([2, 3]))
    fanout = draw(st.integers(min_value=4, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    preload = draw(st.integers(min_value=0, max_value=120))
    n_steps = draw(st.integers(min_value=1, max_value=120))
    steps = [("insert", random_box(rng, dim), 0) for _ in range(preload)]
    steps += [
        (rng.choice(KINDS), random_box(rng, dim), rng.randrange(10**6)) for _ in range(n_steps)
    ]
    return dim, fanout, steps


def scanned_directory(tree: RTree):
    return {e.oid: leaf.page_id for leaf in tree.iter_leaves() for e in leaf.entries}


def reference_find(tree: RTree, oid, rect: Rect):
    """FindLeaf by descent through every subtree overlapping ``rect``."""
    stack = [tree.pager.peek(tree.root_id).payload]
    while stack:
        node = stack.pop()
        for entry in node.entries:
            if not entry.rect.intersects(rect):
                continue
            if node.is_leaf:
                if entry.oid == oid:
                    return node.page_id, entry
            else:
                stack.append(tree.pager.peek(entry.child_id).payload)
    return None


def data_entries(tree: RTree, orphan):
    """The data entries an orphan (data entry or subtree) carries."""
    if isinstance(orphan, LeafEntry):
        return [orphan]
    return [e for leaf in tree.iter_leaves(orphan.child_id) for e in leaf.entries]


def check_locates(tree: RTree, probes):
    for oid, rect in probes:
        assert tree.find_entry(oid, rect) == reference_find(tree, oid, rect)


@given(scenarios())
@settings(max_examples=30, deadline=None)
def test_directory_equals_a_leaf_scan_and_find_entry_agrees(scenario):
    dim, fanout, steps = scenario
    tree = RTree(RTreeConfig(max_entries=fanout, universe=Rect((0,) * dim, (1,) * dim)))
    model = {}  # oid -> (rect, tombstoned)
    gone = {}  # physically deleted oid -> its last rect
    next_oid = 0
    for kind, rect, pick in steps:
        live = sorted(o for o, (_, dead) in model.items() if not dead)
        dead = sorted(o for o, (_, d) in model.items() if d)
        if kind == "insert":
            tree.insert(next_oid, rect)
            model[next_oid] = (rect, False)
            next_oid += 1
        elif kind == "tombstone" and live:
            oid = live[pick % len(live)]
            tree.set_tombstone(oid, model[oid][0], True)
            model[oid] = (model[oid][0], True)
        elif kind == "untombstone" and dead:
            oid = dead[pick % len(dead)]
            tree.set_tombstone(oid, model[oid][0], False)
            model[oid] = (model[oid][0], False)
        elif kind == "delete" and model:
            oid = sorted(model)[pick % len(model)]
            stored, _ = model.pop(oid)
            gone[oid] = stored
            report = tree.delete(oid, stored, collect_orphans=True)
            pending = list(report.orphans)
            while pending:
                # Objects in flight are absent from the directory and
                # from the tree until their orphan is re-inserted.
                assert tree.directory == scanned_directory(tree)
                in_flight = [e for orphan, _ in pending for e in data_entries(tree, orphan)]
                for e in in_flight:
                    assert e.oid not in tree.directory
                    assert tree.find_entry(e.oid, e.rect) is None
                check_locates(tree, [(e.oid, e.rect) for e in in_flight])
                orphan, level = pending.pop(0)
                tree.reinsert_entry(orphan, level)
        assert tree.directory == scanned_directory(tree)
        assert set(tree.directory) == set(model)
        check_locates(
            tree,
            [(o, r) for o, (r, _) in model.items()]
            + [(o, rect) for o in model]
            + list(gone.items())
            + [(next_oid, rect)],
        )
    validate_tree(tree)
