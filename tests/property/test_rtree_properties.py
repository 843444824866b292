"""Property-based tests: the R-tree under random operation sequences."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.rtree import RTree, RTreeConfig, validate_tree
from repro.rtree.report import GrowthRecord

coord = st.floats(min_value=0, max_value=1, allow_nan=False, allow_infinity=False)


@st.composite
def small_rects(draw):
    x = draw(st.floats(min_value=0, max_value=0.95, allow_nan=False))
    y = draw(st.floats(min_value=0, max_value=0.95, allow_nan=False))
    w = draw(st.floats(min_value=0, max_value=0.05, allow_nan=False))
    h = draw(st.floats(min_value=0, max_value=0.05, allow_nan=False))
    return Rect((x, y), (x + w, y + h))


ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "search"]), small_rects()),
    min_size=1,
    max_size=120,
)


@given(ops, st.integers(min_value=4, max_value=10))
@settings(max_examples=60, deadline=None)
def test_tree_matches_reference_model(operations, fanout):
    """The R-tree must agree with a brute-force dict model after any
    sequence of inserts, deletes and searches, and stay structurally
    valid throughout."""
    tree = RTree(RTreeConfig(max_entries=fanout))
    model = {}
    next_oid = 0
    rng = random.Random(42)
    for kind, rect in operations:
        if kind == "insert":
            tree.insert(next_oid, rect)
            model[next_oid] = rect
            next_oid += 1
        elif kind == "delete" and model:
            oid = rng.choice(list(model))
            tree.delete(oid, model.pop(oid))
        elif kind == "search":
            got = sorted(e.oid for e in tree.search(rect))
            want = sorted(oid for oid, r in model.items() if r.intersects(rect))
            assert got == want
    validate_tree(tree)
    assert len(tree) == len(model)
    got = sorted(e.oid for e in tree.search(Rect((0, 0), (1, 1))))
    assert got == sorted(model)


@given(st.lists(small_rects(), min_size=1, max_size=80), st.integers(min_value=4, max_value=8))
@settings(max_examples=40, deadline=None)
def test_every_inserted_object_findable(rect_list, fanout):
    tree = RTree(RTreeConfig(max_entries=fanout))
    for i, rect in enumerate(rect_list):
        tree.insert(i, rect)
    for i, rect in enumerate(rect_list):
        located = tree.find_entry(i, rect)
        assert located is not None and located[1].rect == rect


@given(st.lists(small_rects(), min_size=2, max_size=60))
@settings(max_examples=40, deadline=None)
def test_plan_never_lies_about_target(rect_list):
    """plan_insert's chosen leaf must be where the entry actually lands."""
    tree = RTree(RTreeConfig(max_entries=5))
    for i, rect in enumerate(rect_list):
        plan = tree.plan_insert(rect)
        report = tree.insert(i, rect)
        assert report.target_leaf == plan.leaf_id


@given(st.lists(small_rects(), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_tombstones_equivalent_to_absence_for_search(rect_list):
    tree = RTree(RTreeConfig(max_entries=5))
    for i, rect in enumerate(rect_list):
        tree.insert(i, rect)
    # tombstone every even object
    for i, rect in enumerate(rect_list):
        if i % 2 == 0:
            tree.set_tombstone(i, rect, True)
    got = sorted(e.oid for e in tree.search(Rect((0, 0), (1, 1))))
    assert got == [i for i in range(len(rect_list)) if i % 2 == 1]
    # physical layout unchanged: tombstoned entries still present
    assert len(tree.all_entries(include_tombstones=True)) == len(rect_list)


def _mbr_snapshot(tree):
    """Every node's MBR, recomputed from its entries."""
    return {node.page_id: node.mbr() for node in tree.iter_nodes()}


def _checked_insert(tree, insert, rect, level, use_plan):
    """Run one insert (``insert(plan)``) and check its growth records
    against a reference that recomputes ``Node.mbr()`` before and after
    it: each path node whose MBR moved, root first, with its path parent."""
    before = _mbr_snapshot(tree)
    plan = tree.plan_insert(rect, target_level=level)
    report = insert(plan if use_plan else None)
    expected = []
    parent = None
    for page_id in plan.path_ids:
        node = tree.pager.peek(page_id).payload
        if node.mbr() != before[page_id]:
            expected.append(GrowthRecord(page_id, node.level, before[page_id], node.mbr(), parent))
        parent = page_id
    assert report.growth == expected


growth_steps = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete"]), small_rects(), st.booleans()),
    min_size=1,
    max_size=80,
)


@given(
    st.lists(small_rects(), min_size=8, max_size=40),
    growth_steps,
    st.integers(min_value=4, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_growth_records_match_recomputed_mbrs(preload, steps, fanout):
    """Inserts and orphan re-insertions derive each path node's MBR from
    its parent entry and ``old ∪ rect``; the growth records they report
    must equal a reference that recomputes ``Node.mbr()`` before and after
    every step.  The preload overflows the root leaf (fanout <= 6), so
    every example splits and grows the root."""
    tree = RTree(RTreeConfig(max_entries=fanout))
    model = {}
    rng = random.Random(7)
    steps = [("insert", rect, i % 2 == 0) for i, rect in enumerate(preload)] + steps
    for step, (kind, rect, use_plan) in enumerate(steps):
        if kind == "insert" or not model:
            _checked_insert(
                tree, lambda plan: tree.insert(step, rect, plan=plan), rect, 0, use_plan
            )
            model[step] = rect
        else:
            oid = rng.choice(sorted(model))
            nodes = {node.page_id: node for node in tree.iter_nodes()}
            before = {page_id: node.mbr() for page_id, node in nodes.items()}
            path_ids = tree.plan_delete(oid, model[oid]).path_ids
            report = tree.delete(oid, model.pop(oid), collect_orphans=True)
            # a delete's old MBRs come from the parent entries and its new
            # ones from CondenseTree, taken while its orphans are out and
            # before the root shrinks: recompute both from the nodes, which
            # nothing has touched since
            recorded = [g.page_id for g in report.growth]
            assert recorded == [p for p in path_ids if p in recorded]
            for g in report.growth:
                assert g.old_mbr == before[g.page_id]
                assert g.new_mbr == nodes[g.page_id].mbr()
                assert g.level == nodes[g.page_id].level
            for page_id in path_ids:
                if page_id not in report.eliminated and nodes[page_id].mbr() != before[page_id]:
                    assert page_id in recorded
            for entry, level in report.orphans:
                _checked_insert(
                    tree,
                    lambda plan: tree.reinsert_entry(entry, level, plan=plan),
                    entry.rect,
                    level,
                    use_plan,
                )
        validate_tree(tree)
