"""Figure 3: hazards from shrinking external granules.

When an insertion grows a leaf granule, the bounding rectangles of its
ancestors are adjusted bottom-up, and the external granules of those
ancestors *shrink*.  A transaction holding a lock on such an external
granule would silently lose coverage.  §3.3's fix: the inserter takes a
short-duration SIX lock on every external granule that changes, which
conflicts with any holder; and if the inserter *itself* held an S lock on
the shrinking external granule, the growing granules inherit that S lock
(Table 3, footnote).
"""

from repro.concurrency import find_phantoms
from repro.core import InsertionPolicy
from repro.geometry import Rect
from repro.lock.modes import LockMode, covers
from repro.lock.resource import ResourceId
from repro.rtree.tree import RTreeConfig
from repro.txn import TransactionAborted

from tests.conftest import build_manual_tree, rect
from tests.integration.util import TEN, adopt_manual_tree, make_sim_index

LEAVES = [
    [("r3a", rect(1, 1, 2, 2)), ("r3b", rect(2.5, 2.5, 3, 3))],  # R3: BR (1,1)-(3,3)
    [("r4a", rect(1, 4, 2, 5)), ("r4b", rect(2.5, 5.5, 3, 6))],  # R4: BR (1,4)-(3,6)
    [("r5a", rect(7, 7, 8, 8)), ("r5b", rect(8.5, 8.5, 9, 9))],  # R5: BR (7,7)-(9,9)
    [("r6a", rect(7, 4, 8, 4.5)), ("r6b", rect(8.5, 4.5, 9, 5))],  # R6: BR (7,4)-(9,5)
]
GROUPING = [[0, 1], [2, 3]]  # R1 = {R3, R4}, R2 = {R5, R6}

#: the object t1 inserts: lands in R3 (least enlargement), growing R3 and
#: therefore R1 into the root's external space
R15 = rect(4.0, 1.5, 4.5, 2.5)
#: scan region inside ext(root), overlapping R15 and the growth region
R16 = rect(3.5, 1.5, 4.2, 2.2)


def setup(policy, seed=0):
    sim, index, history = make_sim_index(policy=policy, max_entries=4, seed=seed)
    cfg = RTreeConfig(max_entries=4, min_entries=2, universe=TEN)
    tree, names = build_manual_tree(cfg, LEAVES, GROUPING)
    adopt_manual_tree(index, tree, names)
    return sim, index, history, names


class TestGeometry:
    def test_insert_grows_leaf_and_ancestor(self):
        _sim, index, _h, names = setup(InsertionPolicy.ON_GROWTH)
        plan = index.tree.plan_insert(R15)
        assert plan.leaf_id == names["leaf0"]
        assert plan.leaf_grows
        # both ext(R1) and ext(root) change
        assert set(plan.changed_external_parents) == {names["mid0"], names["root"]}

    def test_scan_region_lies_in_ext_root(self):
        _sim, index, _h, names = setup(InsertionPolicy.ON_GROWTH)
        refs = index.granules.overlapping(R16)
        assert [(r.resource.namespace.value, r.page_id) for r in refs] == [
            ("ext", names["root"])
        ]


class TestShrinkFencing:
    def test_insert_waits_for_ext_root_scanner(self):
        """t1's SIX on the shrinking ext(root) must queue behind the
        scanner's S lock: the insertion lands only after the scan commits."""
        sim, index, history, _names = setup(InsertionPolicy.ON_GROWTH)
        events = []

        def scanner():
            txn = index.begin("scanner")
            res = index.read_scan(txn, R16)
            events.append(("scan", sim.clock, res.oids))
            sim.checkpoint(100)
            res2 = index.read_scan(txn, R16)
            events.append(("rescan", sim.clock, res2.oids))
            index.commit(txn)
            events.append(("scan-commit", sim.clock))

        def inserter():
            sim.checkpoint(5)
            txn = index.begin("t1")
            try:
                index.insert(txn, "R15", R15)
                index.commit(txn)
                events.append(("insert-commit", sim.clock))
            except TransactionAborted:
                events.append(("insert-victim", sim.clock))

        sim.spawn("scanner", scanner)
        sim.spawn("inserter", inserter)
        sim.run()
        sim.raise_process_errors()

        first = next(e for e in events if e[0] == "scan")
        rescan = next(e for e in events if e[0] == "rescan")
        assert first[2] == rescan[2] == ()
        commit = next(e[1] for e in events if e[0] == "scan-commit")
        landed = [e[1] for e in events if e[0] == "insert-commit"]
        if landed:
            assert landed[0] >= commit
        assert find_phantoms(history) == []

    def test_naive_policy_loses_the_ext_coverage(self):
        """Without the SIX fence the inserter slides R15 under the
        scanner's nose: the re-scan sees it appear."""
        sim, index, history, _names = setup(InsertionPolicy.NAIVE)
        events = []

        def scanner():
            txn = index.begin("scanner")
            res = index.read_scan(txn, R16)
            events.append(("scan", res.oids))
            sim.checkpoint(100)
            res2 = index.read_scan(txn, R16)
            events.append(("rescan", res2.oids))
            index.commit(txn)

        def inserter():
            sim.checkpoint(5)
            with index.transaction("t1") as txn:
                index.insert(txn, "R15", R15)

        sim.spawn("scanner", scanner)
        sim.spawn("inserter", inserter)
        sim.run()
        sim.raise_process_errors()

        assert ("scan", ()) in events
        assert ("rescan", ("R15",)) in events
        assert any(r.kind == "instability" for r in find_phantoms(history))


class TestInheritance:
    def test_scanner_turned_inserter_inherits_coverage(self):
        """Table 3 footnote: a transaction holding S on a shrinking
        external granule must end up holding S on the granules that grew
        into it -- here the leaf R3 and ext(R1)."""
        _sim, index, _h, names = setup(InsertionPolicy.ON_GROWTH)
        txn = index.begin("t")
        index.read_scan(txn, R16)  # S on ext(root)
        lm = index.lock_manager
        assert lm.held_commit_mode(txn.txn_id, ResourceId.ext(names["root"])) == LockMode.S
        index.insert(txn, "R15", R15)
        # the growing chain inherited the S coverage:
        leaf_mode = lm.held_commit_mode(txn.txn_id, ResourceId.leaf(names["leaf0"]))
        mid_ext_mode = lm.held_commit_mode(txn.txn_id, ResourceId.ext(names["mid0"]))
        assert leaf_mode is not None and covers(leaf_mode, LockMode.S)
        assert mid_ext_mode is not None and covers(mid_ext_mode, LockMode.S)
        index.commit(txn)

    def test_non_scanner_does_not_take_inherited_locks(self):
        _sim, index, _h, names = setup(InsertionPolicy.ON_GROWTH)
        txn = index.begin("t")
        index.insert(txn, "R15", R15)
        lm = index.lock_manager
        leaf_mode = lm.held_commit_mode(txn.txn_id, ResourceId.leaf(names["leaf0"]))
        # plain inserter: commit IX on the granule, no S component
        assert leaf_mode == LockMode.IX
        index.commit(txn)
