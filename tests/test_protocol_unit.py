"""Unit tests for protocol internals (OpContext, want ordering, wants
construction) -- the integration suite covers behaviour; these cover the
small pure functions directly."""

from repro.core import InsertionPolicy, PhantomProtectedRTree
from repro.core.protocol import SHORT, COMMIT, GranuleLockProtocol, OpContext
from repro.geometry import Rect
from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.lock.resource import ResourceId
from repro.rtree.tree import RTreeConfig

from tests.conftest import TEN, rect

S, X, IX, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.SIX


class TestOpContext:
    def test_holds_covering_same_lock(self):
        ctx = OpContext("t")
        want = (ResourceId.leaf(1), IX, COMMIT)
        assert not ctx.holds_covering(*want)
        ctx.granted(want)
        assert ctx.holds_covering(*want)

    def test_stronger_mode_covers_weaker(self):
        ctx = OpContext("t")
        ctx.granted((ResourceId.leaf(1), SIX, COMMIT))
        assert ctx.holds_covering(ResourceId.leaf(1), IX, COMMIT)
        assert ctx.holds_covering(ResourceId.leaf(1), S, COMMIT)
        assert not ctx.holds_covering(ResourceId.leaf(1), X, COMMIT)

    def test_commit_covers_short_but_not_vice_versa(self):
        ctx = OpContext("t")
        ctx.granted((ResourceId.leaf(1), IX, COMMIT))
        assert ctx.holds_covering(ResourceId.leaf(1), IX, SHORT)
        ctx2 = OpContext("t")
        ctx2.granted((ResourceId.leaf(2), IX, SHORT))
        assert not ctx2.holds_covering(ResourceId.leaf(2), IX, COMMIT)

    def test_different_resource_never_covers(self):
        ctx = OpContext("t")
        ctx.granted((ResourceId.leaf(1), X, COMMIT))
        assert not ctx.holds_covering(ResourceId.leaf(2), S, SHORT)


class TestDeadShortPruning:
    """The double-count bug: a SHORT entry in ``acquired`` whose lock was
    already released must not subsume a later SHORT want -- otherwise the
    operation proceeds without the fence it thinks it holds."""

    RES = ResourceId.leaf(7)

    def test_stale_short_would_double_count(self):
        # The raw repro: the bookkeeping says "held" after the lock died.
        lm = LockManager()
        ctx = OpContext("t")
        want = (self.RES, SIX, SHORT)
        assert lm.acquire("t", self.RES, SIX, SHORT, conditional=True)
        ctx.granted(want)
        lm.end_operation("t")  # e.g. a retry wrapper finishing attempt #1
        # Without pruning, holds_covering still subsumes the dead fence...
        assert ctx.holds_covering(*want)
        # ...and pruning removes exactly that entry.
        ctx.prune_dead_shorts(lm)
        assert not ctx.holds_covering(*want)
        assert self.RES not in ctx.acquired

    def test_prune_keeps_live_shorts_and_commit_locks(self):
        lm = LockManager()
        ctx = OpContext("t")
        live_short = (self.RES, IX, SHORT)
        commit_lock = (ResourceId.obj("o"), X, COMMIT)
        assert lm.acquire("t", self.RES, IX, SHORT, conditional=True)
        assert lm.acquire("t", ResourceId.obj("o"), X, COMMIT, conditional=True)
        ctx.granted(live_short)
        ctx.granted(commit_lock)
        ctx.prune_dead_shorts(lm)
        assert ctx.acquired == {self.RES: {(IX, SHORT)}, ResourceId.obj("o"): {(X, COMMIT)}}
        lm.release_all("t")

    def test_end_operation_drops_short_bookkeeping(self):
        # Protocol-level: end_operation releases the short locks *and*
        # forgets them, so a reused context re-acquires its fences.
        lm = LockManager()
        index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
        protocol = GranuleLockProtocol(index.tree, lm)
        ctx = OpContext("t")
        want = (self.RES, SIX, SHORT)
        assert lm.acquire("t", self.RES, SIX, SHORT, conditional=True)
        ctx.granted(want)
        protocol.end_operation(ctx)
        assert not ctx.holds_covering(*want)
        # A later conditional pass must re-acquire, not skip, the fence.
        blocked = protocol._acquire_conditional(ctx, [want])
        assert blocked is None
        assert lm.locks_of("t").get(self.RES, {}).get((SIX, SHORT), 0) == 1
        lm.release_all("t")

    def test_restart_path_prunes(self):
        # _restart (called before every unconditional wait) re-validates
        # the bookkeeping against the lock manager.
        lm = LockManager()
        index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
        protocol = GranuleLockProtocol(index.tree, lm)
        ctx = OpContext("t")
        want = (self.RES, IX, SHORT)
        assert lm.acquire("t", self.RES, IX, SHORT, conditional=True)
        ctx.granted(want)
        lm.end_operation("t")
        protocol._restart(ctx)
        assert ctx.restarts == 1
        assert not ctx.holds_covering(*want)

    def test_restart_fires_obs_sink(self):
        lm = LockManager()
        index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
        protocol = GranuleLockProtocol(index.tree, lm)
        seen = []
        protocol.obs_sink = lambda event, **fields: seen.append((event, fields["tag"]))
        ctx = OpContext("t")
        protocol._restart(ctx)
        assert seen == [("op.phase", "restart")]


class TestWantOrdering:
    def test_sorted_by_namespace_then_key(self):
        wants = [
            (ResourceId.obj("zz"), X, COMMIT),
            (ResourceId.leaf(3), IX, COMMIT),
            (ResourceId.ext(7), SIX, SHORT),
            (ResourceId.leaf(1), S, COMMIT),
        ]
        ordered = GranuleLockProtocol._ordered(wants)
        namespaces = [w[0].namespace.value for w in ordered]
        assert namespaces == sorted(namespaces)
        leaf_keys = [w[0].key for w in ordered if w[0].namespace.value == "leaf"]
        assert leaf_keys == sorted(leaf_keys, key=repr)

    def test_order_is_total_and_stable(self):
        wants = [(ResourceId.leaf(i), IX, SHORT) for i in (5, 3, 9, 1)]
        a = GranuleLockProtocol._ordered(wants)
        b = GranuleLockProtocol._ordered(list(reversed(wants)))
        assert [w[0] for w in a] == [w[0] for w in b]


class TestInsertWants:
    def make(self, policy):
        index = PhantomProtectedRTree(
            RTreeConfig(max_entries=8, universe=TEN), policy=policy
        )
        with index.transaction() as txn:
            index.insert(txn, "seed1", rect(1, 1, 2, 2))
            index.insert(txn, "seed2", rect(3, 3, 4, 4))
        return index

    def test_naive_wants_minimal(self):
        index = self.make(InsertionPolicy.NAIVE)
        plan = index.tree.plan_insert(rect(8, 8, 9, 9))  # boundary-changing
        ctx = OpContext("t")
        wants = index.protocol._insert_wants(ctx, plan, "new", rect(8, 8, 9, 9))
        assert wants == [
            (ResourceId.leaf(plan.leaf_id), IX, COMMIT),
            (ResourceId.obj("new"), X, COMMIT),
        ]

    def test_on_growth_adds_fences_only_when_growing(self):
        index = self.make(InsertionPolicy.ON_GROWTH)
        # force height >= 2 so growth has external granules to change
        with index.transaction() as txn:
            for i in range(8):
                index.insert(txn, f"fill{i}", rect(i, 0.2, i + 0.5, 0.6))
        assert index.tree.height >= 2
        interior = index.tree.plan_insert(rect(1.5, 1.5, 1.8, 1.8))
        ctx = OpContext("t")
        wants = index.protocol._insert_wants(ctx, interior, "new", rect(1.5, 1.5, 1.8, 1.8))
        if not interior.changes_boundaries:
            assert len(wants) == 2  # IX + X only
        growing = index.tree.plan_insert(rect(8, 8, 9, 9))
        assert growing.changes_boundaries
        wants = index.protocol._insert_wants(ctx, growing, "new2", rect(8, 8, 9, 9))
        assert len(wants) > 2
        assert any(m is SIX and d is SHORT for _r, m, d in wants)

    def test_all_paths_always_fences_overlapping(self):
        index = self.make(InsertionPolicy.ALL_PATHS)
        # an object poking into dead space overlaps ext(root)... single
        # leaf root? ensure height 2 first
        with index.transaction() as txn:
            for i in range(8):
                index.insert(txn, f"fill{i}", rect(i, 0.2, i + 0.5, 0.6))
        assert index.tree.height >= 2
        plan = index.tree.plan_insert(rect(5, 8, 5.5, 8.5))
        ctx = OpContext("t")
        wants = index.protocol._insert_wants(ctx, plan, "new", rect(5, 8, 5.5, 8.5))
        assert any(r.namespace.value == "ext" for r, _m, _d in wants)

    def test_split_plan_requests_short_six_on_target(self):
        index = self.make(InsertionPolicy.ON_GROWTH)
        with index.transaction() as txn:
            for i in range(6):
                index.insert(txn, f"fill{i}", rect(1 + i * 0.1, 1, 1.05 + i * 0.1, 1.1))
        plan = index.tree.plan_insert(rect(1.5, 1.5, 1.6, 1.6))
        if plan.leaf_splits:
            ctx = OpContext("t")
            wants = index.protocol._insert_wants(ctx, plan, "new", rect(1.5, 1.5, 1.6, 1.6))
            assert (ResourceId.leaf(plan.leaf_id), SIX, SHORT) in wants
