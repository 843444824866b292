"""Unit tests for protocol internals (lock plumbing, want ordering, wants
construction) -- the integration suite covers behaviour; these cover the
small pure functions directly."""

from repro.core import InsertionPolicy, PhantomProtectedRTree
from repro.core.protocol import SHORT, COMMIT, GranuleLockProtocol, OpContext
from repro.geometry import Rect
from repro.lock.manager import LockManager
from repro.lock.modes import LockMode
from repro.lock.resource import ResourceId
from repro.obs.auditor import FlightRecorder
from repro.rtree.tree import RTreeConfig

from tests.conftest import TEN, rect

S, X, IX, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.SIX


def _protocol():
    lm = LockManager()
    index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
    return lm, GranuleLockProtocol(index.tree, lm)


class TestShortFenceReacquired:
    """A short fence released while its context lives on must be taken
    again: the lock manager, not the context, says what is still held, so
    an operation never proceeds without the fence it thinks it holds."""

    RES = ResourceId.leaf(7)

    def test_context_reused_after_end_operation(self):
        # A retry wrapper reusing the context after protocol.end_operation.
        lm, protocol = _protocol()
        ctx = OpContext(lm, "t")
        want = (self.RES, SIX, SHORT)
        assert ctx.acquire_conditional([want]) is None
        protocol.end_operation(ctx)
        assert ctx.acquire_conditional([want]) is None
        assert ctx.taken == [want, want]
        assert lm.locks_of("t") == {self.RES: {(SIX, SHORT): 1}}

    def test_restart_after_out_of_band_end_operation(self):
        # Deadlock handling (or an injected fault) releases the operation's
        # short locks before the protocol restarts it.
        lm, protocol = _protocol()
        ctx = OpContext(lm, "t")
        want = (self.RES, IX, SHORT)
        assert ctx.acquire_conditional([want]) is None
        lm.end_operation("t")
        protocol._restart(ctx)
        assert ctx.restarts == 1
        assert ctx.acquire_conditional([want]) is None
        assert ctx.taken == [want, want]
        assert lm.locks_of("t") == {self.RES: {(IX, SHORT): 1}}

    def test_covered_want_in_the_same_pass_is_skipped(self):
        lm, protocol = _protocol()
        ctx = OpContext(lm, "t")
        six = (self.RES, SIX, COMMIT)
        assert ctx.acquire_conditional([six, (self.RES, S, SHORT)]) is None
        assert ctx.taken == [six]
        assert lm.locks_of("t") == {self.RES: {(SIX, COMMIT): 1}}

    def test_restart_fires_obs_sink(self):
        lm, protocol = _protocol()
        seen = []
        protocol.obs_sink = lambda event, **fields: seen.append((event, fields["tag"]))
        ctx = OpContext(lm, "t")
        protocol._restart(ctx)
        assert seen == [("op.phase", "restart")]


class TestHeldLocksAreNotRequestedAgain:
    """Locks an earlier operation of the same transaction left held cover
    the later operation's wants: nothing is requested twice, and the
    auditor still finds every Table 3 lock held where it looks."""

    def test_repeated_scan_and_reinsert_after_delete(self):
        index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=TEN))
        with index.transaction() as txn:
            for i in range(12):
                x, y = i % 4 * 2, i // 4 * 3
                index.insert(txn, f"o{i}", rect(x, y, x + 1, y + 1))
        recorder = FlightRecorder(capacity=4096).attach(index)
        lm = index.lock_manager
        predicate = rect(1, 1, 6, 6)
        txn = index.begin()
        first = index.read_scan(txn, predicate)
        assert first.locks_taken
        before = lm.total_acquisitions()
        again = index.read_scan(txn, predicate)
        assert again.locks_taken == []
        assert lm.total_acquisitions() == before
        assert again.oids == first.oids

        target = rect(2, 3, 3, 4)  # o5's rectangle
        index.delete(txn, "o5", target)
        reinsert = index.insert(txn, "o5", target)
        assert (ResourceId.obj("o5"), X, COMMIT) not in reinsert.locks_taken
        requested = [
            e for e in recorder.tracer.events
            if e["type"] == "lock.acquire" and e["resource"] == "obj:o5"
        ]
        assert [(e["mode"], e["duration"]) for e in requested] == [("X", "commit")]
        index.commit(txn)
        recorder.detach()
        assert recorder.ok, recorder.auditor.violations


class TestWantOrdering:
    def test_sorted_by_namespace_then_key(self):
        ctx = OpContext(LockManager(), "t")
        wants = [
            (ResourceId.obj("zz"), X, COMMIT),
            (ResourceId.leaf(3), IX, COMMIT),
            (ResourceId.ext(7), SIX, SHORT),
            (ResourceId.leaf(1), S, COMMIT),
        ]
        assert ctx.acquire_conditional(wants) is None
        namespaces = [w[0].namespace.value for w in ctx.taken]
        assert namespaces == sorted(namespaces)
        leaf_keys = [w[0].key for w in ctx.taken if w[0].namespace.value == "leaf"]
        assert leaf_keys == sorted(leaf_keys, key=repr)

    def test_order_is_total_and_stable(self):
        wants = [(ResourceId.leaf(i), IX, SHORT) for i in (5, 3, 9, 1)]
        a, b = OpContext(LockManager(), "t"), OpContext(LockManager(), "t")
        assert a.acquire_conditional(wants) is None
        assert b.acquire_conditional(list(reversed(wants))) is None
        assert [w[0] for w in a.taken] == [w[0] for w in b.taken]


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
        ctx = OpContext(index.lock_manager, "t")
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
        ctx = OpContext(index.lock_manager, "t")
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
        ctx = OpContext(index.lock_manager, "t")
        wants = index.protocol._insert_wants(ctx, plan, "new", rect(5, 8, 5.5, 8.5))
        assert any(r.namespace.value == "ext" for r, _m, _d in wants)

    def test_split_plan_requests_short_six_on_target(self):
        index = self.make(InsertionPolicy.ON_GROWTH)
        with index.transaction() as txn:
            for i in range(6):
                index.insert(txn, f"fill{i}", rect(1 + i * 0.1, 1, 1.05 + i * 0.1, 1.1))
        plan = index.tree.plan_insert(rect(1.5, 1.5, 1.6, 1.6))
        if plan.leaf_splits:
            ctx = OpContext(index.lock_manager, "t")
            wants = index.protocol._insert_wants(ctx, plan, "new", rect(1.5, 1.5, 1.6, 1.6))
            assert (ResourceId.leaf(plan.leaf_id), SIX, SHORT) in wants
