"""The stress-run correctness oracle.

After a run completes, the oracle re-examines everything the harness
recorded -- the operation history and the final index state -- and
returns a list of :class:`Violation` items.  A clean run returns the
empty list.  Table 3's lock patterns are not checked here: the online
auditor (:mod:`repro.obs.auditor`) checks them on every stress run, as
the locks are taken.

Checks, in order:

1. **Phantoms / visibility** -- :func:`repro.concurrency.checker.
   find_phantoms` re-executes every committed scan against the serialized
   history (the paper's anomaly, checked directly).
2. **Conflict serializability** -- the predicate-aware conflict graph must
   be acyclic.
3. **Lost updates** -- no committed transaction's write lands between
   another committed transaction's write to the same object and that
   transaction's commit (strict 2PL makes this impossible; an occurrence
   means an X lock was lost).
4. **Structural invariants** -- no leaked lock-table entries, no parked
   waiters left registered, balanced lock wait events (checked by the
   harness with :func:`check_wait_events`), the deferred-delete queue
   drained, the R-tree's structural invariants and object directory
   (:func:`repro.rtree.validate.validate_tree`), granule coverage
   without gaps (globally, and node by node: no
   entry rect sticking out of its child's MBR or the universe), the
   granule walk agreeing with :func:`reference_overlapping` for the
   universe and every scan predicate, and the final tree contents equal
   to the replayed history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Set, Union

from repro.concurrency.checker import (
    SerializabilityViolation,
    check_conflict_serializable,
    find_phantoms,
)
from repro.concurrency.history import History, OpKind
from repro.core.granules import GranuleRef, GranuleSet
from repro.geometry import Rect, Region
from repro.lock.resource import ResourceId
from repro.rtree.validate import RTreeInvariantError, validate_tree


@dataclass(frozen=True)
class Violation:
    """One oracle finding."""

    #: "phantom" | "serializability" | "lost-update" | "invariant" | "audit"
    #: | "process" (a simulated process or the post-run oracle raised)
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


# ---------------------------------------------------------------------------
# 3. lost updates
# ---------------------------------------------------------------------------

_HISTORY_WRITES = (OpKind.INSERT, OpKind.DELETE, OpKind.UPDATE_SINGLE, OpKind.UPDATE_SCAN)


def find_lost_updates(history: History) -> List[Violation]:
    """Writes by committed transactions must not interleave inside another
    committed transaction's write-to-commit window on the same object."""
    commit_seqs: Dict[Hashable, int] = {}
    for op in history.ops:
        if op.kind is OpKind.COMMIT:
            commit_seqs[op.txn] = op.seq

    def write_set(op) -> Set[Hashable]:
        if op.kind is OpKind.UPDATE_SCAN:
            return set(op.result)
        if op.kind is OpKind.UPDATE_SINGLE and not op.result:
            return set()  # object not found: nothing written
        return {op.oid} if op.oid is not None else set()

    writes = [
        op for op in history.ops if op.kind in _HISTORY_WRITES and op.txn in commit_seqs
    ]
    out: List[Violation] = []
    for a in writes:
        window_end = commit_seqs[a.txn]
        targets = write_set(a)
        if not targets:
            continue
        for b in writes:
            if b.txn == a.txn or not (a.seq < b.seq < window_end):
                continue
            clobbered = targets & write_set(b)
            if clobbered:
                out.append(
                    Violation(
                        "lost-update",
                        f"{b.txn!r} wrote {sorted(map(str, clobbered))} at seq {b.seq} "
                        f"inside {a.txn!r}'s write({a.seq})-to-commit({window_end}) window",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# 4. structural invariants
# ---------------------------------------------------------------------------

def check_structure(index, strategy) -> List[Violation]:
    """Post-run invariants over the index, lock table and wait strategy."""
    out: List[Violation] = []
    # ``queued`` also counts heads left in the lock manager's waiter
    # index with an empty queue, so the index must be empty too.
    holds, queued = index.lock_manager.outstanding()
    if holds or queued:
        out.append(
            Violation(
                "invariant",
                f"lock table not empty after run: {holds} holds, {queued} queued",
            )
        )
    leftover_waiters = getattr(strategy, "outstanding", lambda: 0)()
    if leftover_waiters:
        out.append(
            Violation(
                "invariant",
                f"{leftover_waiters} parked waiter(s) still registered in the "
                "wait strategy -- a wait path unwound without deregistering",
            )
        )
    if len(index.deferred):
        out.append(
            Violation(
                "invariant",
                f"deferred-delete queue not drained: {len(index.deferred)} pending",
            )
        )
    try:
        validate_tree(index.tree)
    except RTreeInvariantError as exc:
        out.append(Violation("invariant", f"R-tree: {exc}"))
    gaps = index.granules.coverage_leftover()
    if not gaps.is_empty():
        out.append(
            Violation("invariant", f"granule coverage has gaps: {gaps.parts!r}")
        )
    for page_id, entry_rect in index.granules.loose_entries():
        out.append(
            Violation(
                "invariant",
                f"entry {entry_rect!r} of page {page_id} sticks out of the "
                "space its granules cover",
            )
        )
    return out


def check_wait_events(wait_events: Dict[str, int], wait_count: int) -> List[Violation]:
    """The lock manager's wait events must balance: one ``enqueue`` per
    counted wait, each closed by exactly one grant, abort or timeout."""
    enqueued = wait_events.get("enqueue", 0)
    closed = sum(wait_events.get(name, 0) for name in ("grant", "abort", "timeout"))
    if enqueued == closed == wait_count:
        return []
    detail = (
        f"wait events do not balance: {enqueued} enqueue(s), {closed} "
        f"grant/abort/timeout(s), {wait_count} counted wait(s)"
    )
    return [Violation("invariant", detail)]


def reference_overlapping(granules: GranuleSet, predicate: Union[Rect, Region]) -> List[GranuleRef]:
    """:meth:`GranuleSet.overlapping` the long way: build every visited
    node's external region with ``Region.difference`` and intersect it.

    Same walk, same refs in the same order (lock order drives the
    schedule), without touching the pager's I/O accounting.
    """
    tree = granules.tree
    parts = (predicate,) if isinstance(predicate, Rect) else predicate.parts
    refs: List[GranuleRef] = []
    if not parts:
        return refs
    root = tree.root(count_io=False)
    if root.is_leaf:
        return [GranuleRef(ResourceId.leaf(root.page_id), True, root.page_id)]
    stack = [root]
    while stack:
        node = stack.pop()
        ext = granules.external_region(node)
        if any(
            ext.intersects_open(p) or (p.is_degenerate() and ext.intersects(p))
            for p in parts
        ):
            refs.append(GranuleRef(ResourceId.ext(node.page_id), False, node.page_id))
        for entry in node.entries:
            if not any(entry.rect.intersects(p) for p in parts):
                continue
            if node.level == 1:
                refs.append(GranuleRef(ResourceId.leaf(entry.child_id), True, entry.child_id))
            else:
                stack.append(tree.node(entry.child_id, count_io=False))
    return refs


class _UncountedReads:
    """A view of a tree whose node fetches skip I/O accounting, so the
    post-run walk leaves the run's statistics and trace untouched."""

    def __init__(self, tree) -> None:
        self._tree = tree

    def node(self, page_id, count_io: bool = True):
        return self._tree.node(page_id, count_io=False)

    def root(self, count_io: bool = True):
        return self._tree.root(count_io=False)

    def __getattr__(self, name: str):
        return getattr(self._tree, name)


def check_granule_walk(history: History, index, universe: Rect) -> List[Violation]:
    """On the final tree, the lock path's granule walk must agree with
    :func:`reference_overlapping` for the universe and for every scan
    predicate in the history."""
    predicates = [universe] + [
        op.rect
        for op in history.ops
        if op.kind in (OpKind.READ_SCAN, OpKind.UPDATE_SCAN) and op.rect is not None
    ]
    granules = GranuleSet(_UncountedReads(index.tree))
    out: List[Violation] = []
    for predicate in dict.fromkeys(predicates):
        got = granules.overlapping(predicate)
        want = reference_overlapping(granules, predicate)
        if got != want:
            out.append(
                Violation(
                    "invariant",
                    f"granule walk for {predicate!r} took "
                    f"{[ref.resource for ref in got]}, reference "
                    f"{[ref.resource for ref in want]}",
                )
            )
    return out


def check_final_state(history: History, index, universe: Rect) -> List[Violation]:
    """The tree's final contents must equal the committed history replayed."""
    commit_seqs: Dict[Hashable, int] = {}
    for op in history.ops:
        if op.kind is OpKind.COMMIT:
            commit_seqs[op.txn] = op.seq
    expected: Dict[Hashable, Rect] = dict(history.initial)
    for op in history.ops:
        if op.txn not in commit_seqs:
            continue
        if op.kind is OpKind.INSERT and op.rect is not None:
            expected[op.oid] = op.rect
        elif op.kind is OpKind.DELETE:
            expected.pop(op.oid, None)
    actual = {
        e.oid: e.rect for e in index.tree.search(universe) if not e.tombstone
    }
    if actual != expected:
        missing = sorted(map(str, set(expected) - set(actual)))
        extra = sorted(map(str, set(actual) - set(expected)))
        out = [
            Violation(
                "invariant",
                f"final tree state diverges from committed history: "
                f"missing={missing} extra={extra}",
            )
        ]
        return out
    return []


# ---------------------------------------------------------------------------
# the whole battery
# ---------------------------------------------------------------------------

def check_run(
    history: History,
    index,
    strategy,
    universe: Rect,
) -> List[Violation]:
    """Run every oracle check; return all violations found."""
    out: List[Violation] = []
    for report in find_phantoms(history):
        out.append(
            Violation(
                "phantom",
                f"{report.kind} for reader {report.reader!r} "
                f"(scan seq {report.scan_seq}): {report.detail}",
            )
        )
    try:
        check_conflict_serializable(history)
    except SerializabilityViolation as exc:
        out.append(Violation("serializability", str(exc)))
    out.extend(find_lost_updates(history))
    out.extend(check_structure(index, strategy))
    out.extend(check_granule_walk(history, index, universe))
    out.extend(check_final_state(history, index, universe))
    return out
