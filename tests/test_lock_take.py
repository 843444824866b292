"""``LockManager.take``: one call per conditional lock set.

A seeded brute-force test builds random lock tables -- several holders,
short and commit units, queued plain requests and conversions, all five
modes -- twice, identically.  On one table ``take`` grants a random lock
set; on the other the per-want loop it replaced does (``holds_covering``,
then ``acquire(conditional=True)``, stopping at the first refusal).
Both must give the same refused index and granted wants, log the same
lock events and leave the same table.  ``release_all``, which visits
only the heads with waiters, is checked the same way against the
sort-every-resource version it replaced.
"""

import random

import pytest

from repro.lock import LockError, LockManager, LockMode, ResourceId
from repro.lock.manager import RequestStatus, WaitStrategy, _resource_order
from repro.lock.modes import LockDuration

MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)
DURATIONS = (LockDuration.SHORT, LockDuration.COMMIT)
RESOURCES = [ResourceId.leaf(i) for i in range(4)] + [ResourceId.ext(1), ResourceId.obj("o1")]
TXNS = [f"t{i}" for i in range(5)]
#: modes a want covers, to put a covered want after the one covering it
COVERED = {
    LockMode.X: MODES,
    LockMode.SIX: (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX),
    LockMode.S: (LockMode.IS, LockMode.S),
    LockMode.IX: (LockMode.IS, LockMode.IX),
    LockMode.IS: (LockMode.IS,),
}


class Park(WaitStrategy):
    """A wait that never ends: the builder's blocked requests stay queued
    (``acquire`` gives up on them with ``LockTimeout``)."""

    def wait(self, manager, request, timeout):
        pass

    def notify(self, manager, request):
        pass


def build(seed):
    """A lock table with holders and waiters, from ``seed`` alone; the
    returned log holds every lock event."""
    rng = random.Random(seed)
    log = []
    lm = LockManager(
        wait_strategy=Park(), obs_sink=lambda event, **fields: log.append((event, fields))
    )
    for _ in range(rng.randrange(8, 40)):
        txn = rng.choice(TXNS)
        roll = rng.random()
        if roll < 0.08:
            lm.end_operation(txn)
        elif roll < 0.1:
            lm.release_all(txn)
        else:
            try:
                lm.acquire(
                    txn, rng.choice(RESOURCES), rng.choice(MODES), rng.choice(DURATIONS),
                    conditional=rng.random() < 0.3,
                )
            except LockError:  # parked for good, or a deadlock victim
                pass
    return lm, log


def random_wants(rng):
    wants = []
    for _ in range(rng.randrange(1, 9)):
        if wants and rng.random() < 0.3:
            # a want an earlier want of the set covers: S then S, SIX
            # then IX, a short want under a commit one
            resource, mode, duration = rng.choice(wants)
            if duration is LockDuration.COMMIT:
                duration = rng.choice(DURATIONS)
            wants.append((resource, rng.choice(COVERED[mode]), duration))
        else:
            wants.append((rng.choice(RESOURCES), rng.choice(MODES), rng.choice(DURATIONS)))
    return wants


def per_want_loop(lm, txn, wants):
    """The loop ``take`` replaced."""
    granted = []
    for idx, want in enumerate(wants):
        resource, mode, duration = want
        if lm.holds_covering(txn, resource, mode, duration):
            continue
        if not lm.acquire(txn, resource, mode, duration, conditional=True):
            return idx, granted
        granted.append(want)
    return None, granted


def sort_every_resource_release_all(lm, txn_id):
    """The ``release_all`` that sorted every resource the transaction
    touched and re-checked each queue."""
    with lm._mutex:
        lm._short_holds.pop(txn_id, None)
        for resource in sorted(lm._txn_resources.pop(txn_id, ()), key=_resource_order):
            head = lm._heads[resource]
            changed = head.granted.pop(txn_id, None) is not None
            for request in list(head.queue):
                if request.txn_id == txn_id:
                    lm._dequeue(head, request)
                    request.status = RequestStatus.ABORTED
                    request.error = LockError(f"transaction {txn_id!r} terminated")
                    lm._emit_wait("lock.abort", request)
                    lm.wait_strategy.notify(lm, request)
                    changed = True
            if changed and head.queue:
                lm._process_queue(head)
        lm._txn_order.pop(txn_id, None)
        if lm.obs_sink is not None:
            lm.obs_sink("lock.release_all", txn=txn_id)


def table(lm):
    """Everything a grant can touch, in comparable form."""
    return {
        "heads": [
            (
                resource,
                head.seq,
                [(txn, dict(held.counts)) for txn, held in head.granted.items()],
                [(r.txn_id, r.mode, r.duration, r.conversion, r.status) for r in head.queue],
            )
            for resource, head in lm._heads.items()
        ],
        "waiting": sorted(head.seq for head in lm._waiting),
        "queued": lm._queued,
        "acquisition_counts": dict(lm.acquisition_counts),
        "short_holds": {txn: list(holds) for txn, holds in lm._short_holds.items()},
        "txn_resources": {txn: set(res) for txn, res in lm._txn_resources.items()},
        "txn_order": dict(lm._txn_order),
    }


def coverage(lm):
    return [
        lm.holds_covering(txn, resource, mode, duration)
        for txn in TXNS + ["fresh"]
        for resource in RESOURCES
        for mode in MODES
        for duration in DURATIONS
    ]


@pytest.mark.parametrize("seed", range(100))
def test_take_matches_the_per_want_loop(seed):
    rng = random.Random(-seed - 1)
    new, new_log = build(seed)
    old, old_log = build(seed)
    assert table(new) == table(old)
    for _ in range(3):
        txn = rng.choice(TXNS + ["fresh"])
        wants = random_wants(rng)
        assert new.take(txn, wants) == per_want_loop(old, txn, wants)
        assert new_log == old_log
        assert table(new) == table(old)
        assert coverage(new) == coverage(old)


@pytest.mark.parametrize("seed", range(100))
def test_release_all_matches_sorting_every_resource(seed):
    new, new_log = build(seed)
    old, old_log = build(seed)
    for txn in random.Random(seed).sample(TXNS, len(TXNS)):
        new.release_all(txn)
        sort_every_resource_release_all(old, txn)
        assert new_log == old_log
        assert table(new) == table(old)
    assert new.outstanding() == (0, 0)


def test_the_tables_are_not_vacuous():
    """Between them the seeds queue plain requests and conversions, the
    lock sets see grants, refusals and covered wants, and ``release_all``
    cancels waits and wakes waiters."""
    seen = {"plain": 0, "conversion": 0, "refused": 0, "granted": 0, "covered": 0}
    for seed in range(100):
        lm, log = build(seed)
        for head in lm._heads.values():
            for request in head.queue:
                seen["conversion" if request.conversion else "plain"] += 1
        rng = random.Random(-seed - 1)
        for _ in range(3):
            txn = rng.choice(TXNS + ["fresh"])
            wants = random_wants(rng)
            refused, granted = lm.take(txn, wants)
            seen["refused"] += refused is not None
            seen["granted"] += len(granted)
            asked = len(wants) if refused is None else refused
            seen["covered"] += asked - len(granted)
        del log[:]
        for txn in TXNS:
            lm.release_all(txn)
        for event, _fields in log:
            seen[event] = seen.get(event, 0) + 1
    assert all(seen.get(key, 0) >= 20 for key in (*seen, "lock.abort", "lock.grant")), seen


class TestCoveredWantsInOneSet:
    def test_s_then_s_is_granted_once(self):
        lm = LockManager()
        r = ResourceId.leaf(1)
        want = (r, LockMode.S, LockDuration.COMMIT)
        assert lm.take("a", [want, want]) == (None, [want])
        assert lm.acquisition_counts == {"S": 1}

    def test_six_then_ix_is_granted_once(self):
        lm = LockManager()
        r = ResourceId.ext(1)
        six, ix = (r, LockMode.SIX, LockDuration.SHORT), (r, LockMode.IX, LockDuration.SHORT)
        assert lm.take("a", [six, ix]) == (None, [six])
        assert lm.locks_of("a") == {r: {(LockMode.SIX, LockDuration.SHORT): 1}}

    def test_a_short_unit_does_not_cover_a_commit_want(self):
        lm = LockManager()
        r = ResourceId.leaf(1)
        short, commit = (r, LockMode.S, LockDuration.SHORT), (r, LockMode.S, LockDuration.COMMIT)
        assert lm.take("a", [short, commit]) == (None, [short, commit])

    def test_stops_at_the_first_refusal(self):
        lm = LockManager()
        r1, r2, r3 = ResourceId.leaf(1), ResourceId.leaf(2), ResourceId.leaf(3)
        assert lm.acquire("b", r2, LockMode.X)
        wants = [(r1, LockMode.S, LockDuration.COMMIT), (r2, LockMode.S, LockDuration.COMMIT),
                 (r3, LockMode.S, LockDuration.COMMIT)]
        assert lm.take("a", wants) == (1, [wants[0]])
        assert lm.held_mode("a", r3) is None
