"""The lock manager's index of heads with waiters, and the order key.

The deadlock sweep, a victim's wake-up pass and ``waiting_requests``
visit only the heads whose wait queue is not empty, sorted by creation
number.  A randomized differential test drives simulated transactions
into waits and deadlocks over a table full of idle heads and, at every
lock event, compares the indexed view with a brute-force one built from
every head in insertion order.
"""

import random

import pytest

from repro.concurrency import SimulatedWait, Simulator
from repro.lock import DeadlockError, LockManager, LockMode, ResourceId
from repro.lock.manager import _resource_order
from repro.lock.modes import LockDuration, compatible
from repro.lock.resource import Namespace

#: IS is the one mode a new request can conflict with no holder while
#: every waiter ahead of it is a conversion it is compatible with; such
#: a request is granted at once.  Queued instead, it waited with no
#: waits-for edge, and seeds 34 and 38 ended with every client blocked.
MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)


def reference_graph(lm):
    """The waits-for graph over every head, in lock-table insertion order."""
    graph = {}
    for head in lm._heads.values():
        for idx, request in enumerate(head.queue):
            blockers = set()
            for other, held in head.granted.items():
                effective = held.effective()
                if other != request.txn_id and effective is not None:
                    if not compatible(request.mode, effective):
                        blockers.add(other)
            for earlier in head.queue[:idx]:
                if earlier.txn_id != request.txn_id and not compatible(request.mode, earlier.mode):
                    blockers.add(earlier.txn_id)
            # the FIFO barrier, for a request nothing else blocks: the
            # first earlier plain request that some holder blocks
            for earlier in head.queue[:idx] if not blockers else ():
                held = head.granted.get(earlier.txn_id)
                plain = not earlier.conversion and (held is None or held.empty())
                if plain and any(
                    other != earlier.txn_id
                    and h.effective() is not None
                    and not compatible(earlier.mode, h.effective())
                    for other, h in head.granted.items()
                ):
                    if earlier.txn_id != request.txn_id:
                        blockers.add(earlier.txn_id)
                    break
            if blockers:
                graph.setdefault(request.txn_id, set()).update(blockers)
    return graph


class Checker:
    """An obs sink that compares the indexed and brute-force views on
    every lock event (it runs under the manager mutex)."""

    def __init__(self):
        self.lm = None
        self.checks = 0
        self.events = {}

    def __call__(self, event, **fields):
        self.events[event] = self.events.get(event, 0) + 1
        lm = self.lm
        assert list(lm._waits_for_locked().items()) == list(reference_graph(lm).items())
        assert lm._waiting == {h for h in lm._heads.values() if h.queue}
        assert lm.waiting_requests() == [r for h in lm._heads.values() for r in h.queue]
        self.checks += 1


def run_seed(seed, clients=8, hot=6, idle=40, steps=14):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    checker = Checker()
    lm = LockManager(wait_strategy=SimulatedWait(sim, strict=True), obs_sink=checker)
    checker.lm = lm
    # Idle heads first and interleaved: every hot resource sits among
    # heads nobody ever waits on.
    names = [ResourceId.leaf(i) for i in range(idle)]
    hot_names = [ResourceId.ext(i) for i in range(hot)] + [ResourceId.obj(f"o{i}") for i in range(hot)]
    for name in hot_names:
        names.insert(rng.randrange(len(names) + 1), name)
    for name in names:
        lm.acquire("loader", name, LockMode.S)
    lm.release_all("loader")

    def client(w):
        crng = random.Random(seed * 1000 + w)

        def body():
            for attempt in range(3):
                txn = f"t{w}.{attempt}"
                try:
                    for _ in range(steps):
                        name = crng.choice(hot_names if crng.random() < 0.8 else names)
                        duration = LockDuration.SHORT if crng.random() < 0.3 else LockDuration.COMMIT
                        lm.acquire(txn, name, crng.choice(MODES), duration)
                        if crng.random() < 0.2:
                            lm.end_operation(txn)
                        sim.checkpoint(crng.random() * 3.0)
                    lm.release_all(txn)
                    return
                except DeadlockError:
                    lm.release_all(txn)
                    sim.checkpoint(1.0 + crng.random())

        return body

    for w in range(clients):
        sim.spawn(f"c{w}", client(w), delay=w * 0.1)
    sim.run()
    sim.raise_process_errors()
    assert lm.outstanding() == (0, 0)
    assert not lm._waiting
    return lm, checker


@pytest.mark.parametrize("seed", [*range(6), 34, 38])
def test_waiter_index_matches_brute_force(seed):
    lm, checker = run_seed(seed)
    assert checker.events.get("lock.enqueue", 0) > 0
    assert checker.checks > 0


def test_differential_runs_reach_deadlocks():
    """The seeds above are not vacuous: between them they abort victims
    and release with waiters queued."""
    totals = {"deadlocks": 0, "aborts": 0, "grants": 0}
    for seed in range(6):
        lm, checker = run_seed(seed)
        totals["deadlocks"] += lm.deadlock_count
        totals["aborts"] += checker.events.get("lock.abort", 0)
        totals["grants"] += checker.events.get("lock.grant", 0)
    assert totals["deadlocks"] >= 3
    assert totals["aborts"] >= 3
    assert totals["grants"] >= 10


def test_outstanding_counts_a_stale_waiter_entry():
    lm = LockManager()
    lm.acquire("a", ResourceId.leaf(1), LockMode.S)
    head = lm._heads[ResourceId.leaf(1)]
    lm._waiting.add(head)  # a head with an empty queue left in the index
    lm.release_all("a")
    assert lm.outstanding() == (0, 1)


class TestSortKey:
    CASES = [
        ResourceId.leaf(7),
        ResourceId.ext(12),
        ResourceId.obj(3),
        ResourceId.obj("oid-3"),
        ResourceId.tree(),
        ResourceId(Namespace.OBJECT, ("krl", 5)),
        ResourceId(Namespace.OBJECT, ("krl", (0.25, "hi"))),
    ]

    @pytest.mark.parametrize("resource", CASES, ids=repr)
    def test_equals_namespace_and_key_repr(self, resource):
        assert resource.sort_key == (resource.namespace.value, repr(resource.key))
        assert _resource_order(resource) == resource.sort_key

    def test_equal_ids_share_the_key(self):
        a = ResourceId(Namespace.OBJECT, ("krl", 5))
        b = ResourceId(Namespace.OBJECT, ("krl", 5))
        assert a == b and hash(a) == hash(b) and a.sort_key == b.sort_key

    def test_sorts_as_the_computed_tuple(self):
        names = self.CASES + [ResourceId.leaf(i) for i in (10, 2, 1)]
        expected = sorted(names, key=lambda r: (r.namespace.value, repr(r.key)))
        assert sorted(names, key=lambda r: r.sort_key) == expected
