"""Every index waits for a lock through the same loop, ``OpContext.retry``,
so every index counts the re-plans a refused lock forces.

A scanner holds commit S locks over a region; an insert into it is
refused, waits for the scanner's commit and plans again.  The insert's
``OpResult.restarts`` counts that re-plan on each index alike.
"""

import random

import pytest

from repro.baselines.zorder_krl import ZOrderKRLIndex
from repro.concurrency import SimulatedWait, Simulator
from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.kdbtree import KDBConfig, KDBPhantomIndex
from repro.lock import LockManager
from repro.rtree.tree import RTreeConfig

REGION = Rect((0.3, 0.3), (0.5, 0.5))


def _box(x, y, side=0.01):
    return Rect((x, y), (x + side, y + side))


#: index name -> (factory taking the lock manager, the object an
#: operation passes for position (x, y))
INDEXES = {
    "dgl": (
        lambda lm: PhantomProtectedRTree(RTreeConfig(max_entries=6), lock_manager=lm),
        _box,
    ),
    "kdb": (
        lambda lm: KDBPhantomIndex(KDBConfig(max_entries=6), lock_manager=lm),
        lambda x, y: (x, y),
    ),
    "zorder": (
        lambda lm: ZOrderKRLIndex(max_object_extent=0.02, lock_manager=lm),
        _box,
    ),
}


@pytest.mark.parametrize("name", sorted(INDEXES))
def test_insert_into_scanned_region_restarts_once(name):
    factory, shape = INDEXES[name]
    sim = Simulator(seed=0)
    index = factory(LockManager(wait_strategy=SimulatedWait(sim)))
    rng = random.Random(5)
    with index.transaction("load") as txn:
        for i in range(60):
            index.insert(txn, i, shape(rng.random() * 0.9, rng.random() * 0.9))
    outcome = {}

    def scanner():
        txn = index.begin("scanner")
        index.read_scan(txn, REGION)
        sim.checkpoint(50)
        outcome["scan_commit"] = sim.clock
        index.commit(txn)

    def inserter():
        sim.checkpoint(5)
        txn = index.begin("inserter")
        outcome["insert"] = index.insert(txn, "new", shape(0.4, 0.4))
        outcome["insert_done"] = sim.clock
        index.commit(txn)

    sim.spawn("scanner", scanner)
    sim.spawn("inserter", inserter)
    sim.run()
    sim.raise_process_errors()
    result = outcome["insert"]
    assert outcome["insert_done"] >= outcome["scan_commit"]
    assert result.lock_waits == 1
    assert result.restarts == 1
