"""Every index's ``OpResult.locks_taken`` is the operation's own grants.

All seven index kinds take their locks through the operation's
:class:`~repro.core.protocol.OpContext`, so the per-operation records
partition the lock table's grant count: summed over every operation of a
simulated run with lock waits (deadlock victims included), they equal
the grants the run made.  An operation that waits is not charged for
the locks other transactions took meanwhile.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.baselines import ZOrderKRLIndex
from repro.concurrency import History, Simulator
from repro.experiments.runner import INDEX_KINDS, RunConfig, _traffic, _workload, build_index
from repro.geometry import Rect
from repro.kdbtree import KDBConfig, KDBPhantomIndex
from repro.workloads import MixSpec
from repro.workloads.clients import spawn_clients

#: small and contended: every kind waits (and most deadlock) on seed 1
CONFIG = RunConfig(
    fanout=6,
    n_preload=40,
    n_workers=6,
    txns_per_worker=2,
    ops_per_txn=3,
    seed=1,
    mix=MixSpec(
        read_scan=0.4,
        insert=0.3,
        delete=0.05,
        update_single=0.2,
        update_scan=0.05,
        scan_extent=0.3,
        object_extent=0.03,
        think_time=8.0,
    ),
)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_own_lock_records_partition_the_grants(kind):
    config = replace(CONFIG, index_kind=kind)
    preload, scripts = _workload(config, None, None)
    sim = Simulator(seed=config.seed)
    index = build_index(kind, config, sim, History())
    with index.transaction("preload") as txn:
        for oid, rect in preload:
            index.insert(txn, oid, rect)

    # every operation's result, a deadlock victim's too (spawn_clients
    # sees only the ones that return)
    results = []
    operation = index._operation

    @contextmanager
    def recorded(txn, result, *span):
        results.append(result)
        with operation(txn, result, *span) as ctx:
            yield ctx

    index._operation = recorded
    grants_before, waits_before, *_ = _traffic(index)
    spawn_clients(sim, index, scripts, config.costs, config.max_retries)
    sim.run()
    sim.raise_process_errors()
    grants, waits, *_ = _traffic(index)

    assert waits > waits_before, "the run must make some operation wait"
    assert sum(len(r.locks_taken) for r in results) == grants - grants_before
    assert sum(r.lock_waits for r in results) <= waits - waits_before


@pytest.mark.parametrize(
    "index, predicate, objects",
    [
        (
            KDBPhantomIndex(KDBConfig(max_entries=4)),
            Rect((0.1, 0.1), (0.6, 0.6)),
            [(f"p{i}", (0.1 * i, 0.05 + 0.08 * i)) for i in range(1, 9)],
        ),
        (
            ZOrderKRLIndex(max_object_extent=0.05),
            Rect((0.1, 0.1), (0.6, 0.6)),
            [(f"z{i}", Rect((0.1 * i, 0.08 * i), (0.1 * i + 0.02, 0.08 * i + 0.02)))
             for i in range(1, 9)],
        ),
    ],
    ids=["kdb", "zorder-krl"],
)
def test_repeated_scan_takes_no_locks(index, predicate, objects):
    """Locks the transaction already holds cover the second scan's wants:
    nothing is requested twice, as for the DGL index."""
    with index.transaction() as txn:
        for oid, geom in objects:
            index.insert(txn, oid, geom)
    lm = index.lock_manager
    txn = index.begin()
    first = index.read_scan(txn, predicate)
    assert first.locks_taken and first.oids
    before = lm.total_acquisitions()
    again = index.read_scan(txn, predicate)
    assert again.locks_taken == []
    assert lm.total_acquisitions() == before
    assert again.oids == first.oids
    index.commit(txn)
