"""Seeded workload definitions and input generation.

The generator turns ``(workload, seed, seconds)`` into plain data: the
objects to load and one list of transaction scripts per simulated
client.  The program under test receives only these generated inputs.
The same arguments always produce the same inputs, so every count and
every simulated-time metric repeats exactly for a fixed seed.

``seconds`` sizes the work rather than stopping a clock: a run executes
``seconds * nominal_txn_per_s`` transactions, which takes about
``seconds`` of wall time on the reference host (2-core x86-64, Python
3.11).  A deadline would make the amount of work depend on wall-clock
speed and break the exact metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.geometry import Rect
from repro.rtree.entry import ObjectId
from repro.workloads.datasets import UNIT, paper_spatial_dataset, uniform_rects
from repro.workloads.operations import MixSpec, OpCall, TxnScript, generate_scripts

Object = Tuple[ObjectId, Rect]


@dataclass(frozen=True)
class Workload:
    """Static shape of one workload; see README.md for why each exists."""

    name: str
    clients: int
    #: objects STR-loaded into the tree before the clients start
    n_objects: int
    ops_per_txn: int
    #: transactions per second of ``--seconds`` (reference-host rate)
    nominal_txn_per_s: float
    #: independent runs per benchmark run, each on its own freshly loaded
    #: tree; their transactions are pooled (see README.md)
    epochs: int = 1
    fanout: int = 16
    pool_pages: int = 512
    #: run ``index.vacuum()`` after every this many commits (0: never)
    vacuum_every: int = 0
    #: deadlock-victim retries before a script counts as failed
    max_retries: int = 5


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan_heavy", clients=1, n_objects=32_000, ops_per_txn=3,
                 nominal_txn_per_s=115.0),
        Workload("write_heavy", clients=1, n_objects=32_000, ops_per_txn=4,
                 nominal_txn_per_s=170.0, vacuum_every=8),
        Workload("contended_sim", clients=8, n_objects=2_000, ops_per_txn=4,
                 nominal_txn_per_s=290.0, epochs=12, max_retries=30),
    )
}

#: scan_heavy: square scan predicates 5% of the universe on a side
SCAN_SIDE = 0.05
SCAN_FRACTION = 0.8
#: write_heavy: insert / delete / update_single shares, inserted sides <= 4%
WRITE_MIX = (0.5, 0.3, 0.2)
INSERT_MAX_SIDE = 0.04
#: contended_sim: the stress mix (remaining 0.10 is read_single)
CONTENDED_MIX = MixSpec(
    read_scan=0.30, insert=0.30, delete=0.15, update_single=0.10, update_scan=0.05,
    scan_extent=0.1, object_extent=0.02, think_time=0.0,
)
#: object ids minted by inserts start here (disjoint from loaded ids)
FRESH_OID_BASE = 1_000_000
#: simulated think time between a contended client's operations, constant
#: so that sim-time latency varies with the program, not with the draws
THINK_U = 2.0


@dataclass
class Epoch:
    """One independent closed-loop run: objects to load, and one script
    list per simulated client."""

    objects: List[Object]
    scripts: List[List[TxnScript]]


@dataclass
class Inputs:
    workload: Workload
    seed: int
    epochs: List[Epoch]

    @property
    def n_scripts(self) -> int:
        return sum(len(s) for e in self.epochs for s in e.scripts)


def _stream(seed: int, salt: int) -> random.Random:
    # Integer mixing only: str/tuple hash() is randomised per process.
    return random.Random(seed * 1_000_003 + salt)


def _square(rng: random.Random, side: float) -> Rect:
    x = rng.random() * (1.0 - side)
    y = rng.random() * (1.0 - side)
    return Rect((x, y), (x + side, y + side))


def _scan_heavy(objects: List[Object], n: int, ops: int, rng: random.Random) -> List[TxnScript]:
    scripts = []
    for t in range(n):
        script = TxnScript(name=f"c0-t{t}")
        for _ in range(ops):
            if rng.random() < SCAN_FRACTION:
                script.ops.append(OpCall("read_scan", rect=_square(rng, SCAN_SIDE)))
            else:
                oid, rect = objects[rng.randrange(len(objects))]
                script.ops.append(OpCall("read_single", oid=oid, rect=rect))
        scripts.append(script)
    return scripts


def _write_heavy(objects: List[Object], n: int, ops: int, rng: random.Random) -> List[TxnScript]:
    """Inserts, deletes and updates of *live* objects.  With one client
    nothing aborts, so the generator's model of the live set is exact."""
    live = list(objects)
    next_oid = FRESH_OID_BASE
    p_insert, p_delete, _p_update = WRITE_MIX
    scripts = []
    for t in range(n):
        script = TxnScript(name=f"c0-t{t}")
        for _ in range(ops):
            roll = rng.random()
            if roll < p_insert or not live:
                next_oid += 1
                w = rng.random() * INSERT_MAX_SIDE
                h = rng.random() * INSERT_MAX_SIDE
                x = rng.random() * (1.0 - w)
                y = rng.random() * (1.0 - h)
                rect = Rect((x, y), (x + w, y + h))
                live.append((next_oid, rect))
                script.ops.append(OpCall("insert", oid=next_oid, rect=rect))
            elif roll < p_insert + p_delete:
                i = rng.randrange(len(live))
                live[i], live[-1] = live[-1], live[i]
                oid, rect = live.pop()
                script.ops.append(OpCall("delete", oid=oid, rect=rect))
            else:
                oid, rect = live[rng.randrange(len(live))]
                script.ops.append(OpCall("update_single", oid=oid, rect=rect))
        scripts.append(script)
    return scripts


def make_inputs(name: str, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of one run.  Every client of every epoch gets
    at least one script, however small ``seconds`` is."""
    w = WORKLOADS[name]
    n_txns = round(seconds * w.nominal_txn_per_s)
    per_epoch = max(1, -(-n_txns // w.epochs))
    epochs = []
    for e in range(w.epochs):
        # The loaded objects are fixed datasets, one per epoch; the seed
        # varies the transactions.  Seed-dependent datasets tripled the
        # seed-to-seed spread of pages_per_txn on write_heavy.
        sub_seed = seed * 1_000_003 + 7919 * e
        if name == "contended_sim":
            objects = uniform_rects(w.n_objects, seed=e, extent_fraction=0.02)
            scripts = generate_scripts(
                objects, w.clients, max(1, -(-per_epoch // w.clients)), w.ops_per_txn,
                CONTENDED_MIX, seed=sub_seed, universe=UNIT, oid_base=FRESH_OID_BASE,
            )
            for client in scripts:
                for script in client:
                    script.ops = [replace(op, think=THINK_U) for op in script.ops]
        else:
            objects = paper_spatial_dataset(w.n_objects, seed=e)
            make = _scan_heavy if name == "scan_heavy" else _write_heavy
            scripts = [make(objects, per_epoch, w.ops_per_txn, _stream(sub_seed, 17))]
        epochs.append(Epoch(objects, scripts))
    return Inputs(w, seed, epochs)
