"""Figure 2(a) schedules: a leaf granule grows into a scanned predicate.

The paper's Figure 2(a) hazard, built on purpose instead of waiting for a
random mix to stumble on it.  Each scanner/inserter pair works next to one
leaf granule of the preloaded tree:

* the *predicate* is a small box in dead space just outside the leaf's
  MBR, overlapping no leaf MBR -- so a scan of it locks external granules
  only;
* the *scanner* reads the predicate twice in one transaction, with think
  time in between;
* the *inserter* waits a little, then inserts an object that reaches from
  just inside the leaf's MBR into the predicate, so whichever leaf granule
  receives it grows into the scanned region.

Every sound policy fences that growth: the short SIX on the deformed
external granule (and the policy's short IX on the granules the growth
region overlaps) conflicts with the scanner's S lock, so the insert waits
for the scanner to commit.  The NAIVE policy takes neither lock, commits
between the two scans, and the second scan returns an object the first
did not: a phantom the end-to-end oracle reports on nearly every seed.

The generator returns ordinary per-worker scripts for
:attr:`StressConfig.scripts`, so artifacts embed and replay them like any
other schedule::

    config = StressConfig(seed=3, policy="naive")
    config = replace(config, scripts=figure2a_scripts(config))
    run_stress(config)
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.rtree.tree import RTree, RTreeConfig
from repro.stress.harness import StressConfig, make_preload
from repro.workloads.datasets import UNIT
from repro.workloads.operations import OpCall, TxnScript

#: scanner/inserter pairs per schedule
PAIRS = 3
#: predicate side length, and its gap to the leaf MBR it sits beside
_SIDE = 0.01
_GAP = 0.004
#: how far the inserted object reaches back inside the leaf MBR
_DEPTH = 0.002
#: the scanner's think time between its two scans, and the inserter's
#: before its insert: the insert lands well inside the scanner's window
_SCAN_THINK = 60.0
_INSERT_DELAY = 10.0
#: inserted object ids, disjoint from the preload and the random mix
_OID_BASE = 2_000_000


def figure2a_scripts(config: StressConfig) -> List[List[TxnScript]]:
    """Per-worker scripts of :data:`PAIRS` scanner/inserter pairs (two
    workers each) for the preload ``config`` describes."""
    tree = RTree(RTreeConfig(max_entries=config.fanout, universe=UNIT))
    for oid, rect in make_preload(config):
        tree.insert(oid, rect)
    leaves = [leaf.mbr() for leaf in tree.iter_leaves() if leaf.entries]
    rng = random.Random(config.seed * 1_000_003 + 0xF162A)
    candidates = list(leaves)
    rng.shuffle(candidates)
    scripts: List[List[TxnScript]] = []
    for mbr in candidates:
        if len(scripts) == 2 * PAIRS:
            break
        shape = _dead_space_shape(mbr, leaves, rng)
        if shape is None:
            continue
        predicate, obj = shape
        k = len(scripts) // 2
        scan = TxnScript(f"f2a-scan{k}", [
            OpCall("read_scan", rect=predicate, think=_SCAN_THINK),
            OpCall("read_scan", rect=predicate),
        ])
        oid = _OID_BASE + k
        # the read_single misses (the object does not exist yet, so it
        # takes no lock): it only delays the insert into the scan window
        insert = TxnScript(f"f2a-insert{k}", [
            OpCall("read_single", oid=oid, rect=obj, think=_INSERT_DELAY),
            OpCall("insert", oid=oid, rect=obj),
        ])
        scripts += [[scan], [insert]]
    return scripts


def _dead_space_shape(
    mbr: Rect, leaves: Sequence[Rect], rng: random.Random
) -> Optional[Tuple[Rect, Rect]]:
    """A (predicate, object) pair beside one face of ``mbr``, or ``None``
    when no face has a predicate-sized patch of dead space."""
    faces = [(axis, side) for axis in range(mbr.dim) for side in (-1, 1)]
    rng.shuffle(faces)
    for axis, side in faces:
        depth = min(_DEPTH, mbr.side(axis) / 2)
        if side > 0:
            near = mbr.hi[axis] + _GAP
            pred_span = (near, near + _SIDE)
            obj_span = (mbr.hi[axis] - depth, near + _SIDE / 2)
        else:
            near = mbr.lo[axis] - _GAP
            pred_span = (near - _SIDE, near)
            obj_span = (near - _SIDE / 2, mbr.lo[axis] + depth)
        pred_lo, pred_hi, obj_lo, obj_hi = [], [], [], []
        for a in range(mbr.dim):
            if a == axis:
                pred_lo.append(pred_span[0])
                pred_hi.append(pred_span[1])
                obj_lo.append(obj_span[0])
                obj_hi.append(obj_span[1])
                continue
            center = (mbr.lo[a] + mbr.hi[a]) / 2
            half = min(_SIDE / 4, mbr.side(a) / 4)
            pred_lo.append(center - _SIDE / 2)
            pred_hi.append(center + _SIDE / 2)
            obj_lo.append(center - half)
            obj_hi.append(center + half)
        predicate = Rect(pred_lo, pred_hi)
        if not UNIT.contains(predicate) or any(leaf.intersects(predicate) for leaf in leaves):
            continue
        return predicate, Rect(obj_lo, obj_hi)
    return None
