"""Helpers for the concurrency integration tests."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.concurrency import History, SimulatedWait, Simulator
from repro.core import InsertionPolicy, PhantomProtectedRTree
from repro.geometry import Rect
from repro.lock import LockManager
from repro.rtree.tree import RTreeConfig

TEN = Rect((0.0, 0.0), (10.0, 10.0))


def make_sim_index(
    policy: InsertionPolicy = InsertionPolicy.ON_GROWTH,
    max_entries: int = 4,
    universe: Rect = TEN,
    seed: int = 0,
) -> Tuple[Simulator, PhantomProtectedRTree, History]:
    """A simulator-wired DGL index with history recording."""
    sim = Simulator(seed=seed)
    lm = LockManager(wait_strategy=SimulatedWait(sim))
    history = History()
    index = PhantomProtectedRTree(
        RTreeConfig(max_entries=max_entries, universe=universe),
        lock_manager=lm,
        policy=policy,
        history=history,
        clock=lambda: sim.clock,
    )
    return sim, index, history


def adopt_manual_tree(index: PhantomProtectedRTree, tree, names) -> None:
    """Swap a hand-built tree (tests.conftest.build_manual_tree) into an
    index, rewiring everything that referenced the old tree."""
    index.tree = tree
    index.protocol.tree = tree
    index.protocol.granules.tree = tree
