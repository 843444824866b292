"""The closed-loop client driver.

:func:`spawn_clients` starts one simulated process per worker; each
replays its :class:`~repro.workloads.operations.TxnScript` list against an
index (begin, the script's operations, commit), charging every operation
its :class:`~repro.concurrency.simulator.CostModel` cost: ``lock_op``
per lock in the operation's own ``locks_taken`` and ``predicate_check``
per predicate comparison made for its own transaction while it ran
(another transaction's checks, made while this one waited, are theirs).  A deadlock
victim comes back already rolled back; a fault (``InjectedAbort`` at a
yield point, ``ProcessCancelled`` out of a parked wait) leaves the
transaction active, so the driver aborts it.  Either way the client backs
off ``5·(attempt+1)·stagger`` units and retries as ``"<script>~<attempt>"``;
a script that fails ``max_retries + 1`` times is dropped.  Any other
exception aborts the active transaction and ends the client's process
(the simulator records it on the process).  The Table 4
runner and the stress harness both drive their indexes through this loop.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional

from repro.baselines.predicate_lock import PredicateLockIndex
from repro.concurrency.simulator import CostModel, InjectedAbort, ProcessCancelled
from repro.concurrency.simulator import SimProcess, Simulator
from repro.txn import TransactionAborted
from repro.workloads.operations import OpCall, TxnScript


def _apply(index, txn, op: OpCall):
    if op.kind == "read_scan":
        return index.read_scan(txn, op.rect)
    if op.kind == "insert":
        return index.insert(txn, op.oid, op.rect)
    if op.kind == "delete":
        return index.delete(txn, op.oid, op.rect)
    if op.kind == "read_single":
        return index.read_single(txn, op.oid, op.rect)
    if op.kind == "update_single":
        return index.update_single(txn, op.oid, op.rect, payload="updated")
    if op.kind == "update_scan":
        return index.update_scan(txn, op.rect, lambda oid, rect, old: "bulk-updated")
    raise ValueError(f"unknown op kind {op.kind!r}")


def _comparisons(index, txn) -> int:
    """Predicate comparisons made so far for ``txn``'s requests."""
    if isinstance(index, PredicateLockIndex):
        return index.predicates.comparisons_of(txn.txn_id)
    return 0


def spawn_clients(
    sim: Simulator,
    index,
    scripts: List[List[TxnScript]],
    costs: CostModel,
    max_retries: int,
    on_op: Optional[Callable[[OpCall, object], None]] = None,
) -> List[SimProcess]:
    """Spawn ``worker-<w>`` for each per-worker script list (see module
    docstring).  ``on_op(op, result)`` runs after each operation, before
    its cost is charged."""

    def client(worker_scripts: List[TxnScript]) -> Callable[[], None]:
        def body() -> None:
            for script in worker_scripts:
                for attempt in range(max_retries + 1):
                    txn = index.begin(f"{script.name}~{attempt}" if attempt else script.name)
                    try:
                        for op in script.ops:
                            cmps_before = _comparisons(index, txn)
                            result = _apply(index, txn, op)
                            cost = (
                                result.physical_reads * costs.io
                                + costs.cpu
                                + len(result.locks_taken) * costs.lock_op
                                + (_comparisons(index, txn) - cmps_before) * costs.predicate_check
                                + op.think
                            )
                            if on_op is not None:
                                on_op(op, result)
                            sim.checkpoint(cost)
                        index.commit(txn)
                        break
                    except TransactionAborted:
                        pass  # deadlock victim: already rolled back
                    except (InjectedAbort, ProcessCancelled) as exc:
                        if txn.is_active:
                            index.abort(txn, reason=f"fault injection: {exc}")
                    except Exception as exc:
                        # any other failure ends this client, but first
                        # releases the locks the other clients may wait on
                        if txn.is_active:
                            index.abort(txn, reason=f"client failure: {exc!r}")
                        raise
                    # zlib CRC, not hash(): string hashing is randomised
                    # per process and would break run determinism
                    stagger = (zlib.crc32(script.name.encode()) % 7) + 1
                    sim.checkpoint(5.0 * (attempt + 1) * stagger)

        return body

    return [
        sim.spawn(f"worker-{w}", client(worker_scripts), delay=w * 0.01)
        for w, worker_scripts in enumerate(scripts)
    ]
