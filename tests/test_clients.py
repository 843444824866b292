"""The closed-loop client driver and the transaction shell.

:func:`repro.workloads.clients.spawn_clients` is the one loop the Table 4
runner and the stress harness drive their indexes with; these tests pin
its retry, back-off, fault and charging rules.  The second half runs the
:class:`repro.core.index.TransactionalIndex` shell's contract over all
four index classes.
"""

import zlib

import pytest

from repro.baselines import PredicateLockIndex, PredicateLockTable, ZOrderKRLIndex
from repro.concurrency import History, OpKind, SimulatedWait, Simulator
from repro.concurrency.simulator import CostModel, InjectedAbort, SimProcess
from repro.core import PhantomProtectedRTree
from repro.core.index import OpResult
from repro.geometry import Rect
from repro.kdbtree import KDBPhantomIndex
from repro.lock.manager import DeadlockError, LockManager
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId
from repro.txn import TransactionAborted, TransactionManager
from repro.txn.transaction import TxnState
from repro.workloads.clients import spawn_clients
from repro.workloads.operations import OpCall, TxnScript

COSTS = CostModel(io=2.0, cpu=1.0, lock_op=0.0, predicate_check=0.0)


def backoff(script: str, attempt: int) -> float:
    return 5.0 * (attempt + 1) * ((zlib.crc32(script.encode()) % 7) + 1)


class ScriptedIndex:
    """An index stand-in: every operation reads ``reads`` pages and takes
    ``locks`` locks; ``faults[name]`` is raised by the first operation of
    the transaction named ``name``."""

    def __init__(self, sim, faults=None, reads=0, locks=0):
        self.sim = sim
        self.faults = dict(faults or {})
        self.reads = reads
        self.locks = locks
        self.tm = TransactionManager()
        self.log = []

    def begin(self, name):
        self.log.append(("begin", name, self.sim.clock))
        return self.tm.begin(name)

    def commit(self, txn):
        self.log.append(("commit", txn.name, self.sim.clock))
        self.tm.commit(txn)

    def abort(self, txn, reason):
        self.log.append(("abort", txn.name, self.sim.clock))
        self.tm.abort(txn, reason)

    def read_scan(self, txn, rect):
        fault = self.faults.get(txn.name)
        if isinstance(fault, TransactionAborted):
            self.tm.abort(txn, "deadlock victim")  # the index rolls back victims
        if fault is not None:
            raise fault
        want = (ResourceId.leaf(1), LockMode.S, LockDuration.COMMIT)
        return OpResult(locks_taken=[want] * self.locks, physical_reads=self.reads)


def scan(think=0.0):
    return OpCall("read_scan", rect=Rect((0.0, 0.0), (0.1, 0.1)), think=think)


def run(index, scripts, costs=COSTS, max_retries=2, on_op=None):
    procs = spawn_clients(index.sim, index, scripts, costs, max_retries, on_op=on_op)
    index.sim.run()
    index.sim.raise_process_errors()
    return procs


class TestClientDriver:
    def test_deadlock_victim_retried_after_backoff(self):
        sim = Simulator()
        index = ScriptedIndex(sim, faults={"s": TransactionAborted(1, "deadlock victim")})
        run(index, [[TxnScript("s", [scan()])]])
        assert index.log == [
            ("begin", "s", 0.0),
            ("begin", "s~1", backoff("s", 0)),
            ("commit", "s~1", backoff("s", 0) + 1.0),
        ]

    def test_injected_abort_aborts_active_txn_then_retries(self):
        sim = Simulator()
        index = ScriptedIndex(sim, faults={"s": InjectedAbort("at insert.post")})
        run(index, [[TxnScript("s", [scan()])]])
        assert [entry[:2] for entry in index.log] == [
            ("begin", "s"), ("abort", "s"), ("begin", "s~1"), ("commit", "s~1"),
        ]
        assert index.tm.aborted == 1 and index.tm.committed == 1

    def test_script_failing_every_attempt_is_dropped(self):
        sim = Simulator()
        victim = TransactionAborted(1, "deadlock victim")
        faults = {name: victim for name in ("bad", "bad~1", "bad~2")}
        index = ScriptedIndex(sim, faults=faults)
        (proc,) = run(index, [[TxnScript("bad", [scan()]), TxnScript("good", [scan()])]])
        begun = [name for event, name, _t in index.log if event == "begin"]
        assert begun == ["bad", "bad~1", "bad~2", "good"]
        assert [name for event, name, _t in index.log if event == "commit"] == ["good"]
        assert proc.state == SimProcess.DONE and proc.error is None
        # the three back-offs all elapsed before "good" began
        assert index.log[3][2] == sum(backoff("bad", a) for a in range(3))

    def test_charge_is_the_cost_model_formula(self):
        sim = Simulator()
        index = ScriptedIndex(sim, reads=3, locks=4)
        costs = CostModel(io=10.0, cpu=1.5, lock_op=0.25, predicate_check=7.0)
        seen = []
        run(index, [[TxnScript("s", [scan(think=2.0)])]], costs=costs,
            on_op=lambda op, result: seen.append((op.kind, result.physical_reads)))
        assert seen == [("read_scan", 3)]
        commit_time = index.log[-1][2]
        assert commit_time == 3 * 10.0 + 1.5 + 4 * 0.25 + 2.0

    def test_charge_counts_predicate_comparisons(self):
        sim = Simulator()
        index = PredicateLockIndex(
            lock_manager=LockManager(wait_strategy=SimulatedWait(sim)),
            predicate_table=PredicateLockTable(SimulatedWait(sim)),
            clock=lambda: sim.clock,
        )
        holder = index.begin("holder")  # one foreign predicate to compare against
        index.read_scan(holder, Rect((0.8, 0.8), (0.9, 0.9)))
        costs = CostModel(io=10.0, cpu=1.0, lock_op=0.5, predicate_check=3.0)
        seen = []
        spawn_clients(sim, index, [[TxnScript("s", [scan(), scan()])]], costs, 0,
                      on_op=lambda op, result: seen.append((sim.clock, result.physical_reads)))
        sim.run()
        sim.raise_process_errors()
        (start, reads), (end, _reads) = seen
        assert reads == 1  # the one-page tree's root
        # the first scan took one predicate and compared it with the holder's
        assert end - start == reads * 10.0 + 1.0 + 0.5 + 3.0

    def test_unknown_op_kind_raises(self):
        sim = Simulator()
        index = ScriptedIndex(sim)
        with pytest.raises(ValueError, match="unknown op kind 'bogus'"):
            run(index, [[TxnScript("s", [OpCall("bogus")])]])


# -- the transaction shell ---------------------------------------------------

RECT = Rect((0.1, 0.1), (0.2, 0.2))


def _dgl(history):
    return PhantomProtectedRTree(history=history), RECT


def _predicate(history):
    return PredicateLockIndex(history=history), RECT


def _zorder(history):
    return ZOrderKRLIndex(history=history), RECT


def _kdb(history):
    return KDBPhantomIndex(history=history), (0.15, 0.15)


INDEXES = pytest.mark.parametrize("make", [_dgl, _predicate, _zorder, _kdb],
                                  ids=["dgl", "predicate-lock", "zorder-krl", "kdb"])


def _kinds(history, txn):
    return [op.kind for op in history.ops if op.txn == txn.txn_id]


class TestTransactionShell:
    @INDEXES
    def test_transaction_commits_on_success(self, make):
        history = History()
        index, geom = make(history)
        with index.transaction("ok") as txn:
            index.insert(txn, "a", geom)
        assert txn.state is TxnState.COMMITTED
        assert _kinds(history, txn) == [OpKind.BEGIN, OpKind.INSERT, OpKind.COMMIT]
        with index.transaction() as reader:
            assert index.read_single(reader, "a", geom).found

    @INDEXES
    def test_transaction_aborts_on_exception(self, make):
        history = History()
        index, geom = make(history)
        with pytest.raises(RuntimeError):
            with index.transaction("boom") as txn:
                index.insert(txn, "a", geom)
                raise RuntimeError("boom")
        assert txn.state is TxnState.ABORTED
        assert txn.abort_reason == "exception in transaction body"
        assert _kinds(history, txn) == [OpKind.BEGIN, OpKind.INSERT, OpKind.ABORT]
        with index.transaction() as reader:
            assert not index.read_single(reader, "a", geom).found

    @INDEXES
    def test_deadlock_in_operation_aborts_the_transaction(self, make):
        history = History()
        index, geom = make(history)
        txn = index.begin("victim")
        index.read_scan(txn, Rect((0.0, 0.0), (0.5, 0.5)))
        with pytest.raises(TransactionAborted, match="deadlock victim"):
            with index._operation(txn, OpResult(), "insert"):
                raise DeadlockError(txn.txn_id, (txn.txn_id, 99))
        assert txn.state is TxnState.ABORTED
        assert _kinds(history, txn)[-1] is OpKind.ABORT
        assert index.lock_manager.locks_of(txn.txn_id) == {}
        if isinstance(index, PredicateLockIndex):
            assert index.predicates.held_count() == 0
