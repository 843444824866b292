"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` wraps, at class level, the public functions of each
layer of ``repro`` (see :data:`LAYER_FUNCTIONS`) and records one span per
call: layer, function, start, end, parent span and transaction id.
Spans stay in memory; :meth:`LayerTracer.write` dumps them when the run
ends.  Nothing under ``src/`` is edited: :meth:`install` replaces the
class attributes and :meth:`uninstall` puts the originals back.

Self time.  A span's self time is its duration minus its children's
time.  Under the simulator several clients' threads interleave, but only
the baton holder runs, so one timeline serves all of them: every gap
between two consecutive span events is charged to the innermost open
span of the thread that emitted the earlier event.  For one client this
is exactly duration minus children.  For several, a span parked in
``Simulator.checkpoint`` or ``SimulatedWait.wait`` is charged only for
the hand-off, not for the other clients' work that runs while it is
parked.  Gaps after a thread's outermost span closes belong to the
benchmark's own code and count against ``trace.coverage_frac``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class, public functions wrapped)
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("index", "repro.core.index", "PhantomProtectedRTree",
     ("begin", "commit", "abort", "insert", "delete", "read_single", "read_scan",
      "update_single", "update_scan", "run_deferred_delete")),
    ("protocol", "repro.core.protocol", "GranuleLockProtocol",
     ("lock_scan", "execute_scan", "lock_update_scan", "lock_read_single",
      "lock_update_single", "insert", "logical_delete", "physical_delete", "end_operation")),
    ("granules", "repro.core.granules", "GranuleSet", ("overlapping", "covering")),
    ("lock", "repro.lock.manager", "LockManager",
     ("acquire", "release", "end_operation", "release_all", "held_commit_mode", "locks_of")),
    ("rtree", "repro.rtree.tree", "RTree",
     ("search", "find_entry", "plan_insert", "plan_delete", "insert", "delete",
      "reinsert_entry", "set_tombstone")),
    ("storage", "repro.storage.pager", "PageManager", ("read", "write", "allocate", "free")),
    ("txn", "repro.txn.manager", "TransactionManager", ("begin", "commit", "abort")),
    ("maintenance", "repro.core.maintenance", "DeferredDeleteQueue", ("run", "enqueue")),
    ("concurrency", "repro.concurrency.simulator", "Simulator", ("checkpoint", "block", "wake")),
    ("concurrency", "repro.concurrency.waits", "SimulatedWait", ("wait",)),
)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYER_FUNCTIONS))

#: span tuple fields, in order (also the header of the written file)
SPAN_FIELDS = ("span", "layer", "function", "start_ns", "end_ns", "parent", "txn", "self_ns")


class LayerTracer:
    """Records spans around every function in :data:`LAYER_FUNCTIONS`."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: granule refs returned by overlapping()/covering(), and probes
        self.granule_refs = 0
        self.granule_probes = 0
        #: conditional lock requests, and how many were refused
        self.cond_requests = 0
        self.cond_refused = 0
        #: simulated time units spent parked in SimulatedWait.wait
        self.wait_units = 0.0
        self._ids = itertools.count(1)
        self._stacks: Dict[int, list] = {}
        self._last_stack: Optional[list] = None
        self._last_ns = 0
        self._txn: Dict[int, Any] = {}
        self._saved: List[Tuple[type, str, Any]] = []

    # -- harness API ---------------------------------------------------------

    def set_txn(self, txn: Any) -> None:
        """Tag spans opened from now on, on this thread, with ``txn``."""
        self._txn[threading.get_ident()] = txn

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, cls_name, fn_names in LAYER_FUNCTIONS:
            cls = getattr(importlib.import_module(module), cls_name)
            for fn_name in fn_names:
                original = cls.__dict__[fn_name]
                self._saved.append((cls, fn_name, original))
                setattr(cls, fn_name, self._wrap(layer, f"{cls_name}.{fn_name}", original))
        self._last_ns = time.perf_counter_ns()
        self._last_stack = None

    def uninstall(self) -> None:
        for cls, fn_name, original in reversed(self._saved):
            setattr(cls, fn_name, original)
        self._saved.clear()

    @property
    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        result_hook = {
            "GranuleSet.overlapping": self._count_refs,
            "GranuleSet.covering": self._count_cover_refs,
        }.get(name)
        stacks = self._stacks
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        ids = self._ids
        txns = self._txn
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        def charge(now: int) -> None:
            # The gap since the previous event belongs to whatever the
            # thread that emitted that event was doing (see module doc).
            # An empty stack means benchmark code ran: charged to no layer.
            last = self._last_stack
            if last:
                last[-1][3] += now - self._last_ns
            self._last_ns = now

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks[ident] = []
            start = clock()
            charge(start)
            # frame: [span id, parent id, start, self ns]
            frame = [next(ids), stack[-1][0] if stack else 0, start, 0]
            stack.append(frame)
            self._last_stack = stack
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                charge(end)
                stack.pop()
                self._last_stack = stack
                calls[layer] += 1
                self_ns[layer] += frame[3]
                spans.append(
                    (frame[0], layer, name, start, end, frame[1], txns.get(ident), frame[3])
                )
            if result_hook is not None:
                result_hook(result)
            return result

        if name == "LockManager.acquire":
            def acquire(*args: Any, **kwargs: Any) -> bool:
                granted = wrapper(*args, **kwargs)
                # acquire(self, txn_id, resource, mode, duration, conditional, timeout)
                if kwargs.get("conditional", len(args) > 5 and args[5]):
                    self.cond_requests += 1
                    if not granted:
                        self.cond_refused += 1
                return granted

            return functools.wraps(fn)(acquire)
        if name == "SimulatedWait.wait":
            def wait(strategy, manager, request, timeout):
                before = strategy.sim.clock
                try:
                    return wrapper(strategy, manager, request, timeout)
                finally:
                    self.wait_units += strategy.sim.clock - before

            return functools.wraps(fn)(wait)
        return functools.wraps(fn)(wrapper)

    def _count_refs(self, refs: list) -> None:
        self.granule_probes += 1
        self.granule_refs += len(refs)

    def _count_cover_refs(self, result: tuple) -> None:
        cover, rest = result
        self.granule_probes += 1
        self.granule_refs += len(cover) + len(rest)
