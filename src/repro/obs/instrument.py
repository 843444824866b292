"""Wiring: attach one tracer (and optionally a registry) to a live index.

The instrumented seams already exist in the stack -- the protocol's
``yield_hook``-style ``tracer`` attributes, the lock manager's
``wait_observer`` and ``obs_sink``, the buffer pool's and the deferred
queue's ``tracer`` slots.  :func:`instrument_index` simply plugs one
:class:`~repro.obs.tracer.EventTracer` into all of them at once, chaining
(not replacing) any wait observer that is already installed (the stress
harness keeps its own counters there).

Detach with the returned handle to restore the previous hooks exactly::

    tracer = EventTracer(clock=lambda: sim.clock)
    handle = instrument_index(index, tracer)
    ... run workload ...
    handle.detach()
    tracer.dump_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import EventTracer

__all__ = ["instrument_index", "Instrumentation"]


class Instrumentation:
    """A live attachment of one tracer to one index; call :meth:`detach`
    to restore every hook to its pre-instrumentation value."""

    def __init__(self, index, tracer: EventTracer) -> None:
        self.index = index
        self.tracer = tracer
        self._prev_wait_observer = None
        self._attached = False

    def attach(self) -> "Instrumentation":
        if self._attached:
            return self
        index, tracer = self.index, self.tracer
        lm = index.lock_manager

        # Index-level spans (txn.* / op.*) and protocol-level events
        # (op.phase / granule.*) are emitted by the instrumented classes
        # themselves; they only need the tracer handle.
        index.tracer = tracer
        index.protocol.tracer = tracer
        index.deferred.tracer = tracer
        buffer_pool = getattr(index.tree.pager, "buffer_pool", None)
        if buffer_pool is not None:
            buffer_pool.tracer = tracer

        # Lock-manager seams: the immediate-decision sink plus the wait
        # observer (chained -- the stress harness installs its own).
        lm.obs_sink = tracer.emit
        self._prev_wait_observer = lm.wait_observer
        prev = self._prev_wait_observer
        emit = tracer.emit

        def observer(event: str, request) -> None:
            # Called under the manager mutex: record only, never block.
            emit(
                "lock." + event,
                txn=request.txn_id,
                resource=repr(request.resource),
                mode=request.mode.value,
                duration=request.duration.value,
            )
            if prev is not None:
                prev(event, request)

        lm.wait_observer = observer
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        index = self.index
        index.tracer = None
        index.protocol.tracer = None
        index.deferred.tracer = None
        buffer_pool = getattr(index.tree.pager, "buffer_pool", None)
        if buffer_pool is not None:
            buffer_pool.tracer = None
        index.lock_manager.obs_sink = None
        index.lock_manager.wait_observer = self._prev_wait_observer
        self._attached = False


def instrument_index(
    index,
    tracer: EventTracer,
    registry: Optional[MetricsRegistry] = None,
) -> Instrumentation:
    """Attach ``tracer`` to every observability seam of ``index``.

    ``registry``, when given, replaces nothing -- the index's
    :class:`~repro.storage.stats.IOStats` already owns one -- but its
    instruments are merged into trace metadata at dump time by callers
    that want a combined artifact.
    """
    if registry is not None:
        tracer.meta.setdefault("metrics", registry.names())
    return Instrumentation(index, tracer).attach()
