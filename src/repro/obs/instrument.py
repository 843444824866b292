"""Wiring: attach one tracer to a live index.

The instrumented seams already exist in the stack -- the protocol's and
the lock manager's ``obs_sink``, and the ``tracer`` slots of the index,
the buffer pool and the deferred queue.  :func:`instrument_index` simply
plugs one :class:`~repro.obs.tracer.EventTracer` into all of them at
once, chaining (not replacing) a sink that is already installed on
either ``obs_sink`` (the stress harness counts wait events on the lock
manager's and injects faults on the protocol's): the tracer records the
event first, then the installed sink runs.

Detach with the returned handle to restore the previous hooks exactly::

    tracer = EventTracer(clock=lambda: sim.clock)
    handle = instrument_index(index, tracer)
    ... run workload ...
    handle.detach()
    tracer.dump_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.tracer import EventTracer

__all__ = ["instrument_index", "Instrumentation"]


def _chain(emit: Callable[..., None], prev: Optional[Callable[..., None]]) -> Callable[..., None]:
    """An ``obs_sink`` that records with ``emit``, then calls ``prev``.

    Recording first means the event is in the trace even when ``prev``
    blocks or raises (the protocol's sink may do both; the lock
    manager's, called under the manager mutex, may do neither).
    """
    if prev is None:
        return emit

    def sink(event: str, **fields) -> None:
        emit(event, **fields)
        prev(event, **fields)

    return sink


class Instrumentation:
    """A live attachment of one tracer to one index; call :meth:`detach`
    to restore every hook to its pre-instrumentation value."""

    def __init__(self, index, tracer: EventTracer) -> None:
        self.index = index
        self.tracer = tracer
        #: the protocol and lock manager, each with its pre-attach obs_sink
        self._prev_sinks = []
        self._attached = False

    def _set_tracer(self, tracer: Optional[EventTracer]) -> None:
        # Index-level spans (txn.* / op.*), buffer misses and vacuum passes
        # are emitted by the instrumented classes themselves; they only
        # need the tracer handle.
        index = self.index
        buffer_pool = getattr(index.tree.pager, "buffer_pool", None)
        for seam in (index, index.deferred, buffer_pool):
            if seam is not None:
                seam.tracer = tracer

    def attach(self) -> "Instrumentation":
        if self._attached:
            return self
        self._set_tracer(self.tracer)
        for owner in (self.index.protocol, self.index.lock_manager):
            self._prev_sinks.append((owner, owner.obs_sink))
            owner.obs_sink = _chain(self.tracer.emit, owner.obs_sink)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._set_tracer(None)
        for owner, prev in self._prev_sinks:
            owner.obs_sink = prev
        self._prev_sinks.clear()
        self._attached = False


def instrument_index(index, tracer: EventTracer) -> Instrumentation:
    """Attach ``tracer`` to every observability seam of ``index``."""
    return Instrumentation(index, tracer).attach()
