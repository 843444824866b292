"""Wiring: attach one tracer to a live index.

The instrumented seams already exist in the stack -- the protocol's
``yield_hook``-style ``tracer`` attributes, the lock manager's
``obs_sink``, the buffer pool's and the deferred queue's ``tracer``
slots.  :func:`instrument_index` simply plugs one
:class:`~repro.obs.tracer.EventTracer` into all of them at once, chaining
(not replacing) any lock-manager sink that is already installed (the
stress harness counts wait events there).

Detach with the returned handle to restore the previous hooks exactly::

    tracer = EventTracer(clock=lambda: sim.clock)
    handle = instrument_index(index, tracer)
    ... run workload ...
    handle.detach()
    tracer.dump_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Optional

from repro.obs.tracer import EventTracer

__all__ = ["instrument_index", "Instrumentation"]


class Instrumentation:
    """A live attachment of one tracer to one index; call :meth:`detach`
    to restore every hook to its pre-instrumentation value."""

    def __init__(self, index, tracer: EventTracer) -> None:
        self.index = index
        self.tracer = tracer
        self._prev_obs_sink = None
        self._attached = False

    def _set_tracer(self, tracer: Optional[EventTracer]) -> None:
        # Index-level spans (txn.* / op.*), protocol-level events
        # (op.phase / granule.*), buffer misses and vacuum passes are
        # emitted by the instrumented classes themselves; they only need
        # the tracer handle.
        index = self.index
        buffer_pool = getattr(index.tree.pager, "buffer_pool", None)
        for seam in (index, index.protocol, index.deferred, buffer_pool):
            if seam is not None:
                seam.tracer = tracer

    def attach(self) -> "Instrumentation":
        if self._attached:
            return self
        self._set_tracer(self.tracer)
        # The lock manager's one seam, chained: the stress harness
        # installs its own sink before the tracer arrives.
        lm = self.index.lock_manager
        self._prev_obs_sink = prev = lm.obs_sink
        emit = self.tracer.emit
        if prev is None:
            lm.obs_sink = emit
        else:

            def sink(event: str, **fields) -> None:
                # Called under the manager mutex: record only, never block.
                emit(event, **fields)
                prev(event, **fields)

            lm.obs_sink = sink
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._set_tracer(None)
        self.index.lock_manager.obs_sink = self._prev_obs_sink
        self._attached = False


def instrument_index(index, tracer: EventTracer) -> Instrumentation:
    """Attach ``tracer`` to every observability seam of ``index``."""
    return Instrumentation(index, tracer).attach()
