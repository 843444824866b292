"""One lock replay for every trace consumer.

The contention profiler, the critical-path forensics and the protocol
auditor all need to know, at every event, who holds what and who waits
for what.  :class:`LockReplay` rebuilds both from the ``lock.*`` events
the lock manager's ``obs_sink`` emits, and all three drive it; each keeps
its own outputs and rules.  Holdings are counted per unit, so a release
of a unit that is not held -- possible only when a truncated ring
dropped its grant -- changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["WAIT_OUTCOMES", "OpenWait", "LockReplay", "unit_of"]

#: wait outcomes, keyed by the event type that closes the wait
WAIT_OUTCOMES = {
    "lock.grant": "granted",
    "lock.abort": "aborted",
    "lock.timeout": "timed_out",
}

#: one granted lock unit: (resource, mode, duration)
Unit = Tuple[str, str, str]


@dataclass
class OpenWait:
    """A ``lock.enqueue`` not yet closed."""

    mode: str
    duration: str
    #: the enqueue's timestamp
    start: object
    #: the other transactions holding the resource at enqueue, sorted
    holders: List[str]


class LockReplay:
    """Who holds what and who waits for what, replayed from ``lock.*``
    events.

    An immediate ``lock.acquire`` grant or a ``lock.grant`` adds a held
    unit; the waited ``lock.acquire`` after a grant is that same unit.
    ``lock.release`` drops its unit, ``lock.end_op`` each listed short
    unit, ``lock.release_all`` all of them (and any wait left open).
    ``lock.enqueue`` opens a wait and ``lock.grant``/``abort``/``timeout``
    closes it.
    """

    def __init__(self) -> None:
        #: txn -> (resource, mode, duration) -> held units
        self.held: Dict[object, Dict[Unit, int]] = {}
        #: (txn, resource) -> the open wait
        self.waits: Dict[Tuple[object, str], OpenWait] = {}

    def apply(self, event: Dict[str, object]) -> object:
        """Replay one ``lock.*`` event; other event types are ignored.

        Returns, by event type: ``lock.enqueue`` -- the new
        :class:`OpenWait`; ``lock.grant``/``abort``/``timeout`` -- the wait
        it closed, or ``None`` when none was open; ``lock.release`` --
        whether the released unit was held; ``lock.end_op`` -- the listed
        ``(resource, mode)`` short units that were not held;
        ``lock.release_all`` -- how many open waits of the transaction it
        dropped (the lock manager aborts them first, so none on a trace it
        wrote); otherwise ``None``.
        """
        etype = event.get("type")
        txn = event.get("txn")
        if etype == "lock.acquire":
            if event.get("granted") and not event.get("waited"):
                self._add(txn, unit_of(event))
        elif etype == "lock.enqueue":
            resource, mode, duration = unit_of(event)
            wait = OpenWait(mode, duration, event.get("ts", 0.0), self.holders(resource, txn))
            self.waits[(txn, resource)] = wait
            return wait
        elif etype in WAIT_OUTCOMES:
            unit = unit_of(event)
            if etype == "lock.grant":
                self._add(txn, unit)
            return self.waits.pop((txn, unit[0]), None)
        elif etype == "lock.release":
            return self._drop(txn, unit_of(event))
        elif etype == "lock.end_op":
            return [
                (resource, mode)
                for resource, mode in event.get("resources") or ()
                if not self._drop(txn, (str(resource), str(mode), "short"))
            ]
        elif etype == "lock.release_all":
            self.held.pop(txn, None)
            stale = [key for key in self.waits if key[0] == txn]
            for key in stale:
                del self.waits[key]
            return len(stale)
        return None

    # -- queries -------------------------------------------------------

    def holders(self, resource: str, besides: object) -> List[str]:
        """The transactions (other than ``besides``) holding any unit on
        ``resource``, as sorted strings."""
        return sorted(
            str(txn)
            for txn, units in self.held.items()
            if txn != besides and any(unit[0] == resource for unit in units)
        )

    def holds(self, txn: object, resource: str, modes: Tuple[str, ...]) -> bool:
        """Does ``txn`` hold a unit on ``resource`` in one of ``modes``?"""
        return any(r == resource and m in modes for r, m, _d in self.held.get(txn, ()))

    def shorts(self, txn: object) -> List[Unit]:
        """The short-duration units ``txn`` holds."""
        return [unit for unit in self.held.get(txn, ()) if unit[2] == "short"]

    # -- internals -----------------------------------------------------

    def _add(self, txn: object, unit: Unit) -> None:
        held = self.held.setdefault(txn, {})
        held[unit] = held.get(unit, 0) + 1

    def _drop(self, txn: object, unit: Unit) -> bool:
        held = self.held.get(txn, {})
        if unit not in held:
            return False
        held[unit] -= 1
        if not held[unit]:
            del held[unit]
        return True


def unit_of(event: Dict[str, object]) -> Unit:
    """A ``lock.*`` event's ``(resource, mode, duration)``, as strings."""
    return (str(event.get("resource")), str(event.get("mode")), str(event.get("duration")))
