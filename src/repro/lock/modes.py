"""Lock modes: the paper's Table 1.

Five modes over a lattice::

            X
            |
           SIX
          /   \\
         S     IX
          \\   /
           IS

``supremum`` gives the least mode covering two held modes (a transaction
holding S and IX on the same resource effectively holds SIX -- the paper
defines SIX as "the union of S and IX").
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class LockMode(enum.Enum):
    """The five granular lock modes of the paper's Table 1."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    # Members are singletons, so identity hashing is exact, and it runs in
    # C: ``Enum.__hash__`` hashes the member name in Python, and the lock
    # table hashes modes on every grant check.  No order is read off a
    # hash of a mode.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # terse traces
        return self.value


class LockDuration(enum.Enum):
    """How long a lock is held (the paper's two durations, after [17])."""

    #: released when the requesting operation completes
    SHORT = "short"
    #: released at transaction commit or rollback
    COMMIT = "commit"

    __hash__ = object.__hash__  # as for LockMode

    def __repr__(self) -> str:
        return self.value


# The paper's Table 1.  compatible[(requested, held)] -- the matrix is
# symmetric, but we spell out every pair to mirror the table faithfully.
_COMPAT: Dict[Tuple[LockMode, LockMode], bool] = {}


def _fill(requested: LockMode, held_ok: Tuple[LockMode, ...]) -> None:
    for held in LockMode:
        _COMPAT[(requested, held)] = held in held_ok


_fill(LockMode.IS, (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX))
_fill(LockMode.IX, (LockMode.IS, LockMode.IX))
_fill(LockMode.S, (LockMode.IS, LockMode.S))
_fill(LockMode.SIX, (LockMode.IS,))
_fill(LockMode.X, ())


def compatible(requested: LockMode, held: LockMode) -> bool:
    """True when ``requested`` can be granted alongside ``held`` (Table 1)."""
    return _COMPAT[(requested, held)]


# Partial order for supremum computation: mode -> set of modes it covers.
_COVERS: Dict[LockMode, frozenset] = {
    LockMode.IS: frozenset({LockMode.IS}),
    LockMode.IX: frozenset({LockMode.IS, LockMode.IX}),
    LockMode.S: frozenset({LockMode.IS, LockMode.S}),
    LockMode.SIX: frozenset({LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX}),
    LockMode.X: frozenset(set(LockMode)),
}

#: Modes in non-decreasing strength order (a topological order of the lattice).
MODE_ORDER = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)

#: mode -> its name: a dict hit in C where ``mode.value`` runs the
#: Python-level ``Enum.value`` property (per-grant counters read it)
MODE_NAME: Dict[LockMode, str] = {mode: mode.value for mode in LockMode}


def covers(stronger: LockMode, weaker: LockMode) -> bool:
    """True when holding ``stronger`` implies the privileges of ``weaker``."""
    return weaker in _COVERS[stronger]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """Least mode covering both ``a`` and ``b`` (e.g. S ∨ IX = SIX)."""
    if covers(a, b):
        return a
    if covers(b, a):
        return b
    for mode in MODE_ORDER:
        if covers(mode, a) and covers(mode, b):
            return mode
    raise AssertionError("lattice has a top element; unreachable")


def is_intention(mode: LockMode) -> bool:
    """True for the intention modes IS and IX."""
    return mode in (LockMode.IS, LockMode.IX)
