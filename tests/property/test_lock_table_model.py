"""Property test: the lock table against a reference model of holdings.

Random sequences of conditional ``acquire``, ``release``,
``end_operation`` and ``release_all`` run against both the
:class:`LockManager` and a plain model that keeps, per transaction and
resource, a count per (mode, duration).  Conditional requests never
queue, so the model decides every grant from the holders alone: granted
exactly when no *other* transaction's effective mode conflicts.  After
every step all inspection methods must agree with the model -- which
pins the single conflict rule the grant path, queue processing, the
waits-for graph and ``has_conflicting_holder`` share, and the per-unit
rule by which ``holds_covering`` answers the protocol's "already held?".
"""

from collections import Counter
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lock import LockDuration, LockMode, ResourceId, compatible, supremum
from repro.lock.manager import LockError, SingleThreadedWait
from repro.lock.modes import covers
from tests.conftest import make_lock_manager

TXNS = ("t0", "t1", "t2")
RESOURCES = (ResourceId.leaf(1), ResourceId.leaf(2), ResourceId.ext(1))
MODES = tuple(LockMode)
DURATIONS = tuple(LockDuration)

txn = st.sampled_from(TXNS)
resource = st.sampled_from(RESOURCES)
mode = st.sampled_from(MODES)
duration = st.sampled_from(DURATIONS)
operation = st.one_of(
    st.tuples(st.just("acquire"), txn, resource, mode, duration),
    st.tuples(st.just("release"), txn, st.integers(0, 20), resource, mode, duration),
    st.tuples(st.just("end_operation"), txn),
    st.tuples(st.just("release_all"), txn),
)


class Model:
    """txn -> resource -> Counter of (mode, duration) holds."""

    def __init__(self) -> None:
        self.held: Dict[str, Dict[ResourceId, Counter]] = {t: {} for t in TXNS}

    def effective(self, txn_id, res) -> Optional[LockMode]:
        out = None
        for held_mode, _duration in self.held[txn_id].get(res, ()):
            out = held_mode if out is None else supremum(out, held_mode)
        return out

    def conflicts(self, res, wanted, ignore) -> bool:
        for other in TXNS:
            if other in ignore:
                continue
            effective = self.effective(other, res)
            if effective is not None and not compatible(wanted, effective):
                return True
        return False

    def holds_covering(self, txn_id, res, wanted, dur) -> bool:
        """Some single held unit covers the want and lasts long enough."""
        return any(
            r == res
            and covers(held_mode, wanted)
            and (held_duration is LockDuration.COMMIT or dur is LockDuration.SHORT)
            for r, held_mode, held_duration in self.units(txn_id)
        )

    def units(self, txn_id):
        return [
            (res, held_mode, held_duration)
            for res, counts in self.held[txn_id].items()
            for (held_mode, held_duration), n in counts.items()
            for _ in range(n)
        ]

    def remove(self, txn_id, res, held_mode, held_duration) -> None:
        counts = self.held[txn_id][res]
        counts[(held_mode, held_duration)] -= 1
        if not +counts:
            del self.held[txn_id][res]
        else:
            self.held[txn_id][res] = +counts


def _check(lm, model: Model) -> None:
    holds = 0
    for res in RESOURCES:
        expected_holders = {}
        for txn_id in TXNS:
            effective = model.effective(txn_id, res)
            assert lm.held_mode(txn_id, res) == effective
            if effective is not None:
                expected_holders[txn_id] = effective
                holds += 1
        assert lm.holders(res) == expected_holders
        for wanted in MODES:
            assert lm.has_conflicting_holder(res, wanted) == model.conflicts(res, wanted, ())
            for txn_id in TXNS:
                assert lm.has_conflicting_holder(res, wanted, ignore=(txn_id,)) == (
                    model.conflicts(res, wanted, (txn_id,))
                )
                for dur in DURATIONS:
                    assert lm.holds_covering(txn_id, res, wanted, dur) == (
                        model.holds_covering(txn_id, res, wanted, dur)
                    )
    for txn_id in TXNS:
        assert lm.locks_of(txn_id) == {
            res: dict(counts) for res, counts in model.held[txn_id].items()
        }
    assert lm.outstanding() == (holds, 0)


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
@settings(max_examples=150, deadline=None)
@given(st.lists(operation, max_size=40))
def test_lock_table_matches_reference_model(observed, ops):
    lm = make_lock_manager(observed, wait_strategy=SingleThreadedWait())
    model = Model()
    for op in ops:
        kind, txn_id = op[0], op[1]
        if kind == "acquire":
            _, _, res, wanted, dur = op
            expected = not model.conflicts(res, wanted, (txn_id,))
            assert lm.acquire(txn_id, res, wanted, dur, conditional=True) is expected
            if expected:
                model.held[txn_id].setdefault(res, Counter())[(wanted, dur)] += 1
        elif kind == "release":
            _, _, pick, res, held_mode, dur = op
            units = model.units(txn_id)
            if units:
                res, held_mode, dur = units[pick % len(units)]
                lm.release(txn_id, res, held_mode, dur)
                model.remove(txn_id, res, held_mode, dur)
            else:
                with pytest.raises(LockError):
                    lm.release(txn_id, res, held_mode, dur)
        elif kind == "end_operation":
            lm.end_operation(txn_id)
            for res in list(model.held[txn_id]):
                for key in [k for k in model.held[txn_id][res] if k[1] is LockDuration.SHORT]:
                    del model.held[txn_id][res][key]
                if not model.held[txn_id][res]:
                    del model.held[txn_id][res]
        else:
            lm.release_all(txn_id)
            model.held[txn_id].clear()
        _check(lm, model)
