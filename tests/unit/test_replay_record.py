"""ReplayLog.record snapshot semantics: the immutability fast path.

``record()`` must isolate the log from later mutation of aliased
application buffers (the recorded value may share structure with a
payload the app overwrites after the call returns), without paying
``copy.deepcopy`` for the overwhelmingly common case — scalars, strings,
and tuples thereof — where aliasing is unobservable.
"""

from __future__ import annotations

import pytest

from repro.errors import ManaError
from repro.mana.replay import ReplayLog, _fully_immutable, _snapshot


def test_atomic_values_recorded_by_reference():
    for value in (None, True, 42, 2.5, 1 + 2j, "tag", b"payload"):
        assert _snapshot(value) is value


def test_immutable_tuples_recorded_by_reference():
    value = (1, "x", (2.0, None), b"raw")
    assert _snapshot(value) is value
    assert _fully_immutable(value)


def test_mutable_values_are_copied():
    for value in ([1, 2], {"k": 1}, {1, 2}, bytearray(b"x")):
        got = _snapshot(value)
        assert got == value
        assert got is not value
    # a tuple holding a mutable element loses the fast path
    value = (1, [2, 3])
    got = _snapshot(value)
    assert got == value
    assert got is not value
    assert got[1] is not value[1]  # the copy is deep


def test_aliased_buffer_mutation_is_isolated():
    """The satellite's regression case: the app mutates a buffer the
    recorded result aliases; replay must see the recorded value."""
    log = ReplayLog()
    payload = [0, 1, 2]
    log.record("recv", (payload, {"source": 1}))
    payload.append(99)            # app reuses its buffer
    payload[0] = -1
    log.replaying = True
    got = log.next("recv")
    assert got == ([0, 1, 2], {"source": 1})


def test_deepcopy_equivalence_for_aliased_graphs():
    """The fast path must be *behaviorally* identical to the old
    unconditional deepcopy: same values out, same isolation — only
    object identity for fully-immutable values may differ (and deepcopy
    returned those by reference too)."""
    import copy

    shared = [1, 2]
    value = {"a": shared, "b": shared}
    got = _snapshot(value)
    assert got == copy.deepcopy(value)
    assert got["a"] is got["b"]   # internal aliasing preserved
    shared.append(3)
    assert got["a"] == [1, 2]     # external aliasing severed


def test_recv_results_are_isolated_without_a_deepcopy(monkeypatch):
    """``(payload, Status)`` — what every ``recv`` records — is copied
    field-wise: mutating the returned status or payload after the call
    never reaches the log, and ``copy.deepcopy`` runs only for a payload
    that needs it."""
    import copy
    import pickle

    from repro.simmpi.constants import Status

    deep = []
    real = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy",
                        lambda v, *a: deep.append(v) or real(v, *a))
    log = ReplayLog()
    status = Status(source=3, tag=7, count=24)
    payload = [0, 1, 2]
    log.record("recv", (5, status))
    log.record("recv", (payload, status))
    log.record("probe", status)
    assert deep == [payload]
    status.source, status.cancelled = -9, True   # the app reuses both
    payload.append(99)
    log.replaying = True
    want = Status(source=3, tag=7, count=24)
    assert log.next("recv") == (5, want)
    assert log.next("recv") == ([0, 1, 2], want)
    assert log.next("probe") == want
    # what deepcopy would have built, to the pickled byte
    for value in ((5, want), ([1], want), want):
        assert pickle.dumps(_snapshot(value)) == pickle.dumps(real(value))


def test_a_status_holding_a_mutable_field_still_deepcopies():
    from repro.simmpi.constants import Status

    status = Status(source=1)
    status.count = [24]           # not what the library builds
    got = _snapshot((None, status))
    status.count.append(0)
    assert got[1].count == [24]


def test_record_rejected_while_replaying():
    log = ReplayLog()
    log.record("send", None)
    log.replaying = True
    with pytest.raises(ManaError):
        log.record("send", None)
