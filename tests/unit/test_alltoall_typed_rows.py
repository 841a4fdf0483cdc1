"""Typed ``alltoall`` rows — one ``(p, k)`` int64 array in place of ``p``
k-tuples, what the drain's counter exchange passes: the same results,
messages, bytes and virtual time as the list row they stand for, on
every collective layer; messages that never alias the sender's row or
its working copy; and typed errors for rows of mixed kinds."""

import numpy as np
import pytest

from repro.apps.base import MpiProgram
from repro.errors import MpiError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.mana.session import run_app_native
from repro.simmpi import collectives
from repro.simmpi.collectives import (
    ALLTOALL_SHORT_MSG,
    bruck_alltoall_rounds,
    bruck_pack,
)

LAYERS = ["native", "lower_half", "pt2pt_always"]


def run_on(layer, p, factory):
    if layer == "native":
        return run_app_native(p, factory, TESTBOX)
    cfg = ManaConfig.feature_2pc()
    if layer == "pt2pt_always":
        cfg = cfg.but(collective_mode=CollectiveMode.PT2PT_ALWAYS)
    return ManaSession(p, factory, TESTBOX, cfg).run()


def pair(r, j):
    """The counter pair rank ``r`` holds for rank ``j``."""
    return (1000 * r + 7 * j, r ^ j)


class CounterRows(MpiProgram):
    """One drain-shaped alltoall, entered late by the high ranks so the
    members sit in different rounds; afterwards every rank scribbles
    over the row it passed."""

    def __init__(self, rank, kind):
        super().__init__(rank)
        self.kind = kind

    def row(self, me, p):
        row = [pair(me, j) for j in range(p)]
        if self.kind(me) == "typed":
            return np.array(row, dtype=np.int64).reshape(p, 2)
        return row

    def main(self, api):
        me, p = api.rank, api.size
        yield from api.compute(3e-5 * ((p - me) % p))
        row = self.row(me, p)
        out = yield from api.alltoall(row)
        if type(row) is np.ndarray:
            row.fill(-1)
            return type(out), out.dtype, list(map(tuple, out.tolist()))
        return type(out), None, out


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("p", range(1, 34))
def test_typed_row_equals_the_list_row_it_stands_for(p, layer):
    typed = run_on(layer, p, lambda r: CounterRows(r, lambda me: "typed"))
    listed = run_on(layer, p, lambda r: CounterRows(r, lambda me: "list"))
    transpose = [[pair(r, me) for r in range(p)] for me in range(p)]
    assert [out for _t, _d, out in listed.results] == transpose
    assert typed.results == [(np.ndarray, np.int64, row) for row in transpose]
    assert typed.network_messages == listed.network_messages
    assert typed.network_bytes == listed.network_bytes
    assert typed.elapsed == listed.elapsed


@pytest.mark.parametrize("p", range(1, 34))
def test_a_round_message_never_aliases_the_working_row(p):
    """A basic slice of ``held`` is a view: every round's message must
    survive the sender overwriting ``held`` (as its later rounds do)."""
    for _d, cuts in bruck_alltoall_rounds(p):
        held = np.arange(2 * p, dtype=np.int64).reshape(p, 2)
        msg = bruck_pack(cuts, held, None)
        want = msg.blocks.copy()
        held.fill(-1)
        assert np.array_equal(msg.blocks, want)
        assert msg.sizes is None and msg.nbytes == 24 * len(want)


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("p", [2, 3, 6, 8, 13])
def test_receivers_survive_the_sender_overwriting_row_and_held(
        p, layer, monkeypatch):
    """The moment a rank's call returns it overwrites the row it passed
    (``CounterRows`` does) and the working copy its messages were cut
    from, while slower ranks still hold those messages unread."""
    helds = {}  # id -> (owner rank, the array), taken on first sight

    def spy(cuts, held, sizes):
        if id(held) not in helds:
            helds[id(held)] = (int(held[0, 0]) // 1000, held)
        return bruck_pack(cuts, held, sizes)

    monkeypatch.setattr(collectives, "bruck_pack", spy)

    class Scribbler(CounterRows):
        def main(self, api):
            out = yield from super().main(api)
            for owner, held in helds.values():
                if owner == api.rank:
                    held.fill(-1)
            return out

    run = run_on(layer, p, lambda r: Scribbler(r, lambda me: "typed"))
    assert len(helds) >= p
    assert [out for _t, _d, out in run.results] == [
        [pair(r, me) for r in range(p)] for me in range(p)]


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("p,odd_one", [(2, 0), (3, 2), (5, 0), (8, 3), (8, 7)])
def test_rows_of_mixed_kinds_raise_a_typed_error(p, odd_one, layer):
    """Never a hang: every rank runs the same rounds, and the first
    receive from a rank of the other kind names both sides."""
    kind = lambda me: "typed" if me == odd_one else "list"
    with pytest.raises(MpiError, match="rows differ in kind") as err:
        run_on(layer, p, lambda r: CounterRows(r, kind))
    assert "ndarray blocks" in str(err.value)
    assert "list blocks" in str(err.value)


@pytest.mark.parametrize("row", [
    np.zeros(4, dtype=np.int64),              # not one row per rank
    np.zeros((4, 2), dtype=np.float64),       # not integer tuples
    np.zeros((4, ALLTOALL_SHORT_MSG // 8), dtype=np.int64),  # long blocks
])
def test_malformed_typed_rows_are_refused(row):
    class Malformed(MpiProgram):
        def main(self, api):
            out = yield from api.alltoall(row)
            return out

    with pytest.raises(MpiError, match="typed alltoall row"):
        run_app_native(4, lambda r: Malformed(r), TESTBOX)
