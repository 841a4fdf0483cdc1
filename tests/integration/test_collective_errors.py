"""Integration: a malformed collective argument raises the same typed
error on every collective layer — natively, through MANA into the lower
half, and above it (PT2PT_ALWAYS, Section III-E) — because every layer
runs the same algorithm, which checks its arguments before any round."""

import pytest

from repro.apps.base import MpiProgram
from repro.errors import MpiError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.mana.session import run_app_native
from repro.simmpi.ops import SUM

LAYERS = ["native", "lower_half", "pt2pt_always"]


def run_on(layer, p, factory):
    if layer == "native":
        return run_app_native(p, factory, TESTBOX)
    cfg = ManaConfig.feature_2pc()
    if layer == "pt2pt_always":
        cfg = cfg.but(collective_mode=CollectiveMode.PT2PT_ALWAYS)
    return ManaSession(p, factory, TESTBOX, cfg).run()


class ShortRow(MpiProgram):
    """Passes one block fewer than the communicator has ranks."""

    def __init__(self, rank, call):
        super().__init__(rank)
        self.call = call

    def main(self, api):
        row = [self.rank + j for j in range(api.size - 1)]
        out = yield from self.call(api, row)
        return out


@pytest.mark.parametrize("layer", LAYERS)
def test_a_short_reduce_scatter_row_is_refused_by_name(layer):
    call = lambda api, row: api.reduce_scatter_block(row, SUM)
    with pytest.raises(MpiError,
                       match=r"^reduce_scatter needs a list of 4 items$"):
        run_on(layer, 4, lambda r: ShortRow(r, call))


@pytest.mark.parametrize("layer", LAYERS)
def test_a_short_alltoall_row_is_refused_by_name(layer):
    call = lambda api, row: api.alltoall(row)
    with pytest.raises(MpiError,
                       match=r"^alltoall needs a list of 4 items, got 3$"):
        run_on(layer, 4, lambda r: ShortRow(r, call))
