"""A deterministic host-cost budget for the wrapper path.

Wall-clock on a shared box drifts by tens of per cent; the number of
Python-level calls one run makes does not drift at all.  This guard
profiles the Fig. 2 proxy under MANA and natively and bounds the ratio
of the two counts: what the wrappers cost the *host* per MPI call, in
frames and hops, relative to the same calls on the bare lower half.  A
ratio, so it holds across interpreter versions whose absolute counts
differ.  It claims no speed — it keeps forwarding frames and delegation
chains from growing back unnoticed.
"""

import cProfile
import gc
import pstats

from repro.apps.md_proxy import MdConfig, MdProxy
from repro.hosts import CORI_HASWELL
from repro.mana import ManaConfig, ManaSession
from repro.mana.session import run_app_native

NRANKS, STEPS = 64, 6
#: profiled calls under MANA / natively (1.95 when set; 2.57 with the
#: fused-generator rows and the per-call delegation chains before it)
MAX_CALL_RATIO = 2.2


def profiled_calls(run) -> int:
    # the cyclic collector runs finalizers (``finally`` blocks of
    # abandoned generators, weakref callbacks) whenever allocation
    # counts say so, which depends on what ran before: collect what
    # earlier tests left behind, then keep it off while counting
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
        gc.enable()
    return pstats.Stats(profile).total_calls


def test_mana_to_native_call_ratio_is_bounded_and_repeats():
    cfg = MdConfig(nranks=NRANKS, steps=STEPS, seed=2021)
    factory = lambda r: MdProxy(r, cfg, CORI_HASWELL)  # noqa: E731

    def mana():
        out = ManaSession(NRANKS, factory, CORI_HASWELL,
                          ManaConfig.feature_2pc()).run()
        assert out.total_pt2pt_calls + out.total_collective_calls == 4672

    def native():
        run_app_native(NRANKS, factory, CORI_HASWELL)

    # lazy imports and process-wide memos (collective schedules, gids)
    # fill on the first run of each kind; after that a run repeats
    mana()
    native()
    mana_calls = profiled_calls(mana)
    native_calls = profiled_calls(native)
    assert profiled_calls(mana) == mana_calls
    assert profiled_calls(native) == native_calls
    assert mana_calls / native_calls <= MAX_CALL_RATIO, (
        f"{mana_calls} calls under MANA / {native_calls} natively")
