"""The layering lint's one-fault-engine rule: under ``repro/faults`` only
``injector.py`` calls the mechanism hooks a fault is fired through, or
assigns the burst-buffer fault socket."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_layering  # noqa: E402

sys.path.pop(0)


def test_a_second_firing_path_is_caught(tmp_path):
    # the shape of a harness that fires its own faults at an event index
    bad = tmp_path / "chaos.py"
    bad.write_text(
        "def arm(sess, event, victim, tier, node):\n"
        "    rt = sess.rt\n"
        "    def fire():\n"
        "        for proc in (rt.ranks[victim].proc,):\n"
        "            sess.sched.kill(proc, reason='chaos')\n"
        "        rt.store.drop_tier(tier)\n"
        "        rt.store.drop_node(node)\n"
        "        rt.store.corrupt_copy(victim)\n"
        "        rt.store.arm_manifest_tear(1)\n"
        "        sess.oob.set_fault_filter(lambda dst, item: None)\n"
        "    rt.bb_fault_hook = lambda mrank, image: None\n"
        "    sess.sched.add_event_watch(event, fire)\n"
        "    sess.sched.schedule(1.0, fire)\n"  # scheduling alone is fine
        "    return rt.bb_fault_hook\n"         # reading the socket too
    )
    assert check_layering.fault_firings(bad) == [
        (5, "kill"), (6, "drop_tier"), (7, "drop_node"),
        (8, "corrupt_copy"), (9, "arm_manifest_tear"),
        (10, "set_fault_filter"), (11, "bb_fault_hook"),
        (12, "add_event_watch")]


def test_the_injector_is_the_one_firing_path():
    assert check_layering.fault_firings(check_layering.INJECTOR)
    assert check_layering.fault_engine_violations() == []
