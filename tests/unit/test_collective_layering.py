"""The layering lint's one-algorithm-per-shape rule: collective
algorithms are defined only in ``repro/simmpi/collectives.py``, and under
``repro/mana`` only the upper half's executor sends and receives through
``_internal_isend``/``_internal_recv``."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_layering  # noqa: E402

sys.path.pop(0)


def test_the_rule_names_every_plan_and_algorithm():
    names = check_layering.collective_algorithms()
    for name in ("barrier", "bcast", "reduce_", "allreduce", "gather",
                 "scatter", "allgather", "alltoall", "scan",
                 "reduce_scatter_block", "dissemination", "binomial_down",
                 "binomial_up", "recursive_doubling", "bruck_allgather",
                 "bruck_alltoall", "pairwise", "chain"):
        assert name in names
    # helpers the algorithms share are not algorithms
    assert "run_rounds" not in names and "bruck_pack" not in names


def test_a_second_copy_of_an_algorithm_is_caught(tmp_path):
    bad = tmp_path / "collective_impl.py"
    bad.write_text(
        "def _tag(seq, round_=0):\n"
        "    return seq + round_\n"
        "def barrier(api, comm_vid, me, p, seq):\n"
        "    for k in range(p):\n"
        "        yield from api._internal_isend(comm_vid, me, _tag(seq, k), None)\n"
        "        yield from api._internal_recv(comm_vid, me, _tag(seq, k))\n"
        "def run_rounds(at, plan, me, root, acc):\n"
        "    yield from at[0]._internal_recv(at[1], me, 0)\n"
        "class Api:\n"
        "    def bcast(self, data):\n"  # a method, not a module function
        "        return data\n"
    )
    names = check_layering.collective_algorithms()
    assert check_layering.algorithm_copies(bad, names) == [(3, "barrier")]
    assert check_layering.internal_pt2pt_callers(bad, "run_rounds") == [
        (5, "_internal_isend"), (6, "_internal_recv")]
    assert [lineno for lineno, _ in
            check_layering.internal_pt2pt_callers(bad)] == [5, 6, 8]


def test_the_tree_is_clean():
    assert check_layering.collective_violations() == []
