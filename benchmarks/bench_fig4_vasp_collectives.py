"""Figure 4: number of collective communications per second per process
for VASP-5, on Haswell and KNL.

Paper: "When doubling the number of ranks, the growth in the number of
collective calls is roughly logarithmic in the number of nodes."  The
figure motivates why VASP is the stress test for MANA's per-collective
overhead.

Here: the DFT proxy (pure-MPI VASP-5 flavor) run natively across node
counts; the rate rises with every doubling but by less each time
(strong scaling shrinks the compute between collectives while their
log p latency grows), i.e. roughly logarithmic growth.
"""

import math

from repro.apps.workloads import workload
from repro.bench import BenchScale, collective_rate_point, current_scale, save_result
from repro.hosts import CORI_HASWELL, CORI_KNL
from repro.util.tables import AsciiTable, format_series


def sweep():
    scale = current_scale()
    nodes_list = [1, 2, 4, 8, 16] if scale is BenchScale.FULL else [1, 2, 4]
    w = workload("CaPOH")
    iterations = 4 if scale is BenchScale.FULL else 3
    data = {"workload": w.name, "machines": {}}
    for machine in (CORI_HASWELL, CORI_KNL):
        data["machines"][machine.name] = [
            collective_rate_point(n, machine, w, iterations)
            for n in nodes_list
        ]
    return data


def render(data) -> str:
    lines = [
        "Figure 4 — collective communications per second per process "
        f"(VASP-5 proxy, {data['workload']}, native)",
    ]
    for name, rows in data["machines"].items():
        t = AsciiTable(
            ["nodes", "ranks", "collectives/s/process"],
            title=f"\n{name.upper()}",
        )
        for r in rows:
            t.add_row(
                [r["nodes"], r["nranks"],
                 f"{r['collectives_per_sec_per_process']:.0f}"]
            )
        lines.append(t.render())
        lines.append(
            format_series(
                f"{name} rate vs nodes",
                [r["nodes"] for r in rows],
                [r["collectives_per_sec_per_process"] for r in rows],
                bar=True,
            )
        )
    return "\n".join(lines)


def test_fig4_collective_rate(once):
    data = once(sweep)
    save_result("fig4_vasp_collectives", render(data), data)
    for name, rows in data["machines"].items():
        rates = [r["collectives_per_sec_per_process"] for r in rows]
        # the rate rises with every doubling of nodes, but sublinearly
        # (roughly logarithmic): each doubling gains less than 2x, the
        # collectives' log p latency taking a growing share of the
        # shrinking per-rank compute.  No plateau or taper is allowed:
        # one means some set-up cost is growing like p again
        for a, b in zip(rates, rates[1:]):
            assert 1.0 < b / a < 2.0, (name, rates)
    # Haswell's faster compute yields a higher collective rate (as in the
    # paper's figure, where the Haswell series sits above KNL)
    h = data["machines"]["haswell"][0]["collectives_per_sec_per_process"]
    k = data["machines"]["knl"][0]["collectives_per_sec_per_process"]
    assert h > k
