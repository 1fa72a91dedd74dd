"""T2 tuning (Section VII.B) — the T_QU vs B_QU kernel-time crossover.

The paper derives T2 analytically (192 threads/block x 14 SMs = 2,688)
and confirms it empirically: "B_QU outperforms T_QU for working set
sizes smaller than ~3000".  This bench measures the same crossover on
the simulator across three topologies and checks it lands in the same
band.
"""

from common import bench_graph, write_report
from repro.core.config import derive_t2
from repro.core.tuning import measure_t2_crossover
from repro.gpusim.device import TESLA_C2070
from repro.utils.tables import Table


def build_crossover():
    crossovers = {}
    rows_by_key = {}
    for key in ("co-road", "amazon", "google"):
        graph = bench_graph(key)
        crossover, rows = measure_t2_crossover(graph, seed=0)
        crossovers[key] = crossover
        rows_by_key[key] = rows

    table = Table(
        ["network", "measured crossover", "analytic T2", "paper"],
        title="T2: working-set size where T_QU catches B_QU",
    )
    analytic = derive_t2(TESLA_C2070)
    for key, crossover in crossovers.items():
        table.add_row([key, crossover, analytic, "~3000 (2,688)"])

    detail = Table(
        ["ws size", "T_QU (us)", "B_QU (us)", "winner"],
        title="per-size kernel times (google)",
    )
    for size, t_qu, b_qu in rows_by_key["google"]:
        detail.add_row(
            [size, f"{t_qu * 1e6:.2f}", f"{b_qu * 1e6:.2f}",
             "T" if t_qu <= b_qu else "B"]
        )
    return table.render() + "\n\n" + detail.render(), crossovers


def test_t2_crossover(benchmark):
    content, crossovers = benchmark.pedantic(build_crossover, rounds=1, iterations=1)
    write_report("t2_crossover", content)
    for key, crossover in crossovers.items():
        # Same order of magnitude as the paper's 2,688.
        assert 512 <= crossover <= 16_384, (key, crossover)
