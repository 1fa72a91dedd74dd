"""Figure 2 — unordered SSSP working-set size during execution on the
CO-road, Amazon and SNS networks.

Reproduces the figure's three series: the working set starts at one
node, ramps while the traversal spreads, peaks once a large fraction of
nodes has been touched, then drains.  The road network's curve is long
and low; the social network's is short and explosive.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import run_static
from repro.utils.tables import Table


def workset_series(key: str):
    graph, source = bench_workload(key, weighted=True)
    result = run_static(graph, source, "sssp", "U_T_BM")
    return graph, result.workset_curve()


def render_series(key: str, curve: np.ndarray, num_nodes: int) -> str:
    table = Table(
        ["iteration", "workset", ""], title=f"Figure 2 series: {key} "
        f"(peak {curve.max()} at iter {int(np.argmax(curve))}, {len(curve)} iters)"
    )
    # Sample at most 24 rows evenly across the run.
    idx = np.unique(np.linspace(0, len(curve) - 1, 24).astype(int))
    peak = max(1, int(curve.max()))
    for i in idx:
        table.add_row([int(i), int(curve[i]), "#" * int(50 * curve[i] / peak)])
    return table.render()


def build_figure2():
    parts = []
    curves = {}
    for key in ("co-road", "amazon", "sns"):
        graph, curve = workset_series(key)
        curves[key] = (graph, curve)
        parts.append(render_series(key, curve, graph.num_nodes))
    return "\n\n".join(parts), curves


def test_figure2_workingset_evolution(benchmark):
    content, curves = benchmark.pedantic(build_figure2, rounds=1, iterations=1)
    write_report("figure2_workingset", content)

    for key, (graph, curve) in curves.items():
        peak_at = int(np.argmax(curve))
        # Ramp-then-drain shape: growth phase, interior peak, shrink phase.
        assert curve[0] == 1, key
        assert 0 < peak_at < len(curve) - 1, key
        assert curve[-1] <= curve[peak_at], key

    # Road: many iterations, modest peak. SNS: few iterations, huge peak.
    road_graph, road = curves["co-road"]
    sns_graph, sns = curves["sns"]
    assert len(road) > 5 * len(sns)
    assert sns.max() / sns_graph.num_nodes > road.max() / road_graph.num_nodes
