"""Figure 12 — processing speed (million nodes per second) of the best
GPU implementation of BFS and SSSP on every dataset.

Reproduced shapes: BFS is faster than SSSP on every dataset (faster
convergence); dense, small-diameter graphs (CiteSeer, SNS) process the
most nodes per second; the road network is slowest by orders of
magnitude.
"""

from common import bench_workload, dataset_keys, write_report
from repro.core import run_static
from repro.kernels import unordered_variants
from repro.utils.tables import Table


def best_speed(key: str, algorithm: str):
    weighted = algorithm == "sssp"
    graph, source = bench_workload(key, weighted=weighted)
    best_code, best_speed_val = None, -1.0
    for variant in unordered_variants():
        result = run_static(graph, source, algorithm, variant)
        speed = result.nodes_per_second()
        if speed > best_speed_val:
            best_code, best_speed_val = variant.code, speed
    return best_code, best_speed_val


def build_figure12():
    speeds = {}
    table = Table(
        ["network", "BFS Mnodes/s", "BFS best", "SSSP Mnodes/s", "SSSP best"],
        title="Figure 12: processing speed of best implementation",
    )
    for key in dataset_keys():
        bfs_code, bfs_speed = best_speed(key, "bfs")
        sssp_code, sssp_speed = best_speed(key, "sssp")
        speeds[key] = (bfs_speed, sssp_speed)
        table.add_row(
            [
                key,
                f"{bfs_speed / 1e6:.1f}",
                bfs_code,
                f"{sssp_speed / 1e6:.1f}",
                sssp_code,
            ]
        )
    return table.render(), speeds


def test_figure12_processing_speed(benchmark):
    content, speeds = benchmark.pedantic(build_figure12, rounds=1, iterations=1)
    write_report("figure12_speed", content)

    # BFS outpaces SSSP everywhere (Figure 12's consistent gap).
    for key, (bfs_speed, sssp_speed) in speeds.items():
        assert bfs_speed > sssp_speed, key

    # The road network is the slowest for both algorithms.
    road_bfs, road_sssp = speeds["co-road"]
    for key, (bfs_speed, sssp_speed) in speeds.items():
        if key == "co-road":
            continue
        assert bfs_speed > road_bfs, key
        assert sssp_speed > road_sssp, key
