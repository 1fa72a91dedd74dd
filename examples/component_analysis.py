"""Component analysis: a third algorithm on the adaptive runtime, plus
the hybrid CPU-GPU executor on the GPU-hostile case.

Two extension features in one scenario: a network operator wants the
weakly connected components of a peer-to-peer overlay (is the network
partitioned?) and shortest paths over a road map (the topology where
GPUs struggle).  Connected components rides the same adaptive runtime
as BFS/SSSP — its working set starts at *every* node and drains, the
reverse of a BFS ramp — and the road query demonstrates the hybrid
executor recovering the CPU's advantage.

Run with::

    python examples/component_analysis.py
"""

import numpy as np

from repro import adaptive_run, hybrid_run
from repro.cpu import cpu_connected_components, cpu_dijkstra
from repro.graph.datasets import make_dataset
from repro.graph.properties import largest_out_component_node
from repro.utils.tables import Table, format_seconds, format_si


def analyze_components() -> None:
    graph = make_dataset("p2p", scale=1.0, seed=21)
    print(
        f"p2p overlay: {format_si(graph.num_nodes)} peers, "
        f"{format_si(graph.num_edges)} links"
    )

    cpu = cpu_connected_components(graph)
    ad = adaptive_run(graph, "cc")
    assert np.array_equal(ad.values, cpu.labels)

    labels, counts = np.unique(ad.values, return_counts=True)
    order = np.argsort(counts)[::-1]
    table = Table(["component", "peers", "% of network"], title="largest components")
    for i in order[:5]:
        table.add_row(
            [int(labels[i]), int(counts[i]),
             f"{100 * counts[i] / graph.num_nodes:.1f}%"]
        )
    print(table.render())
    print(
        f"{cpu.num_components} components total; GPU label propagation "
        f"{format_seconds(ad.total_seconds)} vs union-find "
        f"{format_seconds(cpu.seconds)}"
    )
    curve = ad.workset_curve()
    print(
        f"working set drained {curve[0]} -> {curve[-1]} over "
        f"{ad.num_iterations} iterations; variants: {ad.variants_used()}"
    )


def analyze_road_routing() -> None:
    graph = make_dataset("co-road", scale=0.05, weighted=True, seed=22)
    source = largest_out_component_node(graph, seed=0)
    print(
        f"\nroad map: {format_si(graph.num_nodes)} intersections, "
        f"{format_si(graph.num_edges)} segments"
    )

    cpu = cpu_dijkstra(graph, source)
    gpu = adaptive_run(graph, "sssp", source)
    hybrid = hybrid_run(graph, "sssp", source)
    assert np.allclose(hybrid.values, cpu.distances)

    table = Table(["executor", "time", "notes"], title="SSSP on the road map")
    table.add_row(["serial CPU", format_seconds(cpu.seconds), "the baseline"])
    table.add_row(
        ["GPU adaptive", format_seconds(gpu.total_seconds),
         "launch+readback x hundreds of tiny iterations"]
    )
    table.add_row(
        ["hybrid CPU-GPU", format_seconds(hybrid.total_seconds),
         f"{hybrid.cpu_iterations} CPU / {hybrid.gpu_iterations} GPU iterations"]
    )
    print(table.render())


def main() -> None:
    analyze_components()
    analyze_road_routing()


if __name__ == "__main__":
    main()
