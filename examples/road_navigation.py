"""Road-network navigation: shortest paths on a CO-road-style graph.

The paper's motivating road scenario (Section III.A): a sparse,
large-diameter network where GPS-style routing computes shortest paths.
This example shows why such graphs are the *hard* case for GPUs — tiny
frontiers for thousands of iterations — and how the adaptive runtime's
small-working-set region (block mapping + queue) keeps it at the best
static variant's level while a badly chosen static variant collapses.

Run with::

    python examples/road_navigation.py [scale]
"""

import sys

import numpy as np

from repro import adaptive_run, run_static, unordered_variants
from repro.cpu import cpu_dijkstra
from repro.graph.datasets import make_dataset
from repro.graph.properties import largest_out_component_node, pseudo_diameter
from repro.utils.tables import Table, format_seconds


def main(scale: float = 0.05) -> None:
    print(f"generating CO-road analogue at scale {scale} ...")
    graph = make_dataset("co-road", scale=scale, weighted=True, seed=42)
    source = largest_out_component_node(graph, seed=0)
    diameter = pseudo_diameter(graph, seed=0)
    print(
        f"road map: {graph.num_nodes} intersections, {graph.num_edges} road "
        f"segments, avg degree {graph.avg_out_degree:.1f}, "
        f"pseudo-diameter {diameter} hops"
    )

    # Serial CPU baseline (what a navigation server would run per query).
    cpu = cpu_dijkstra(graph, source)
    print(f"\nserial CPU Dijkstra: {format_seconds(cpu.seconds)} "
          f"({cpu.reached} intersections reachable)")

    table = Table(
        ["implementation", "time", "speedup vs CPU", "iterations"],
        title="GPU SSSP on the road network",
    )
    for variant in unordered_variants():
        r = run_static(graph, source, "sssp", variant)
        assert np.allclose(r.values, cpu.distances)
        table.add_row(
            [
                variant.code,
                format_seconds(r.total_seconds),
                f"{cpu.seconds / r.total_seconds:.2f}x",
                r.num_iterations,
            ]
        )
    ad = adaptive_run(graph, "sssp", source)
    assert np.allclose(ad.values, cpu.distances)
    table.add_row(
        [
            "adaptive",
            format_seconds(ad.total_seconds),
            f"{cpu.seconds / ad.total_seconds:.2f}x",
            ad.num_iterations,
        ]
    )
    print()
    print(table.render())

    print(
        f"\nadaptive runtime decisions: {ad.trace.variants_chosen()} "
        f"({ad.trace.num_switches} switches)"
    )
    print(
        "note: road networks expose so little frontier parallelism that the\n"
        "GPU cannot beat a serial CPU here — exactly the paper's CO-road\n"
        "result, and the reason a runtime must avoid the bitmap variants\n"
        "whose full-graph sweeps multiply the per-iteration overhead."
    )

    # A sample "route query": distance to the farthest reachable node.
    reached = np.isfinite(ad.values)
    far = int(np.argmax(np.where(reached, ad.values, -np.inf)))
    print(
        f"\nlongest shortest route from node {source}: to node {far}, "
        f"cost {ad.values[far]:.0f}"
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
