"""Algorithm zoo: five algorithms, one graph, one adaptive runtime.

The paper closes with "we believe that our proposed mechanisms can be
extended and applied to other graph algorithms that exhibit similar
computational patterns."  This example runs everything the repository
implements on one social-network analogue and shows how differently
their working sets travel through the same decision space:

- BFS: ramps 1 -> peak -> drains (a few big iterations);
- SSSP: same shape, fatter and longer (re-relaxation);
- connected components: starts at ALL nodes, drains monotonically;
- PageRank: starts at all nodes, collapses, then trickles at hubs;
- k-core: sawtooth — a burst and cascade per k level.

Run with::

    python examples/algorithm_zoo.py [scale]
"""

import sys

import numpy as np

from repro import adaptive_run
from repro.graph.datasets import make_dataset
from repro.graph.generators import attach_uniform_weights
from repro.graph.properties import largest_out_component_node
from repro.utils.tables import Table, format_seconds, format_si


def sparkline(curve: np.ndarray, width: int = 40) -> str:
    """Render a working-set curve as a tiny ASCII chart."""
    if len(curve) == 0:
        return ""
    idx = np.linspace(0, len(curve) - 1, min(width, len(curve))).astype(int)
    sampled = curve[idx].astype(float)
    peak = max(1.0, sampled.max())
    blocks = " .:-=+*#%@"
    return "".join(
        blocks[min(len(blocks) - 1, int(v / peak * (len(blocks) - 1)))]
        for v in sampled
    )


def main(scale: float = 0.02) -> None:
    graph = make_dataset("sns", scale=scale, seed=33)
    weighted = attach_uniform_weights(graph, seed=34)
    source = largest_out_component_node(graph, seed=0)
    print(
        f"social graph: {format_si(graph.num_nodes)} nodes, "
        f"{format_si(graph.num_edges)} edges; source {source}\n"
    )

    runs = {
        "BFS": adaptive_run(graph, "bfs", source),
        "SSSP": adaptive_run(weighted, "sssp", source),
        "connected components": adaptive_run(graph, "cc"),
        "PageRank": adaptive_run(graph, "pagerank", tolerance=1e-6),
        "k-core": adaptive_run(graph, "kcore"),
    }

    table = Table(
        ["algorithm", "iterations", "time", "switches", "variants"],
        title="five algorithms under one adaptive runtime",
    )
    for name, result in runs.items():
        table.add_row(
            [
                name,
                result.num_iterations,
                format_seconds(result.total_seconds),
                result.trace.num_switches,
                "+".join(sorted(result.variants_used())),
            ]
        )
    print(table.render())

    print("\nworking-set trajectories (each scaled to its own peak):")
    for name, result in runs.items():
        curve = result.workset_curve()
        print(f"  {name:22s} |{sparkline(curve)}|  peak {format_si(curve.max())}")

    # Cross-algorithm facts from one run each.
    bfs_levels = runs["BFS"].values
    coreness = runs["k-core"].values
    ranks = runs["PageRank"].values
    hub = int(np.argmax(ranks))
    print(
        f"\nhighest-PageRank node: {hub} "
        f"(coreness {coreness[hub]}, {int((bfs_levels == 1).sum())} direct "
        f"neighbors of the source, max core {coreness.max()})"
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
