"""Web-graph exploration: crawl-order levels on a Google-style link graph,
with a look inside the simulator's performance counters.

The paper's web scenario (Section III.A): connectivity of the page-link
network drives ranking and crawling.  Link graphs are heavy-tailed — a
few portal pages have hundreds of outlinks — which is exactly what
punishes thread mapping with warp divergence.  This example runs the
same BFS under thread- and block-mapping and prints the SIMT-efficiency
and occupancy counters the simulator collects, showing *why* one beats
the other.

Run with::

    python examples/webgraph_exploration.py [scale]
"""

import sys

import numpy as np

from repro import adaptive_run, run_static
from repro.cpu import cpu_bfs
from repro.graph.datasets import make_dataset
from repro.graph.properties import largest_out_component_node, out_degree_histogram
from repro.utils.tables import Table, format_seconds, format_si


def main(scale: float = 0.05) -> None:
    print(f"generating Google web-graph analogue at scale {scale} ...")
    graph = make_dataset("google", scale=scale, seed=11)
    source = largest_out_component_node(graph, seed=0)
    print(
        f"web graph: {format_si(graph.num_nodes)} pages, "
        f"{format_si(graph.num_edges)} links, "
        f"avg outdegree {graph.avg_out_degree:.1f}, "
        f"max outdegree {graph.out_degrees.max()}"
    )

    # The heavy tail at a glance.
    hist = out_degree_histogram(graph, n_bins=10)
    table = Table(["outdegree", "pages", "%"], title="outdegree distribution")
    for label, count, frac in zip(hist.bin_labels(), hist.counts, hist.fractions):
        table.add_row([label, format_si(count), f"{100 * frac:.1f}%"])
    print()
    print(table.render())

    # --- thread vs block mapping, with performance counters -------------
    cpu = cpu_bfs(graph, source)
    print(f"\nserial CPU BFS: {format_seconds(cpu.seconds)}")

    counter_table = Table(
        ["variant", "time", "SIMT efficiency", "avg occupancy", "launches"],
        title="inside the simulated GPU",
    )
    for code in ("U_T_QU", "U_B_QU"):
        r = run_static(graph, source, "bfs", code)
        assert np.array_equal(r.values, cpu.levels)
        comp = [k for k in r.timeline.kernels if k.tally.name.startswith("bfs")]
        eff = np.mean([k.tally.simt_efficiency for k in comp])
        occ = np.mean([k.cost.occupancy for k in comp])
        counter_table.add_row(
            [
                code,
                format_seconds(r.total_seconds),
                f"{eff:.0%}",
                f"{occ:.0%}",
                r.timeline.num_launches,
            ]
        )
    print()
    print(counter_table.render())
    print(
        "under thread mapping a warp waits for its heaviest lane (the hub\n"
        "pages), showing up as low SIMT efficiency; block mapping spreads a\n"
        "hub's outlinks across its lanes but pays idle lanes on the long\n"
        "tail of low-outdegree pages — on this graph neither wins big, and\n"
        "the adaptive runtime splits the traversal between them."
    )

    # --- the adaptive run ------------------------------------------------
    ad = adaptive_run(graph, "bfs", source)
    assert np.array_equal(ad.values, cpu.levels)
    print(
        f"\nadaptive BFS: {format_seconds(ad.total_seconds)} "
        f"({cpu.seconds / ad.total_seconds:.2f}x vs CPU), "
        f"decisions {ad.trace.variants_chosen()}"
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
