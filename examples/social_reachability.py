"""Social-network reachability: degrees of separation on an SNS graph.

The paper's social-network scenario (Section III.A): connectivity
properties over a LiveJournal-style graph, e.g. the friend-suggestion
feature needs everyone within k hops.  BFS frontiers on such graphs
explode within a few hops — the opposite regime from the road network —
and the adaptive runtime rides the explosion by switching from the
queue to the bitmap representation mid-traversal.

Run with::

    python examples/social_reachability.py [scale]
"""

import sys

import numpy as np

from repro import adaptive_run, run_static, unordered_variants
from repro.cpu import cpu_bfs
from repro.graph.datasets import make_dataset
from repro.graph.properties import largest_out_component_node
from repro.utils.tables import Table, format_seconds, format_si


def main(scale: float = 0.02) -> None:
    print(f"generating SNS (LiveJournal-style) analogue at scale {scale} ...")
    graph = make_dataset("sns", scale=scale, seed=7)
    source = largest_out_component_node(graph, seed=0)
    print(
        f"social graph: {format_si(graph.num_nodes)} users, "
        f"{format_si(graph.num_edges)} follow edges, "
        f"max outdegree {graph.out_degrees.max()}"
    )

    cpu = cpu_bfs(graph, source)
    ad = adaptive_run(graph, "bfs", source)
    assert np.array_equal(ad.values, cpu.levels)

    # --- degrees of separation ------------------------------------------
    levels = ad.values[ad.values >= 0]
    print(f"\nreachable users from user {source}: {format_si(levels.size)}")
    table = Table(["hops", "users", "cumulative %"], title="degrees of separation")
    cumulative = 0
    for hop in range(int(levels.max()) + 1):
        count = int((levels == hop).sum())
        cumulative += count
        table.add_row([hop, format_si(count), f"{100 * cumulative / levels.size:.1f}%"])
    print(table.render())

    # --- how the frontier evolved and what the runtime chose -------------
    print("\nfrontier size and variant per BFS level:")
    for rec in ad.iterations:
        bar = "#" * max(1, int(40 * rec.workset_size / max(1, graph.num_nodes // 10)))
        print(
            f"  hop {rec.iteration:2d}  ws={rec.workset_size:>8d}  "
            f"{rec.variant}  {bar}"
        )
    print(f"\nruntime switches: {ad.trace.num_switches}; decisions: {ad.trace.variants_chosen()}")

    # --- value of adaptivity ---------------------------------------------
    table = Table(["implementation", "time", "speedup vs CPU"], title="BFS comparison")
    table.add_row(["serial CPU", format_seconds(cpu.seconds), "1.00x"])
    for variant in unordered_variants():
        r = run_static(graph, source, "bfs", variant)
        table.add_row(
            [variant.code, format_seconds(r.total_seconds),
             f"{cpu.seconds / r.total_seconds:.2f}x"]
        )
    table.add_row(
        ["adaptive", format_seconds(ad.total_seconds),
         f"{cpu.seconds / ad.total_seconds:.2f}x"]
    )
    print()
    print(table.render())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
