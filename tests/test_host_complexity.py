"""Host work of the hot paths, gated by bytes and counts, not seconds.

Host seconds drift from run to run and machine to machine; the memory a
call allocates and the records a read walks do not.  These tests pin
the host-path gains that way:

- a wide BFS level on a graph that holds its transpose is pulled, so
  the relax never materializes the frontier's out-edges, and a narrow
  one is turned down for pull before any per-node work;
- a one-node relax allocates the same whether the graph has 10^4 or
  10^6 nodes (no |V|-wide temporary);
- timeline totals are kept running, not re-summed on each read.
"""

import tracemalloc

import numpy as np
import pytest

from repro.engine.spec import FrameState
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel, KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timeline import Timeline
from repro.gpusim.transfer import record_transfer
from repro.graph.csr import CSRGraph
from repro.kernels.cc import CcSpec
from repro.kernels import computation
from repro.kernels.computation import INF, UNSET_LEVEL, bfs_relax, sssp_relax


def _peak_bytes(call):
    """Peak traced allocation, in bytes, while *call* runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Pull: a wide level touches the unvisited nodes' in-edges only
# ----------------------------------------------------------------------

FRONTIER = 1_000
VISITED = 1_000


def _wide_frontier_graph():
    """Frontier nodes 0..999 on level 1.  Each has an edge to every
    visited node (10^6 edges into nodes 1000..1999, levels 0 and 1) and
    one to its own unvisited node (10^3 edges into 2000..2999)."""
    n = FRONTIER + VISITED + FRONTIER
    row = np.concatenate([
        np.arange(FRONTIER, FRONTIER + VISITED, dtype=np.int32),
        [0],
    ])
    cols = np.tile(row, FRONTIER)
    cols[VISITED::VISITED + 1] = np.arange(
        FRONTIER + VISITED, n, dtype=np.int32
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:FRONTIER + 1] = np.arange(1, FRONTIER + 1) * (VISITED + 1)
    offsets[FRONTIER + 1:] = offsets[FRONTIER]
    graph = CSRGraph(offsets, cols, name="wide")
    levels = np.full(n, UNSET_LEVEL, dtype=np.int64)
    levels[:FRONTIER] = 1
    levels[FRONTIER:FRONTIER + VISITED] = np.arange(VISITED) % 2
    return graph, np.arange(FRONTIER, dtype=np.int64), levels


def test_pulled_level_allocates_far_less_than_its_edges():
    graph, frontier, levels = _wide_frontier_graph()
    graph.reverse()  # what a GraphSession holds, built outside the window
    frontier_edges = FRONTIER * (VISITED + 1)
    out = {}
    peak = _peak_bytes(lambda: out.update(result=bfs_relax(graph, frontier, levels)))
    updated, degrees, improved, edges = out["result"]
    assert updated.tolist() == list(range(FRONTIER + VISITED, graph.num_nodes))
    assert (improved, edges) == (FRONTIER, frontier_edges)
    assert (levels[updated] == 2).all()
    # Push gathers 8-byte ids for every frontier edge (about 25 MB here).
    assert peak < frontier_edges, f"relax peaked at {peak} bytes"


def test_narrow_level_is_turned_down_before_any_per_node_work():
    graph = _chain(10**5)
    graph.reverse()
    frontier = np.arange(2 * 10**4, dtype=np.int64)
    levels = np.full(graph.num_nodes, UNSET_LEVEL, dtype=np.int64)
    levels[frontier] = 3
    out = {}
    peak = _peak_bytes(
        lambda: out.update(
            result=computation._pull_level(graph, frontier, levels, False)
        )
    )
    assert out["result"] is None
    # The frontier's rows span fewer edges than |V|; a per-node degree
    # gather would allocate 8 bytes per frontier node (160 KB here).
    assert peak < frontier.size, f"pull check peaked at {peak} bytes"


# ----------------------------------------------------------------------
# Relax: a one-node frontier costs the same at 10^4 and 10^6 nodes
# ----------------------------------------------------------------------

def _chain(n):
    """0 -> 1 -> ... -> n-1, unit weights."""
    offsets = np.minimum(np.arange(n + 1, dtype=np.int64), n - 1)
    cols = np.arange(1, n, dtype=np.int32)
    return CSRGraph(offsets, cols, np.ones(n - 1, dtype=np.float32), name="chain")


def _bfs_call(graph):
    levels = np.full(graph.num_nodes, UNSET_LEVEL, dtype=np.int64)
    levels[7] = 3
    frontier = np.array([7], dtype=np.int64)
    return lambda: bfs_relax(graph, frontier, levels)


def _sssp_call(graph):
    dist = np.full(graph.num_nodes, INF, dtype=np.float64)
    dist[7] = 0.5
    frontier = np.array([7], dtype=np.int64)
    return lambda: sssp_relax(graph, frontier, dist)


def _cc_call(graph):
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    state = FrameState(labels, np.array([7], dtype=np.int64))
    return lambda: CcSpec().relax(graph, state)


@pytest.mark.parametrize("make_call", [_bfs_call, _sssp_call, _cc_call])
def test_one_node_relax_peak_is_independent_of_graph_size(make_call):
    small, big = _chain(10**4), _chain(10**6)
    peaks = [_peak_bytes(make_call(graph)) for graph in (small, big)]
    # One |V|-wide int64 temporary at 10^6 nodes would add 8 MB.
    assert peaks[1] - peaks[0] < 64 * 1024, f"peaks {peaks}"


# ----------------------------------------------------------------------
# Timeline: totals are read, not re-summed
# ----------------------------------------------------------------------

class _Unwalkable(list):
    def __iter__(self):
        raise AssertionError("a total read iterated the records")


def test_timeline_totals_do_not_iterate_records():
    timeline = Timeline()
    tally = KernelTally(name="k", launch=LaunchConfig(1, 32), issue_cycles=1000.0)
    for iteration in range(3):
        timeline.add_kernel(iteration, tally, CostModel(TESLA_C2070).price(tally))
        timeline.add_transfer(record_transfer("h2d", 4096, TESLA_C2070))
    gpu, transfer = timeline.gpu_seconds, timeline.transfer_seconds
    timeline.kernels = _Unwalkable(timeline.kernels)
    timeline.transfers = _Unwalkable(timeline.transfers)
    assert timeline.gpu_seconds == gpu > 0
    assert timeline.transfer_seconds == transfer > 0
    assert timeline.total_seconds == gpu + transfer
