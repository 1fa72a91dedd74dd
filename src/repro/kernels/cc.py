"""Connected components on the GPU frame — the paper's extension claim.

Section I: "we believe that our proposed mechanisms can be extended and
applied to other graph algorithms that exhibit similar computational
patterns".  Connected components via min-label propagation is the
canonical such algorithm: iterate over a working set of active nodes,
push each node's label to its neighbors, mark improved neighbors in the
update vector — structurally identical to unordered BFS/SSSP, so it
plugs straight into the exploration space and the adaptive runtime.

Weak connectivity is computed (direction ignored); directed inputs are
symmetrized once on the host before the traversal, and the symmetrized
arrays are what gets transferred to the device.

Unlike BFS/SSSP, the initial working set is *every node*, so CC starts
deep in the bitmap region of the decision space and drains toward the
queue region — the opposite trajectory, and a good stress test for the
decision maker.

Expressed as :class:`CcSpec` on the generic engine
(:mod:`repro.engine`), CC inherits the reliability seams (watchdog,
checkpoint/resume, fault hooks), memory-budget charging and observer
metrics for free, and warm-starts incremental recompute from the label
seed (:func:`repro.engine.incremental.label_seed`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.incremental import label_seed
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, relaxed
from repro.graph.csr import CSRGraph
from repro.graph.properties import is_symmetric
from repro.graph.transforms import symmetrize
from repro.kernels.computation import _gather_edges, _scatter_min

__all__ = ["CcSpec"]


class CcSpec(AlgorithmSpec):
    """Min-label propagation CC: ``values[i]`` is the minimum node id in
    node *i*'s weakly connected component."""

    name = "cc"
    source_based = False
    incremental = True

    def __init__(self, assume_symmetric: bool = False):
        self.assume_symmetric = assume_symmetric

    def prepare(self, graph: CSRGraph):
        if not self.assume_symmetric and not is_symmetric(graph):
            # Host-side symmetrization before transfer: roughly one pass
            # over the edges plus the sort the CSR rebuild performs.
            work_graph = symmetrize(graph)
            return work_graph, work_graph.num_edges * 12e-9
        return graph, 0.0

    def init_state(self, ctx: FrameContext) -> FrameState:
        n = ctx.graph.num_nodes
        return FrameState(
            np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64)
        )

    def default_cap(self, graph: CSRGraph) -> int:
        return 4 * graph.num_nodes + 64

    def cap_message(self, cap: int) -> str:
        return f"CC exceeded {cap} iterations (non-convergence)"

    def relax(self, graph, state, *, ordered=False):
        """One min-label propagation sweep; mutates the labels in place."""
        frontier, labels = state.frontier, state.values
        idx, dst, degrees = _gather_edges(graph, frontier)
        cand = np.repeat(labels[frontier], degrees)
        updated, improved = _scatter_min(labels, dst, cand < labels[dst], cand)
        return relaxed(frontier, (updated, degrees, improved, int(idx.size)))

    def warm_start(self, graph, previous, delta, source):
        return label_seed(
            previous.astype(np.int64, copy=False), delta, graph.num_nodes
        )


def _cpu_cc_reference(graph, source, **params):
    from repro.cpu import cpu_connected_components

    result = cpu_connected_components(graph)
    return result.labels, result


register_algorithm(
    AlgorithmInfo(
        name="cc",
        summary="min-label propagation weakly connected components",
        make_spec=CcSpec,
        cpu_run=_cpu_cc_reference,
        param_names=("assume_symmetric",),
    )
)
