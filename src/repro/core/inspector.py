"""The graph inspector (Section VI.A).

The inspector supplies the decision maker's static input and its
sampling schedule:

- **static attributes** of the graph (node/edge counts, min/max/average
  outdegree), computed once when the graph is loaded — "a value computed
  only once when reading the graph" (Section VI.E);
- **sampling** — runtime attributes are consulted only every k-th
  iteration (Section VI.E's overhead-reduction design).  The working-set
  size is free (the generation kernel's queue counter, passed to the
  policy's ``choose``); the working set's own average outdegree costs a
  reduction kernel and is measured by the policy in precise mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph

__all__ = ["StaticAttributes", "GraphInspector"]


@dataclass(frozen=True)
class StaticAttributes:
    """Topology attributes inspected once at graph-load time."""

    num_nodes: int
    num_edges: int
    min_out_degree: int
    max_out_degree: int
    avg_out_degree: float

    @classmethod
    def of(cls, graph: CSRGraph) -> "StaticAttributes":
        deg = graph.out_degrees
        if graph.num_nodes == 0:
            return cls(0, 0, 0, 0, 0.0)
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            min_out_degree=int(deg.min()),
            max_out_degree=int(deg.max()),
            avg_out_degree=float(deg.mean()),
        )


class GraphInspector:
    """Monitors the attributes the decision maker consumes.

    Parameters
    ----------
    graph:
        The traversed graph (static attributes are derived immediately).
    sampling_interval:
        Re-evaluate the decision only every k-th iteration; between
        samples the policy keeps its current variant.

    The working set's own average outdegree (precise mode,
    ``RuntimeConfig.monitor_workset_degree``) is measured by
    :class:`~repro.core.policies.AdaptivePolicy` from each iteration's
    record, which also charges its reduction kernel.
    """

    def __init__(self, graph: CSRGraph, *, sampling_interval: int = 1):
        if sampling_interval < 1:
            raise ValueError(
                f"sampling_interval must be >= 1, got {sampling_interval}"
            )
        self.static = StaticAttributes.of(graph)
        self.sampling_interval = int(sampling_interval)

    def should_sample(self, iteration: int) -> bool:
        return iteration % self.sampling_interval == 0
