"""Graph sessions: ingest once, serve many queries.

A :class:`GraphSession` pins what every query on one graph shares: the
CSR arrays (and, until a refresh, their transpose), the
:class:`~repro.gpusim.device.DeviceSpec`, the runtime config and the
graph's *content digest* (the same blake2b digest run manifests
carry).  A serving process loads one graph and holds one session over
it; a mutation barrier re-points that session at the compacted graph.
Decision thresholds are not pinned here: each query's policy resolves
them from ``session.graph``, so they always follow the current graph.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RuntimeConfig
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.obs.manifest import graph_fingerprint

__all__ = ["GraphSession"]


class GraphSession:
    """One ingested graph plus the device and config its queries run on."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceSpec = TESLA_C2070,
        config: Optional[RuntimeConfig] = None,
    ):
        self.graph = graph
        self.device = device
        self.config = config or RuntimeConfig()
        #: blake2b digest of the CSR arrays (manifests carry it)
        self.digest: str = graph_fingerprint(graph)["digest"]
        # The graph keeps its transpose, so the BFS relax can pull the
        # wide levels of the queries served from this session.
        graph.reverse()

    @property
    def num_nodes(self) -> int:
        return int(self.graph.num_nodes)

    def refresh(self, graph: CSRGraph) -> None:
        """Re-point this session at a mutated (compacted) graph.

        The digest follows the new CSR arrays, while the session object
        itself (and anything holding it) survives.  The new graph's
        transpose is not built, so BFS on a refreshed session pushes
        every level.
        """
        self.graph = graph
        self.digest = graph_fingerprint(graph)["digest"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSession({self.graph.name!r}, n={self.graph.num_nodes}, "
            f"digest={self.digest[:8]}..., device={self.device.name!r})"
        )
