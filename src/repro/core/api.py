"""The public graph API (Section VI.A, Figure 10: "we expose to the user
an API consisting of an abstract graph data type ... as well as
functions to run the SSSP and BFS algorithms").

:class:`Graph` wraps a CSR graph together with a device and runtime
configuration; its :meth:`Graph.bfs` and :meth:`Graph.sssp` run
adaptively by default, or under any named static variant.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run, run_static
from repro.engine.types import TraversalResult
from repro.errors import GraphError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import attach_uniform_weights
from repro.gpusim.device import DeviceSpec, TESLA_C2070

__all__ = ["Graph"]


class Graph:
    """A graph bound to a simulated device and an adaptive runtime.

    >>> g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=3)
    >>> result = g.bfs(source=0)
    >>> result.values.tolist()
    [0, 1, 2]
    """

    def __init__(
        self,
        csr: CSRGraph,
        *,
        device: DeviceSpec = TESLA_C2070,
        config: Optional[RuntimeConfig] = None,
    ):
        self.csr = csr
        self.device = device
        self.config = config or RuntimeConfig()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        *,
        weights=None,
        num_nodes: Optional[int] = None,
        symmetric: bool = False,
        name: str = "graph",
        **kwargs,
    ) -> "Graph":
        """Build from an iterable of ``(u, v)`` pairs."""
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        csr = from_edge_list(
            pairs[:, 0],
            pairs[:, 1],
            weights,
            num_nodes=num_nodes,
            symmetric=symmetric,
            name=name,
        )
        return cls(csr, **kwargs)

    def with_random_weights(
        self, low: float = 1.0, high: float = 100.0, seed: int = 0
    ) -> "Graph":
        """A copy of this graph with uniform random edge weights."""
        return Graph(
            attach_uniform_weights(self.csr, low=low, high=high, seed=seed),
            device=self.device,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.csr.num_nodes

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges

    @property
    def avg_out_degree(self) -> float:
        return self.csr.avg_out_degree

    # ------------------------------------------------------------------
    # Algorithms
    # ------------------------------------------------------------------

    def bfs(self, source: int, *, mode: str = "adaptive") -> TraversalResult:
        """Breadth-first search from *source*.

        *mode* is ``"adaptive"`` (default) or a static variant code like
        ``"U_B_QU"``.  Returns levels in ``result.values`` (-1 means
        unreachable).
        """
        return self._run("bfs", source, mode)

    def sssp(self, source: int, *, mode: str = "adaptive") -> TraversalResult:
        """Single-source shortest paths from *source*.

        Requires edge weights (see :meth:`with_random_weights`).  Returns
        distances in ``result.values`` (``inf`` means unreachable).
        """
        if self.csr.weights is None:
            raise GraphError(
                "sssp requires edge weights; call with_random_weights() or "
                "construct the graph with a weights array"
            )
        return self._run("sssp", source, mode)

    def connected_components(self, *, mode: str = "adaptive") -> TraversalResult:
        """Weakly connected components (extension algorithm).

        ``result.values[i]`` is the minimum node id in node *i*'s
        component.  Directed graphs are symmetrized internally.
        """
        return self._run("cc", None, mode)

    def pagerank(
        self,
        *,
        damping: float = 0.85,
        tolerance: float = 1e-6,
        mode: str = "adaptive",
    ) -> TraversalResult:
        """Push-based PageRank (extension algorithm).

        ``result.values`` are unnormalized ranks (they sum to just under
        1; divide by the sum for a probability vector).
        """
        return self._run(
            "pagerank", None, mode, damping=damping, tolerance=tolerance
        )

    def _run(self, algorithm: str, source, mode: str, **params) -> TraversalResult:
        """*algorithm* through the adaptive runtime, or through one
        static variant when *mode* is a variant code."""
        if mode == "adaptive":
            return adaptive_run(
                self.csr,
                algorithm,
                source,
                config=self.config,
                device=self.device,
                **params,
            )
        return run_static(
            self.csr,
            source,
            algorithm,
            mode,
            device=self.device,
            **params,
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.csr!r}, device={self.device.name!r}, "
            f"t3={self.config.t3_fraction:.0%})"
        )
