"""Graph substrate: CSR storage, construction, generators, I/O, analysis.

The paper stores graphs in compressed sparse row (CSR) form on both the
host and the (simulated) device: a *node vector* of row offsets and an
*edge vector* of neighbor ids (Section V.A, Figure 7).  This package
provides that representation plus everything needed to feed it:

- :mod:`repro.graph.csr` — the :class:`CSRGraph` structure;
- :mod:`repro.graph.builder` — edge lists -> CSR (and CSR -> networkx);
- :mod:`repro.graph.generators` — synthetic topology generators;
- :mod:`repro.graph.datasets` — analogues of the paper's six datasets;
- :mod:`repro.graph.io` — DIMACS / SNAP / Matrix Market readers+writers;
- :mod:`repro.graph.properties` — degree statistics and characterization;
- :mod:`repro.graph.transforms` — symmetrize, relabel, components, orientation;
- :mod:`repro.graph.partition` — 1D vertex partitioning for multi-device
  sharded traversal (contiguous and degree-balanced strategies);
- :mod:`repro.graph.dynamic` — mutation batches, the delta-CSR overlay
  and priced compaction for graphs changing under live traffic.
"""

from repro.graph.builder import BuildStats, from_edge_list, to_networkx
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import (
    CompactionResult,
    DeltaOverlayGraph,
    EdgeBatch,
    MutationDelta,
    MutationReport,
)
from repro.graph.io import IngestLimits, IngestReport, load_graph
from repro.graph.partition import (
    PARTITION_STRATEGIES,
    GraphShard,
    partition_graph,
    reassemble,
)
from repro.graph.properties import GraphCharacterization, characterize, out_degree_histogram

__all__ = [
    "CSRGraph",
    "BuildStats",
    "from_edge_list",
    "to_networkx",
    "IngestLimits",
    "IngestReport",
    "load_graph",
    "EdgeBatch",
    "DeltaOverlayGraph",
    "MutationDelta",
    "MutationReport",
    "CompactionResult",
    "characterize",
    "GraphCharacterization",
    "out_degree_histogram",
    "GraphShard",
    "PARTITION_STRATEGIES",
    "partition_graph",
    "reassemble",
]
