"""repro — adaptive GPU graph-algorithm runtime on a simulated SIMT GPU.

A reproduction of Li & Becchi, *Deploying Graph Algorithms on GPUs: an
Adaptive Solution* (IPDPS Workshops 2013): eight static GPU
implementations of BFS and SSSP spanning {ordered, unordered} x
{thread, block mapping} x {bitmap, queue working set}, plus an adaptive
runtime that switches between the unordered four at every traversal
iteration based on working-set size and average outdegree.

Since no CUDA hardware is assumed, kernels execute functionally in NumPy
while a SIMT simulator (:mod:`repro.gpusim`) prices warp divergence,
memory coalescing, atomic serialization, SM occupancy, kernel-launch and
PCIe overheads on a Fermi-class device model (Tesla C2070 by default).

Quickstart::

    from repro import Graph
    from repro.graph.datasets import make_dataset

    csr = make_dataset("amazon", scale=0.05, weighted=True, seed=0)
    g = Graph(csr)
    result = g.sssp(source=0)          # adaptive runtime
    static = g.sssp(source=0, mode="U_T_BM")   # one static variant
    print(result.total_seconds, static.total_seconds)
"""

from repro._version import __version__
from repro.core import (
    Graph,
    RuntimeConfig,
    adaptive_run,
    hybrid_run,
    run_default,
    run_static,
)
from repro.engine import (
    AlgorithmInfo,
    AlgorithmSpec,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, GTX_580, TESLA_C2070
from repro.kernels import (
    TraversalResult,
    Variant,
    all_variants,
    extended_variants,
    unordered_variants,
)
from repro.obs import Observer, RunManifest, build_manifest
from repro.reliability import (
    FaultPlan,
    GuardConfig,
    ResilientResult,
    resilient_run,
)

__all__ = [
    "__version__",
    "Graph",
    "CSRGraph",
    "RuntimeConfig",
    "TraversalResult",
    "AlgorithmInfo",
    "AlgorithmSpec",
    "adaptive_run",
    "hybrid_run",
    "get_algorithm",
    "register_algorithm",
    "registered_algorithms",
    "run_default",
    "run_static",
    "Variant",
    "all_variants",
    "unordered_variants",
    "extended_variants",
    "DeviceSpec",
    "TESLA_C2070",
    "GTX_580",
    "Observer",
    "RunManifest",
    "build_manifest",
    "FaultPlan",
    "GuardConfig",
    "ResilientResult",
    "resilient_run",
]
