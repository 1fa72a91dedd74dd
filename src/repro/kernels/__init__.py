"""GPU implementations of BFS and SSSP across the exploration space.

The package realizes the paper's Section IV/V: 8 static variants per
algorithm (ordered/unordered x thread/block mapping x bitmap/queue
working set), built from:

- :mod:`repro.kernels.variants` — the space and naming (``U_B_QU`` ...);
- :mod:`repro.kernels.computation` — the BFS and SSSP relaxations of
  the ``CUDA_computation`` kernel (functional NumPy execution returning
  the structural profile) and ordered SSSP's step;
- :mod:`repro.kernels.mapping` — the structural tally of a computation
  launch, and :mod:`repro.kernels.multisource` — the one builder of a
  launch's shape from its rows (one row single-source, many fused);
- :mod:`repro.kernels.workset` — the ``CUDA_workset_gen`` kernel
  (atomic, scan-based and hierarchical queue generation);
- :mod:`repro.kernels.findmin` — the ordered-SSSP reduction;
- :mod:`repro.kernels.frame` — BFS and SSSP as specs on the Figure-8
  host loop (:mod:`repro.engine.driver`), and the extension algorithms
  beside it (:mod:`~repro.kernels.cc`, :mod:`~repro.kernels.pagerank`,
  :mod:`~repro.kernels.kcore`, :mod:`~repro.kernels.triangles`,
  :mod:`~repro.kernels.dobfs`).  Each spec states its update once, as
  :meth:`~repro.engine.spec.AlgorithmSpec.relax`, with its launch
  profile beside it.

Every registered algorithm runs through the run modes of
:mod:`repro.core.runtime`: ``run_static(graph, source, "bfs", "U_B_QU")``
for one static variant, ``adaptive_run(graph, "sssp", source)`` for the
adaptive runtime.
"""

from repro.engine.types import (
    IterationRecord,
    StaticPolicy,
    TraversalResult,
    VariantPolicy,
)
from repro.kernels.variants import (
    Mapping,
    Ordering,
    Variant,
    WorksetRepr,
    all_variants,
    extended_variants,
    unordered_variants,
)

__all__ = [
    "TraversalResult",
    "IterationRecord",
    "VariantPolicy",
    "StaticPolicy",
    "Variant",
    "Ordering",
    "Mapping",
    "WorksetRepr",
    "all_variants",
    "unordered_variants",
    "extended_variants",
]
