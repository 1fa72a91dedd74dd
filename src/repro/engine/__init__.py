"""repro.engine — the algorithm-agnostic iteration engine.

One driver (:func:`run_frame`, the paper's Figure 8 host loop) runs
every algorithm expressed as an :class:`AlgorithmSpec`; the
:class:`AlgorithmRegistry <repro.engine.registry>` maps names to specs
and capability flags so the adaptive runtime, the guarded runner, the
manifest builder and the CLI stay algorithm-generic.
"""

from repro.engine.batch import (
    BatchFrame,
    BatchFrameResult,
    BatchQueryResult,
    QueryPlan,
    run_batch_frame,
)
from repro.engine.driver import FrameContext, run_frame
from repro.engine.registry import (
    AlgorithmInfo,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome, WarmStart
from repro.engine.types import (
    HOST_INIT_PER_NODE_S,
    IterationRecord,
    StaticPolicy,
    TraversalResult,
    VariantPolicy,
)

__all__ = [
    "AlgorithmInfo",
    "BatchFrame",
    "BatchFrameResult",
    "BatchQueryResult",
    "QueryPlan",
    "run_batch_frame",
    "AlgorithmSpec",
    "FrameContext",
    "FrameState",
    "HOST_INIT_PER_NODE_S",
    "IterationRecord",
    "StaticPolicy",
    "StepOutcome",
    "TraversalResult",
    "VariantPolicy",
    "WarmStart",
    "get_algorithm",
    "register_algorithm",
    "registered_algorithms",
    "run_frame",
    "RECOVERY_RUNGS",
    "RecoveryEvent",
    "ShardedResult",
    "run_sharded",
    "IncrementalResult",
    "run_incremental",
]

#: sharding names resolved lazily (PEP 562): repro.engine is imported
#: mid-way through repro.core's own import, and repro.engine.shard needs
#: repro.core.policies — an eager import here would be circular.
_LAZY_SHARD = {"RECOVERY_RUNGS", "RecoveryEvent", "ShardedResult", "run_sharded"}

#: incremental-recompute names, lazy for the same reason (the warm-start
#: runner drives the frame through repro.core's adaptive policies).
_LAZY_INCREMENTAL = {"IncrementalResult", "run_incremental"}


def __getattr__(name):
    if name in _LAZY_SHARD:
        from repro.engine import shard

        return getattr(shard, name)
    if name in _LAZY_INCREMENTAL:
        from repro.engine import incremental

        return getattr(incremental, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
