"""Spec-fusion lowering: compile a spec + variant schedule to a launch plan.

The Figure-8 host loop prices one computation launch plus one
workset-generation launch per iteration, so every iteration pays
``kernel_launch_overhead_s`` twice even when the two kernels are
trivially mergeable.  Following "Compilation Techniques for Graph
Algorithms on GPUs" (PAPERS.md), this module lowers an
:class:`~repro.engine.spec.AlgorithmSpec` plus its variant schedule
into a :class:`LaunchPlan` ahead of the run:

- **kernel fusion** — when the next working set is generated by a
  *single* kernel (bitmap generation, atomic or hierarchical queue
  generation) and the schedule guarantees the representation at
  lowering time (a pinned variant) or per iteration (the next decision
  emits a bitmap), the computation and generation launches merge into
  one fused launch.  The fused tally is priced once through the
  ordinary :class:`~repro.gpusim.kernel.CostModel`, so the saving —
  one eliminated launch overhead plus the smaller dispatch wave —
  shows up in simulated time, not as a bookkeeping discount;
- **specialization** — a pinned variant (``StaticPolicy``) has no
  policy branches left to take, so the plan marks the run
  ``specialized`` and fuses unconditionally instead of checking the
  emitted representation each iteration;
- **invariant hoisting** — a spec that declares a loop-invariant
  per-iteration H2D payload (``AlgorithmSpec.iteration_h2d_bytes``)
  has it shipped once before the loop instead of every iteration.

Lowering *refuses* (emits a plan with no fusion enabled, recording
why) when the loop shape forbids merging:

- ``chooses_at_top`` specs (ordered SSSP) run a find-min reduction
  between generation and the next computation, so the pair is never
  adjacent;
- ordered policies emit 8-byte ``(node, key)`` queue entries through
  the same non-adjacent loop shape;
- the ``scan`` generation scheme is a multi-kernel pipeline (upsweep /
  downsweep / compact), so there is no single generation launch to
  merge.

Values are never touched: fusion changes *which tallies are priced*,
never the arithmetic of the traversal, so fused runs stay SHA-256
identical to unfused runs (enforced by the golden parity fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.gpusim.kernel import KernelTally
from repro.gpusim.launch import LaunchConfig

__all__ = ["LaunchPlan", "FusionStats", "lower", "fuse_tallies"]


@dataclass(frozen=True)
class LaunchPlan:
    """The lowered launch schedule for one (spec, policy) pair.

    A plan is *advice* to the driver: it never changes traversal
    values, only which kernel tallies are merged before pricing.
    """

    algorithm: str
    policy_name: str
    #: variant code when the schedule is pinned (``StaticPolicy``)
    fixed_variant: Optional[str]
    #: fuse every iteration — the representation is known at lowering
    fuse_always: bool
    #: fuse only iterations whose next working set is a bitmap (the
    #: single-kernel generation the driver can verify per iteration)
    fuse_bitmap_only: bool
    #: policy branches were specialized out (pinned variant)
    specialized: bool
    #: loop-invariant per-iteration H2D payload hoisted out of the loop
    hoist_h2d_bytes: int
    #: why lowering refused to fuse (empty when fusible)
    refusals: Tuple[str, ...]

    @property
    def fusible(self) -> bool:
        return self.fuse_always or self.fuse_bitmap_only


@dataclass
class FusionStats:
    """What one fused run actually saved, attributed by cause."""

    #: None for a batch, which decides fusion pass by pass
    plan: Optional[LaunchPlan]
    fused_iterations: int = 0
    launches_eliminated: int = 0
    #: eliminated ``kernel_launch_overhead_s`` charges, in seconds
    overhead_saved_s: float = 0.0
    #: per-iteration H2D bytes not re-shipped thanks to hoisting
    hoisted_h2d_bytes: int = 0
    #: iterations where a fusible plan still had to launch separately
    refused_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.plan.algorithm,
            "policy": self.plan.policy_name,
            "fixed_variant": self.plan.fixed_variant,
            "specialized": self.plan.specialized,
            "fusible": self.plan.fusible,
            "refusals": list(self.plan.refusals),
            "fused_iterations": self.fused_iterations,
            "launches_eliminated": self.launches_eliminated,
            "overhead_saved_s": self.overhead_saved_s,
            "hoisted_h2d_bytes": self.hoisted_h2d_bytes,
            "refused_iterations": self.refused_iterations,
        }


def lower(spec, policy, *, queue_gen: str = "atomic") -> LaunchPlan:
    """Lower *spec* under *policy* to a :class:`LaunchPlan`.

    Refusal is not an error: the returned plan simply enables no
    fusion and records why, so an audit trail survives into the
    manifest (``fusion.refused_iterations`` stays zero — the run never
    even attempts to merge).
    """
    refusals: List[str] = []
    if getattr(spec, "chooses_at_top", False):
        refusals.append(
            "chooses_at_top: a find-min reduction runs between generation "
            "and the next computation, so the pair is never adjacent"
        )
    if policy.is_ordered():
        refusals.append("ordered policy: bucket worksets rebuild via find-min")
    if queue_gen == "scan":
        refusals.append(
            "scan generation is a multi-kernel pipeline (no single "
            "generation launch to merge)"
        )

    fixed = getattr(policy, "variant", None)
    fixed_code = getattr(fixed, "code", None) if fixed is not None else None
    fusible = not refusals
    return LaunchPlan(
        algorithm=spec.name,
        policy_name=policy.name,
        fixed_variant=fixed_code,
        fuse_always=fusible and fixed_code is not None,
        fuse_bitmap_only=fusible and fixed_code is None,
        specialized=fixed_code is not None,
        hoist_h2d_bytes=(
            int(getattr(spec, "iteration_h2d_bytes", 0)) if fusible else 0
        ),
        refusals=tuple(refusals),
    )


def fuse_tallies(parts: Sequence[KernelTally], *, name: str = "") -> KernelTally:
    """Merge back-to-back kernel tallies into one fused-launch tally.

    The merged kernel runs the phases sequentially inside one launch:
    issue work, useful lanes, critical-block cycles, memory
    transactions and atomics all add, while the launch geometry is the
    widest part's (the fused kernel launches once at the union shape
    and the narrower phase predicates off its surplus threads).  The
    resulting cost is never above the sum of the parts — ``max(issue,
    mem)`` is subadditive and only one launch overhead plus one
    dispatch wave is paid — which is exactly the saving the pass
    exists to recover.
    """
    if not parts:
        raise ValueError("fuse_tallies needs at least one tally")
    if len(parts) == 1:
        return parts[0]

    widest = max(parts, key=lambda t: t.launch.grid_blocks * t.launch.threads_per_block)
    launch = LaunchConfig(
        grid_blocks=widest.launch.grid_blocks,
        threads_per_block=max(t.launch.threads_per_block for t in parts),
    )
    # active_warps == 0 means "all launched warps active"; if any phase
    # saturates the launch, the fused kernel's latency hiding is at
    # least as good, so keep the saturated marker.
    if any(t.active_warps == 0 for t in parts):
        active_warps = 0
    else:
        active_warps = max(t.active_warps for t in parts)
    # Timeline.seconds_by_kernel splits on "[": keep the fused name flat.
    fused_name = name or "fused:" + "+".join(t.name.split("[")[0] for t in parts)
    return KernelTally(
        name=fused_name,
        launch=launch,
        issue_cycles=sum(t.issue_cycles for t in parts),
        useful_lane_cycles=sum(t.useful_lane_cycles for t in parts),
        max_block_cycles=sum(t.max_block_cycles for t in parts),
        mem_transactions=sum(t.mem_transactions for t in parts),
        atomics_same_address=sum(t.atomics_same_address for t in parts),
        atomics_multi_address=sum(t.atomics_multi_address for t in parts),
        atomic_address_count=max(t.atomic_address_count for t in parts),
        active_threads=max(t.active_threads for t in parts),
        active_warps=active_warps,
    )
