"""Per-iteration oracle: how good are the adaptive runtime's decisions?

Because every variant computes the same functional result, a single
traversal can price *all* candidate variants on each iteration's actual
frontier and take the per-iteration minimum — a lower bound no realizable
runtime can beat (it requires knowing each iteration's cost in advance).
Comparing the adaptive runtime against this oracle quantifies decision
quality: the *agreement rate* (how often the decision maker picks the
oracle's variant) and the *regret* (time lost to wrong picks).

This is analysis tooling beyond the paper, built to evaluate its
contribution the way a follow-up study would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.engine.driver import FrameContext, _state_payload
from repro.engine.registry import get_algorithm
from repro.engine.types import TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.gpusim.transfer import transfer_seconds
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import unordered_variants
from repro.kernels.workset import workset_gen_tallies

__all__ = [
    "IterationCosts",
    "OracleReport",
    "DecisionQuality",
    "candidate_pricer",
    "per_iteration_oracle",
    "decision_quality",
]


@dataclass(frozen=True)
class IterationCosts:
    """All candidate variants priced on one iteration's actual frontier."""

    iteration: int
    workset_size: int
    seconds_by_variant: Dict[str, float]

    @property
    def best_variant(self) -> str:
        return min(self.seconds_by_variant, key=self.seconds_by_variant.get)

    @property
    def best_seconds(self) -> float:
        return self.seconds_by_variant[self.best_variant]


@dataclass
class OracleReport:
    """The full per-iteration cost matrix of one traversal."""

    algorithm: str
    iterations: List[IterationCosts] = field(default_factory=list)
    fixed_seconds: float = 0.0  # transfers + per-iteration readbacks

    @property
    def oracle_seconds(self) -> float:
        """Total time with perfect per-iteration variant selection."""
        return self.fixed_seconds + sum(it.best_seconds for it in self.iterations)

    def seconds_for(self, chooser) -> float:
        """Total time under an arbitrary per-iteration chooser
        ``chooser(iteration_costs) -> variant_code``."""
        total = self.fixed_seconds
        for it in self.iterations:
            total += it.seconds_by_variant[chooser(it)]
        return total

    def static_seconds(self, code: str) -> float:
        """Total time if *code* were used for every iteration."""
        return self.seconds_for(lambda it: code)

    def best_static(self) -> Tuple[str, float]:
        """The best single-variant schedule computable in hindsight."""
        codes = self.iterations[0].seconds_by_variant if self.iterations else {}
        if not codes:
            raise KernelError("empty oracle report")
        totals = {code: self.static_seconds(code) for code in codes}
        best = min(totals, key=totals.get)
        return best, totals[best]


def candidate_pricer(
    avg_out_degree: float, model: CostModel
) -> Callable[[ComputationShape], Dict[str, float]]:
    """The pricing of every unordered variant: a function from a shape to
    each candidate's seconds, its computation tally (launched with the
    threads per block *avg_out_degree* gives it, derived once per
    variant) plus its working-set generation tallies for
    ``shape.updated_count`` updates."""
    device = model.device
    launches = [
        (variant, variant.threads_per_block(avg_out_degree, device))
        for variant in unordered_variants()
    ]

    def price(shape: ComputationShape) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for variant, tpb in launches:
            seconds = model.price(
                computation_tally(shape, variant.mapping, variant.workset, tpb, device)
            ).seconds
            for tally in workset_gen_tallies(
                shape.num_nodes, shape.updated_count, variant.workset, device
            ):
                seconds += model.price(tally).seconds
            out[variant.code] = seconds
        return out

    return price


def per_iteration_oracle(
    graph: CSRGraph,
    source: int,
    algorithm: str = "bfs",
    *,
    device: DeviceSpec = TESLA_C2070,
) -> OracleReport:
    """Price every unordered variant on every iteration of one traversal.

    The functional state advances once per iteration (the result does not
    depend on the variant) through the algorithm's own spec — its initial
    state, its relaxation and its launch shape — and each candidate's
    computation + generation kernels are tallied against the same
    frontier.
    """
    if algorithm not in ("bfs", "sssp"):
        raise KernelError(
            f"the per-iteration oracle prices 'bfs' or 'sssp', not {algorithm!r}"
        )
    spec = get_algorithm(algorithm).make_spec()
    spec.validate(graph, source)
    # The block-mapping launch geometry depends on the average
    # outdegree: read it once for the whole report, the value the
    # adaptive policy decides with.
    model = CostModel(device)
    price = candidate_pricer(graph.avg_out_degree, model)
    n = graph.num_nodes
    state = spec.init_state(FrameContext(graph, device, model, None, "atomic", source))

    report = OracleReport(algorithm=algorithm)
    # Fixed costs mirror the frame: initial H2D, final D2H.
    report.fixed_seconds += transfer_seconds(
        graph.device_bytes() + _state_payload(n), device
    )
    report.fixed_seconds += transfer_seconds(4 * n, device)

    iteration = 0
    cap = spec.default_cap(graph)
    while state.frontier.size:
        if iteration >= cap:
            raise KernelError(f"oracle traversal exceeded {cap} iterations")
        outcome, row = spec.relax(graph, state)
        report.iterations.append(
            IterationCosts(
                iteration=iteration,
                workset_size=int(state.frontier.size),
                seconds_by_variant=price(spec.launch_shape(row, n)),
            )
        )
        report.fixed_seconds += transfer_seconds(4, device)  # readback
        state.frontier = outcome.next_frontier
        iteration += 1
    return report


@dataclass(frozen=True)
class DecisionQuality:
    """Agreement and regret of a realized schedule vs the oracle."""

    agreement: float
    realized_seconds: float
    oracle_seconds: float

    @property
    def regret(self) -> float:
        """Fractional time lost to non-oracle decisions (>= 0)."""
        if self.oracle_seconds <= 0:
            return 0.0
        return max(0.0, self.realized_seconds / self.oracle_seconds - 1.0)


def decision_quality(
    result: TraversalResult, report: OracleReport
) -> DecisionQuality:
    """Score a traversal's per-iteration variant choices against the oracle.

    The realized schedule is re-priced *inside the oracle's cost matrix*
    so agreement and regret compare decisions, not incidental cost-model
    noise.
    """
    if len(result.iterations) != len(report.iterations):
        raise KernelError(
            f"iteration count mismatch: traversal has "
            f"{len(result.iterations)}, oracle has {len(report.iterations)}"
        )
    agree = 0
    realized = report.fixed_seconds
    for rec, it in zip(result.iterations, report.iterations):
        if rec.variant not in it.seconds_by_variant:
            raise KernelError(
                f"variant {rec.variant} not in the oracle's candidate set"
            )
        realized += it.seconds_by_variant[rec.variant]
        if rec.variant == it.best_variant:
            agree += 1
    total = max(1, len(report.iterations))
    return DecisionQuality(
        agreement=agree / total,
        realized_seconds=realized,
        oracle_seconds=report.oracle_seconds,
    )
