"""Incremental recompute: warm-started traversals after mutations.

The headline contract — the acceptance criterion for the dynamic-graph
layer — is SHA-256 parity: for every registered algorithm with the
``incremental`` flag (bfs, cc and sssp), a warm-started
:func:`run_incremental` on the mutated graph produces values
*bit-identical* to a from-scratch :func:`adaptive_run` on the compacted
graph, across seeded sequences of insert and delete batches.  The
randomized stress below chains three rounds of insert-then-delete per
algorithm; the unit tests pin the seeding rules (insert-only deltas
invalidate nothing; deletes reset the tight-edge closure / the touched
components) and the validation surface.
"""

import hashlib

import numpy as np
import pytest

from repro.core.runtime import adaptive_run
from repro.engine import get_algorithm, registered_algorithms
from repro.engine.driver import _state_payload
from repro.engine.incremental import run_incremental
from repro.engine.types import HOST_INIT_PER_NODE_S
from repro.errors import KernelError
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.obs import Observer, observing

#: the registry's incremental algorithms
INCREMENTAL = [info.name for info in registered_algorithms() if info.incremental]


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _stress_graph(weighted: bool):
    g = power_law_graph(300, alpha=2.0, min_degree=2, seed=17, name="stress")
    return attach_uniform_weights(g, seed=18) if weighted else g


def _insert_batch(rng, overlay, count, weighted):
    n = overlay.num_nodes
    pairs, weights = [], []
    while len(pairs) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            pairs.append((u, v))
            weights.append(float(rng.integers(1, 8)))
    return EdgeBatch.inserts(pairs, weights if weighted else None)


def _delete_batch(rng, current, count):
    """Deletes drawn from the *live* edges of the current epoch."""
    src = np.repeat(
        np.arange(current.num_nodes, dtype=np.int64), current.out_degrees
    )
    picks = rng.choice(current.num_edges, size=count, replace=False)
    return EdgeBatch.deletes(
        [(int(src[i]), int(current.col_indices[i])) for i in picks]
    )


class TestIncrementalShaParity:
    @pytest.mark.parametrize("algorithm", INCREMENTAL)
    def test_chained_insert_delete_rounds_stay_bit_identical(self, algorithm):
        info = get_algorithm(algorithm)
        weighted = info.weighted
        graph = _stress_graph(weighted)
        source = 0 if info.source_based else None
        rng = np.random.default_rng(5)
        previous = adaptive_run(graph, algorithm, source)
        saw_affected = False

        for round_no in range(3):
            for kind in ("insert", "delete"):
                overlay = DeltaOverlayGraph(graph)
                if kind == "insert":
                    batch = _insert_batch(rng, overlay, 6, weighted)
                else:
                    batch = _delete_batch(rng, graph, 6)
                delta = overlay.apply(batch, mode="lenient")
                graph = overlay.materialize()
                incremental = run_incremental(
                    graph, algorithm, previous, delta, source=source
                )
                scratch = adaptive_run(graph, algorithm, source)
                assert _sha(incremental.values) == _sha(scratch.values), (
                    f"{algorithm} diverged on {kind} round {round_no}"
                )
                saw_affected = saw_affected or incremental.affected_nodes > 0
                previous = incremental
        # The soak only means something if deletes actually invalidated
        # state somewhere along the way.
        assert saw_affected

    def test_grow_extends_previous_values(self):
        graph = _stress_graph(False)
        previous = adaptive_run(graph, "cc", None)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [
                        {"op": "grow", "nodes": 5},
                        {"op": "insert", "u": 302, "v": 0},
                    ],
                    start=1,
                )
            )
        )
        mutated = overlay.materialize()
        incremental = run_incremental(mutated, "cc", previous, delta)
        scratch = adaptive_run(mutated, "cc", None)
        assert _sha(incremental.values) == _sha(scratch.values)
        # 302 joined node 0's component; 301/303/304 stay isolated.
        assert incremental.values[302] == incremental.values[0]


class TestSeedingRules:
    def test_insert_only_delta_invalidates_nothing(self):
        graph = _stress_graph(False)
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.inserts([(3, 9), (11, 4)]), mode="lenient")
        result = run_incremental(
            overlay.materialize(), "bfs", previous, delta, source=0
        )
        assert result.affected_nodes == 0
        assert result.seed_frontier_size <= 2

    def test_delete_resets_touched_cc_components_only(self):
        # Two components: a chain 0-1-2 and an isolated pair 3-4.
        from repro.graph.builder import from_edge_list

        graph = from_edge_list(
            [0, 1, 1, 2, 3, 4], [1, 0, 2, 1, 4, 3], num_nodes=5, name="two-cc"
        )
        previous = adaptive_run(graph, "cc", None, assume_symmetric=True)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.deletes([(1, 2), (2, 1)]))
        mutated = overlay.materialize()
        result = run_incremental(
            mutated, "cc", previous, delta, assume_symmetric=True
        )
        # Only the chain's component is re-derived; 3/4 never re-enter.
        assert result.affected_nodes == 3
        scratch = adaptive_run(mutated, "cc", None, assume_symmetric=True)
        assert _sha(result.values) == _sha(scratch.values)

    def test_deleting_tight_edge_reseeds_downstream(self):
        from repro.graph.builder import from_edge_list

        # 0 -> 1 -> 2 -> 3 plus a slow detour 0 -> 4 -> 2.
        graph = from_edge_list(
            [0, 1, 2, 0, 4], [1, 2, 3, 4, 2], num_nodes=5, name="detour"
        )
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.deletes([(1, 2)]))
        mutated = overlay.materialize()
        result = run_incremental(mutated, "bfs", previous, delta, source=0)
        # 2 and 3 sat on the deleted tight path; they are re-derived
        # through the detour, one hop longer each.
        assert result.affected_nodes == 2
        assert result.values[2] == 2 and result.values[3] == 3
        scratch = adaptive_run(mutated, "bfs", 0)
        assert _sha(result.values) == _sha(scratch.values)

    def test_warm_specs_price_seed_scan_and_stay_resident(self):
        # The graph is already on the device: a warm run's opening h2d
        # copy moves only the traversal state, and its host seconds add
        # the seeding pass's edge scan to the frame's own.
        scanned = []
        for algorithm in INCREMENTAL:
            info = get_algorithm(algorithm)
            graph = _stress_graph(info.weighted)
            source = 0 if info.source_based else None
            previous = adaptive_run(graph, algorithm, source)
            overlay = DeltaOverlayGraph(graph)
            # Deleting node 0's out-edges cuts tight edges of every
            # distance run from 0: the seeding pass must scan.
            delta = overlay.apply(
                EdgeBatch.deletes([(0, int(v)) for v in graph.neighbors(0)])
            )
            mutated = overlay.materialize()
            result = run_incremental(mutated, algorithm, previous, delta, source=source)
            spec = info.make_spec()
            warm = spec.warm_start(
                mutated, previous.values, delta, info.resolve_source(mutated, source)
            )
            _, prep_seconds = spec.prepare(mutated)
            n = mutated.num_nodes
            opening = result.timeline.transfers[0]
            assert (opening.direction, opening.num_bytes) == ("h2d", _state_payload(n))
            assert result.timeline.host_seconds == (
                n * HOST_INIT_PER_NODE_S + (prep_seconds + warm.host_seconds)
            )
            scanned.append(warm.host_seconds > 0)
        assert any(scanned)

    def test_incremental_observed(self):
        graph = _stress_graph(False)
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.inserts([(3, 9)]), mode="lenient")
        observer = Observer()
        with observing(observer):
            run_incremental(
                overlay.materialize(), "bfs", previous, delta, source=0
            )
        snap = observer.metrics.snapshot()
        assert snap["dynamic.incremental_runs"]["value"] == 1
        assert snap["dynamic.seed_frontier"]["count"] == 1
        assert any(
            s["name"] == "incremental_bfs" for s in observer.spans.to_dicts()
        )

    def test_incremental_reports_decision_counts(self):
        # The incremental door drives the adaptive policy, so it reports
        # the same runtime.* decision counts as adaptive_run.
        graph = _stress_graph(False)
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(_delete_batch(np.random.default_rng(4), graph, 6))
        observer = Observer()
        with observing(observer):
            result = run_incremental(
                overlay.materialize(), "bfs", previous, delta, source=0
            )
        snap = observer.metrics.snapshot()
        assert result.trace.num_decisions >= 1
        assert snap["runtime.decisions"]["value"] == result.trace.num_decisions
        assert snap["runtime.switches"]["value"] == result.trace.num_switches
        assert snap["runtime.memory_forced"]["value"] == 0


class TestIncrementalValidation:
    def _setup(self, weighted=False):
        graph = _stress_graph(weighted)
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.inserts([(1, 2)]), mode="lenient")
        return overlay.materialize(), previous, delta

    def test_unknown_algorithm_rejected(self):
        graph, previous, delta = self._setup()
        with pytest.raises(
            KernelError, match="incremental algorithms: bfs, cc, sssp"
        ):
            run_incremental(graph, "pagerank", previous, delta)

    def test_distance_algorithms_require_source(self):
        graph, previous, delta = self._setup()
        with pytest.raises(KernelError, match="requires a source"):
            run_incremental(graph, "bfs", previous, delta)

    def test_previous_must_match_source(self):
        graph, previous, delta = self._setup()
        with pytest.raises(KernelError, match="must be 0"):
            run_incremental(graph, "bfs", previous, delta, source=1)

    def test_sssp_requires_weights(self):
        graph, previous, delta = self._setup(weighted=False)
        with pytest.raises(KernelError, match="weights"):
            run_incremental(graph, "sssp", previous, delta, source=0)

    def test_oversized_previous_rejected(self):
        graph, _, delta = self._setup()
        too_big = np.zeros(graph.num_nodes + 10, dtype=np.int64)
        with pytest.raises(KernelError, match="only"):
            run_incremental(graph, "bfs", too_big, delta, source=0)

    def test_previous_needs_values(self):
        graph, _, delta = self._setup()
        with pytest.raises(KernelError, match="values"):
            run_incremental(graph, "bfs", object(), delta, source=0)

    def test_overlay_must_be_compacted_first(self):
        graph = _stress_graph(False)
        previous = adaptive_run(graph, "bfs", 0)
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.inserts([(5, 200)]))
        with pytest.raises(KernelError, match="compacted CSRGraph"):
            run_incremental(overlay, "bfs", previous, delta, source=0)
