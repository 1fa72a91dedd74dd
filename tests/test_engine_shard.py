"""Tests for the fault-tolerant multi-device sharded driver
(repro.engine.shard).

The headline guarantee under test: sharding is *transparent*.  For any
device count, partition strategy, and any survivable fault sequence,
the value array is bit-identical (SHA-256) to the 1-device run — the
recovery ladder may cost simulated time, never answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RuntimeConfig
from repro.engine.registry import get_algorithm
from repro.engine.shard import RECOVERY_RUNGS, _min_combine, run_sharded
from repro.errors import (
    FaultPlanError,
    KernelError,
    NonConvergenceError,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.obs import Observer, build_shard_manifest, observing
from repro.obs.manifest import RunManifest
from repro.reliability.faults import FaultPlan


@pytest.fixture(scope="module")
def graph():
    return attach_uniform_weights(
        power_law_graph(240, seed=5, name="shardtest"), seed=6
    )


def _loss_plan(**overrides):
    base = dict(seed=13, device_loss_rate=0.3, max_faults=1)
    base.update(overrides)
    return FaultPlan(**base)


class TestFaultFreeParity:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    @pytest.mark.parametrize("strategy", ["contiguous", "balanced"])
    def test_sha_identical_to_one_device(self, graph, algorithm, strategy):
        reference = run_sharded(graph, 0, algorithm=algorithm, num_devices=1)
        sharded = run_sharded(
            graph, 0, algorithm=algorithm, num_devices=4, partition=strategy
        )
        assert sharded.values_sha256 == reference.values_sha256
        assert sharded.recovery_rung == "none"
        assert not sharded.degraded
        assert sharded.num_devices == 4

    def test_matches_cpu_reference(self, graph):
        result = run_sharded(graph, 0, algorithm="sssp", num_devices=3)
        oracle, _ = get_algorithm("sssp").cpu_run(graph, 0)
        np.testing.assert_array_equal(
            result.values, np.asarray(oracle, dtype=result.values.dtype)
        )

    def test_exchange_is_priced_and_counted(self, graph):
        result = run_sharded(graph, 0, algorithm="bfs", num_devices=4)
        assert result.exchange_transfers > 0
        assert result.exchange_bytes > 0
        assert result.exchange_seconds > 0.0
        solo = run_sharded(graph, 0, algorithm="bfs", num_devices=1)
        assert solo.exchange_transfers == 0
        assert solo.exchange_bytes == 0

    def test_decisions_tagged_with_shard_index(self, graph):
        result = run_sharded(graph, 0, algorithm="bfs", num_devices=3)
        tags = {d["shard_index"] for d in result.decisions}
        assert tags <= {0, 1, 2}
        assert len(result.shard_reports) == 3

    def test_non_batchable_algorithm_rejected(self, graph):
        with pytest.raises(KernelError, match="batch"):
            run_sharded(graph, 0, algorithm="pagerank", num_devices=2)

    def test_bad_checkpoint_interval_rejected(self, graph):
        with pytest.raises(KernelError):
            run_sharded(graph, 0, num_devices=2, checkpoint_every=0)

    def test_iteration_cap_still_enforced(self, graph):
        with pytest.raises(NonConvergenceError):
            run_sharded(graph, 0, num_devices=2, max_super_iterations=1)

    def test_config_queue_gen_is_priced(self, graph):
        atomic = run_sharded(graph, 0, num_devices=2)
        scan = run_sharded(
            graph, 0, num_devices=2, config=RuntimeConfig(queue_gen="scan")
        )
        assert scan.values_sha256 == atomic.values_sha256
        # Scan generation is a multi-kernel pipeline: dearer per round.
        assert scan.sim_seconds > atomic.sim_seconds


class TestDeviceLossRecovery:
    def test_loss_recovers_bit_identical(self, graph):
        reference = run_sharded(graph, 0, algorithm="bfs", num_devices=1)
        result = run_sharded(
            graph,
            0,
            algorithm="bfs",
            num_devices=4,
            fault_plan=_loss_plan(device=2),
            checkpoint_every=2,
        )
        assert result.values_sha256 == reference.values_sha256
        assert result.recovery_rung == "restore"
        assert result.device_losses == 1
        assert result.migrations >= 1
        assert not result.degraded

    def test_loss_attributed_to_one_fault_domain(self, graph):
        result = run_sharded(
            graph,
            0,
            algorithm="bfs",
            num_devices=4,
            fault_plan=_loss_plan(device=1),
            checkpoint_every=2,
        )
        assert len(result.faults) == 1
        fault = result.faults[0]
        assert fault["kind"] == "device_loss"
        assert fault["device"] == 1
        loss_events = [
            e for e in result.recovery_events if e.fault_kind == "device_loss"
        ]
        assert loss_events
        assert {e.device_index for e in loss_events} == {1}

    def test_device_scope_quiet_elsewhere(self, graph):
        result = run_sharded(
            graph,
            0,
            algorithm="sssp",
            num_devices=4,
            fault_plan=_loss_plan(device=3),
            checkpoint_every=2,
        )
        assert all(f["device"] == 3 for f in result.faults)

    def test_scope_beyond_device_count_rejected(self, graph):
        with pytest.raises(FaultPlanError, match="only 2 devices"):
            run_sharded(
                graph, 0, num_devices=2, fault_plan=_loss_plan(device=5)
            )

    def test_rollback_replays_super_iterations(self, graph):
        result = run_sharded(
            graph,
            0,
            algorithm="sssp",
            num_devices=4,
            fault_plan=FaultPlan(seed=3, device_loss_rate=0.5, max_faults=1,
                                 device=0),
            checkpoint_every=4,
        )
        assert result.device_losses == 1
        # The lost round itself is always re-run; anything beyond the
        # last checkpoint is replayed on top.
        assert result.replayed_super_iterations >= 0
        assert result.checkpoints_saved >= 1

    def test_all_devices_lost_degrades_to_cpu(self, graph):
        reference = run_sharded(graph, 0, algorithm="bfs", num_devices=1)
        result = run_sharded(
            graph,
            0,
            algorithm="bfs",
            num_devices=2,
            fault_plan=FaultPlan(seed=1, device_loss_rate=1.0, max_faults=4),
            checkpoint_every=2,
        )
        assert result.degraded
        assert result.recovery_rung == "cpu"
        assert result.values_sha256 == reference.values_sha256
        assert any(e.rung == "cpu" for e in result.recovery_events)

    def test_transient_launch_failures_use_retry_rung(self, graph):
        reference = run_sharded(graph, 0, algorithm="bfs", num_devices=1)
        result = run_sharded(
            graph,
            0,
            algorithm="bfs",
            num_devices=3,
            fault_plan=FaultPlan(seed=2, launch_failure_rate=0.2, max_faults=2),
        )
        assert result.values_sha256 == reference.values_sha256
        if result.faults:
            assert result.recovery_rung in RECOVERY_RUNGS
            assert any(e.rung == "retry" for e in result.recovery_events)


    def test_max_retries_is_the_one_retry_bound(self):
        """Retries run to ``max_retries`` before the device is lost; no
        second bound ends the incident early."""
        graph = attach_uniform_weights(power_law_graph(600, seed=1), seed=1)
        result = run_sharded(
            graph, 0, algorithm="bfs", num_devices=2, max_retries=5,
            fault_plan=FaultPlan(seed=5, launch_failure_rate=0.6),
        )
        retries = [e.detail for e in result.recovery_events if e.rung == "retry"]
        assert any(detail.startswith("attempt 3/5:") for detail in retries)
        assert result.values_sha256 == run_sharded(
            graph, 0, algorithm="bfs", num_devices=1
        ).values_sha256


class TestKeptPartition:
    def test_repeat_run_on_one_graph_matches(self, graph):
        """A second run reuses the graph's kept shards and their views;
        through a retry, a restore and a device loss it answers and
        prices exactly as the first run and a run on a fresh copy."""
        plan = FaultPlan(
            seed=3, launch_failure_rate=0.2, device_loss_rate=0.3, max_faults=3
        )
        fresh = CSRGraph(
            graph.row_offsets, graph.col_indices, graph.weights, name=graph.name
        )
        first, second, copy = (
            run_sharded(
                g, 0, algorithm="bfs", num_devices=4, partition="balanced",
                fault_plan=plan, checkpoint_every=2,
            )
            for g in (graph, graph, fresh)
        )
        assert first.device_losses >= 1
        assert {e.rung for e in first.recovery_events} >= {"retry", "restore"}
        for result in (second, copy):
            assert result.values_sha256 == first.values_sha256
            assert result.sim_seconds.hex() == first.sim_seconds.hex()
            assert result.exchange_bytes == first.exchange_bytes
            assert result.recovery_events == first.recovery_events


def _unique_barrier(values, ids, vals):
    """The exchange barrier by ``np.unique``: the reference
    :func:`_min_combine` must match."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    if np.issubdtype(vals.dtype, np.floating):
        floor = np.inf
    else:
        floor = np.iinfo(vals.dtype).max
    best = np.full(uniq.size, floor, dtype=vals.dtype)
    np.minimum.at(best, inverse, vals)
    values[uniq] = best
    return uniq


_LEVELS = st.integers(min_value=-1, max_value=40)
_DISTANCES = st.floats(min_value=0.0, max_value=1e6) | st.just(np.inf)


class TestBarrierMatchesUnique:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_commit_and_frontier(self, data, dtype):
        """Repeated ids, and proposals above the committed value (a
        corrupted scratch copy), commit the minimum proposal either way."""
        elements = _LEVELS if dtype is np.int64 else _DISTANCES
        n = data.draw(st.integers(min_value=1, max_value=30))
        committed = np.array(
            data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype
        )
        count = data.draw(st.integers(min_value=1, max_value=3 * n))
        ids = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count)),
            dtype=np.int64,
        )
        vals = np.array(
            data.draw(st.lists(elements, min_size=count, max_size=count)),
            dtype=dtype,
        )
        want_values = committed.copy()
        want = _unique_barrier(want_values, ids, vals)
        got_values = committed.copy()
        got = _min_combine(got_values, ids, vals)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(got_values, want_values)


class TestShardManifest:
    def test_manifest_round_trips(self, graph):
        observer = Observer()
        with observing(observer):
            result = run_sharded(
                graph,
                0,
                algorithm="bfs",
                num_devices=4,
                fault_plan=_loss_plan(device=2),
                checkpoint_every=2,
            )
        manifest = build_shard_manifest(result, graph=graph, observer=observer)
        assert manifest.mode == "sharded"
        assert manifest.algorithm == "bfs"
        assert manifest.source == 0
        assert manifest.result["kind"] == "sharded"
        assert manifest.result["num_devices"] == 4
        assert manifest.result["values_sha256"] == result.values_sha256
        assert manifest.reliability["recovery_rung"] == "restore"
        assert manifest.faults and manifest.faults[0]["device"] == 2
        assert {d["shard_index"] for d in manifest.decisions} <= {0, 1, 2, 3}
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_shard_metrics_reported(self, graph):
        observer = Observer()
        with observing(observer):
            run_sharded(graph, 0, algorithm="bfs", num_devices=3)
        snapshot = observer.metrics.snapshot()
        assert snapshot["shard.super_iterations"]["value"] > 0
        assert snapshot["shard.exchange_transfers"]["value"] > 0
        assert "shard.active_shards" in snapshot


class TestShardedResultShape:
    def test_result_dict_is_json_shaped(self, graph):
        import json

        result = run_sharded(graph, 0, algorithm="bfs", num_devices=2)
        doc = result.result_dict()
        json.dumps(doc)  # must not raise
        assert doc["partition"] == "contiguous"
        assert doc["exchange"]["transfers"] == result.exchange_transfers

    def test_recovery_events_serialize(self, graph):
        result = run_sharded(
            graph,
            0,
            num_devices=4,
            fault_plan=_loss_plan(device=0),
            checkpoint_every=2,
        )
        for event in result.reliability_dict()["events"]:
            assert set(event) == {
                "super_iteration",
                "shard_index",
                "device_index",
                "fault_kind",
                "rung",
                "detail",
            }
