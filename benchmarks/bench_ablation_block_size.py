"""Ablation — kernel-configuration sensitivity (Section VII.A).

"When using thread-based mapping, we found that the best results can be
achieved with 192 threads per block.  When using block-based mapping,
the optimal number of threads per block is the multiple of 32 closest
to the average node outdegree in the graph."

This ablation sweeps the block size for both mappings and checks that
the paper's configuration rules pick (near-)optimal points on the
simulator too.
"""

import repro.kernels.variants as variants_mod
from common import bench_workload, write_report
from repro.core import run_static
from repro.gpusim.device import TESLA_C2070
from repro.kernels.variants import block_mapping_tpb
from repro.utils.tables import Table

THREAD_SIZES = (32, 64, 128, 192, 256, 512)
BLOCK_SIZES = (32, 64, 128, 256, 512)


def _run_with_thread_tpb(graph, source, tpb):
    """Run U_T_QU with a patched thread-mapping block size."""
    original = variants_mod.THREAD_MAPPING_TPB
    variants_mod.THREAD_MAPPING_TPB = tpb
    try:
        return run_static(graph, source, "sssp", "U_T_QU")
    finally:
        variants_mod.THREAD_MAPPING_TPB = original


class _FixedTpbVariant:
    """Wrapper forcing a block-mapping block size."""

    def __init__(self, tpb):
        from repro.kernels.variants import Variant

        self._inner = Variant.parse("U_B_QU")
        self._tpb = tpb
        self.code = self._inner.code
        self.ordering = self._inner.ordering
        self.mapping = self._inner.mapping
        self.workset = self._inner.workset

    def threads_per_block(self, avg_deg, device):
        return self._tpb


def _run_with_block_tpb(graph, source, tpb):
    return run_static(graph, source, "sssp", _FixedTpbVariant(tpb))


def build_report():
    t_graph, t_source = bench_workload("amazon", weighted=True)
    thread_times = {
        tpb: _run_with_thread_tpb(t_graph, t_source, tpb).total_seconds
        for tpb in THREAD_SIZES
    }

    b_graph, b_source = bench_workload("citeseer", weighted=True)
    block_times = {
        tpb: _run_with_block_tpb(b_graph, b_source, tpb).total_seconds
        for tpb in BLOCK_SIZES
    }

    t_table = Table(
        ["threads/block"] + [str(s) for s in THREAD_SIZES],
        title="thread mapping (U_T_QU on amazon): time (ms) vs block size",
    )
    t_table.add_row(["time"] + [f"{thread_times[s] * 1e3:.3f}" for s in THREAD_SIZES])

    rule_tpb = block_mapping_tpb(b_graph.avg_out_degree, TESLA_C2070)
    b_table = Table(
        ["threads/block"] + [str(s) for s in BLOCK_SIZES] + ["rule picks"],
        title="block mapping (U_B_QU on citeseer): time (ms) vs block size",
    )
    b_table.add_row(
        ["time"]
        + [f"{block_times[s] * 1e3:.3f}" for s in BLOCK_SIZES]
        + [str(rule_tpb)]
    )
    return t_table.render() + "\n\n" + b_table.render(), thread_times, block_times, rule_tpb


def test_ablation_block_size(benchmark):
    content, thread_times, block_times, rule_tpb = benchmark.pedantic(
        build_report, rounds=1, iterations=1
    )
    write_report("ablation_block_size", content)

    # 192 threads/block is within 10 % of the best thread-mapping size.
    best_thread = min(thread_times.values())
    assert thread_times[192] <= 1.10 * best_thread

    # The degree rule's block size is within 25 % of the best block size
    # (the sweep grid may not contain the rule's exact multiple of 32).
    best_block = min(block_times.values())
    closest = min(BLOCK_SIZES, key=lambda s: abs(s - rule_tpb))
    assert block_times[closest] <= 1.25 * best_block

    # Undersized blocks hurt both mappings: at 32 threads/block the
    # block-slot limit caps the SM at 8 resident warps and memory latency
    # leaks through (the occupancy cliff the Occupancy Calculator shows).
    assert block_times[32] > 1.05 * block_times[closest]
    assert thread_times[32] > 1.05 * thread_times[192]
