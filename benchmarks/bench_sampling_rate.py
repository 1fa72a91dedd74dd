"""Inspector sampling rate (Sections VI.E, VII.B).

The graph inspector's runtime monitoring costs kernels; the paper
reduces the overhead by (i) defaulting to the whole-graph average
outdegree (computed once at load time) and (ii) sampling.  This bench
sweeps the sampling interval in both modes and reproduces the trade-off:

- precise monitoring (a reduction over the working set per sample) is
  measurably more expensive than the static default at every interval;
- the precise mode's *overhead* — its gap over the static mode at the
  same interval — shrinks as sampling gets sparser (the amortization
  the paper's sampling is for);
- sparse sampling delays decisions on fast-ramping frontiers, so the
  end-to-end time grows with the interval: on this simulator the
  monitoring is cheap enough that sampling every iteration is optimal,
  which is why the whole-graph-average default (free monitoring at
  k = 1) is the configuration the paper itself ships.
"""

from common import bench_workload, write_report
from repro.core import RuntimeConfig, adaptive_run
from repro.utils.tables import Table

INTERVALS = (1, 2, 4, 8, 16)
KEYS = ("amazon", "google", "sns")


def build_report():
    results = {}
    for key in KEYS:
        graph, source = bench_workload(key, weighted=True)
        per_mode = {}
        for precise in (False, True):
            times = {}
            for interval in INTERVALS:
                config = RuntimeConfig(
                    sampling_interval=interval, monitor_workset_degree=precise
                )
                ad = adaptive_run(graph, "sssp", source, config=config)
                times[interval] = ad.total_seconds
            per_mode[precise] = times
        results[key] = per_mode

    table = Table(
        ["network", "monitoring"] + [f"k={k}" for k in INTERVALS],
        title="adaptive SSSP time (ms) vs sampling interval",
    )
    for key, per_mode in results.items():
        for precise, times in per_mode.items():
            label = "precise (ws degree)" if precise else "static (graph degree)"
            table.add_row(
                [key, label] + [f"{times[k] * 1e3:.3f}" for k in INTERVALS]
            )
    return table.render(), results


def test_sampling_rate(benchmark):
    content, results = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("sampling_rate", content)

    for key, per_mode in results.items():
        static_times = per_mode[False]
        precise_times = per_mode[True]

        # Precise monitoring costs more than the free static default.
        assert precise_times[1] >= static_times[1], key

        # The monitoring overhead amortizes away with sparser sampling.
        gap_dense = precise_times[1] - static_times[1]
        gap_sparse = precise_times[16] - static_times[16]
        assert gap_sparse <= gap_dense + 1e-9, key

        # Decision staleness: very sparse sampling is never faster than
        # per-iteration decisions in the free default mode.
        assert static_times[16] >= static_times[1] * 0.99, key
