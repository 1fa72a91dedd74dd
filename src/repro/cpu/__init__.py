"""Serial CPU baselines: the reference implementations the paper's
speedup tables divide by.

- :mod:`repro.cpu.bfs` — FIFO breadth-first search;
- :mod:`repro.cpu.sssp` — Dijkstra with a binary heap (the paper's SSSP
  baseline) and Bellman-Ford (the unordered counterpart);
- :mod:`repro.cpu.costmodel` — a calibrated per-operation cost model that
  expresses CPU runtime in the same simulated seconds as the GPU
  simulator, so speedup ratios are meaningful.

The algorithms are *real* (they produce the oracle levels/distances used
by the test suite); only their runtime is modelled rather than measured,
because a Python loop's wall-clock tells nothing about a ``gcc -O3``
baseline.
"""

from repro.cpu.bfs import CpuBfsResult, cpu_bfs
from repro.cpu.cc import CpuCcResult, cpu_connected_components
from repro.cpu.kcore import CpuKCoreResult, cpu_kcore
from repro.cpu.pagerank import CpuPageRankResult, cpu_pagerank
from repro.cpu.sssp import CpuSsspResult, cpu_bellman_ford, cpu_dijkstra
from repro.cpu.triangles import CpuTrianglesResult, cpu_triangles

__all__ = [
    "cpu_bfs",
    "CpuBfsResult",
    "cpu_dijkstra",
    "cpu_bellman_ford",
    "CpuSsspResult",
    "cpu_connected_components",
    "CpuCcResult",
    "cpu_pagerank",
    "CpuPageRankResult",
    "cpu_kcore",
    "cpu_triangles",
    "CpuTrianglesResult",
    "CpuKCoreResult",
]
