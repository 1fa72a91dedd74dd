"""Shared-memory bank-conflict model.

Fermi shared memory is organized in 32 banks of 4-byte words;
simultaneous accesses by a warp's lanes to different words in the same
bank serialize (an n-way conflict costs n shared-memory cycles).  This
matters for the reduction/scan kernels the ordered SSSP and the
scan-based queue generation rely on: the naive interleaved-addressing
tree reduction suffers 2-way-doubling conflicts, while the classic
sequential-addressing formulation is conflict-free — a standard
CUDA-optimization example that the simulator reproduces.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "NUM_BANKS",
    "conflict_degree",
    "reduction_step_cycles",
]

#: shared-memory banks on Fermi-class hardware
NUM_BANKS = 32

#: shared-memory access latency per conflict-free warp access, cycles
_BASE_CYCLES = 2.0


def conflict_degree(stride_words: int, active_lanes: int = 32, num_banks: int = NUM_BANKS) -> int:
    """Worst-case serialization factor for a warp accessing shared memory
    with a fixed word *stride*.

    Lanes ``i`` access word ``i * stride``; lanes collide when their
    words map to the same bank, i.e. every ``num_banks / gcd(stride,
    num_banks)`` lanes.  A stride of 1 (or any odd stride) is
    conflict-free; a stride of 2 gives 2-way conflicts; 32 gives 32-way.
    Broadcast (stride 0) is conflict-free on Fermi.
    """
    if stride_words < 0:
        raise ValueError(f"stride_words must be >= 0, got {stride_words}")
    if active_lanes < 1:
        raise ValueError(f"active_lanes must be >= 1, got {active_lanes}")
    if stride_words == 0:
        return 1  # broadcast
    distinct_banks = num_banks // gcd(stride_words, num_banks)
    return max(1, min(active_lanes, (active_lanes + distinct_banks - 1) // distinct_banks))


def reduction_step_cycles(step: int, *, sequential_addressing: bool) -> float:
    """Shared-memory cycles of one tree-reduction step for one warp.

    With *sequential addressing* (``s = blockDim/2; s >>= 1``) the active
    lanes read/write contiguous words: conflict-free.  With the naive
    interleaved addressing (``s = 1; s <<= 1``) step *k* accesses stride
    ``2^(k+1)`` words, serializing up to 32-way in the late steps.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if sequential_addressing:
        return 2 * _BASE_CYCLES  # one read + one write, conflict-free
    stride = 2 ** (step + 1)
    degree = conflict_degree(stride % (2 * NUM_BANKS) or 2 * NUM_BANKS)
    return 2 * _BASE_CYCLES * degree
