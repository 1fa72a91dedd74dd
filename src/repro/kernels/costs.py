"""Instruction-cost constants of the simulated kernels.

These are properties of the *kernel code* (how many warp instructions
the compiled loop bodies issue), as opposed to the hardware coefficients
among the constants of :mod:`repro.gpusim.kernel`.  Units:
warp-instruction issues for one warp performing the operation once.

The values approximate the Fermi SASS for the paper's kernel bodies
(Figure 9): a bounds/flag check is a couple of loads plus a predicated
branch; processing a node loads two row offsets and writes a level or
distance; visiting a neighbor loads its id, loads its state, compares,
and conditionally writes state + update flag.
"""

from __future__ import annotations

__all__ = [
    "C_CHECK",
    "C_NODE",
    "C_EDGE",
    "C_EDGE_WEIGHTED",
    "C_PAIR_CHECK",
    "C_GEN_SCAN",
    "C_GEN_WRITE",
]

#: bounds test + working-set membership check (bitmap load / queue read)
C_CHECK = 4.0

#: per-active-node processing: two offset loads, level/dist arithmetic,
#: state write
C_NODE = 16.0

#: per-neighbor visit for BFS: neighbor id load, state load, compare,
#: conditional state + update-flag stores
C_EDGE = 10.0

#: per-neighbor visit for SSSP: adds the weight load and the add
C_EDGE_WEIGHTED = 13.0

#: ordered variants: comparing an element's key against the iteration's
#: minimum (the selected-subset test)
C_PAIR_CHECK = 6.0

#: workset-generation: per-element update-flag check
C_GEN_SCAN = 3.0

#: workset-generation: per-set-element output write (bitmap bit or queue
#: slot; the queue's atomic index fetch is priced separately)
C_GEN_WRITE = 4.0
