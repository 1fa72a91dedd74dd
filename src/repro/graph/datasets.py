"""Synthetic analogues of the paper's six evaluation datasets.

The paper evaluates on CO-road (9th DIMACS), CiteSeer co-citation
(10th DIMACS), p2p-Gnutella, Amazon co-purchase, Google web, and a
LiveJournal social network ("SNS") from SNAP (Table 1, Figure 1).  Those
files are not redistributable here, so each dataset gets a seeded
generator matched to its published structure:

==========  =========  ==========  =======  ============================
dataset     nodes      edges       avg deg  distribution shape
==========  =========  ==========  =======  ============================
co-road     435,666    ~1.0 M      ~2.5     near-uniform 1-4, max ~8,
                                            huge diameter (undirected)
citeseer    434,102    ~16 M       ~73.9    heavy tail, max ~1,188
                                            (undirected co-citation)
p2p          36,692    ~0.18 M     ~4.9     heavy tail, moderate max
amazon      403,394    ~3.4 M      ~8.4     70 % of nodes at outdeg 10,
                                            rest uniform 1-9, max 10
google      739,454    ~2.5 M      ~3.4     heavy tail, max ~456
sns       4,308,452    ~34.5 M     ~8.0     R-MAT-style social network
==========  =========  ==========  =======  ============================

``make_dataset(key, scale=...)`` shrinks the node count while preserving
the degree structure, so laptop-scale runs keep the paper's qualitative
behaviour.  Loaders for the real files live in :mod:`repro.graph.io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    attach_uniform_weights,
    power_law_graph,
    regular_outdegree_graph,
    rmat_graph,
    road_network,
)
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_in_range

__all__ = ["DatasetSpec", "DATASETS", "make_dataset", "dataset_keys"]


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics + generator for one Table-1 dataset."""

    key: str
    description: str
    domain: str
    paper_nodes: int
    paper_edges: int
    paper_avg_outdegree: float
    paper_max_outdegree: int
    directed: bool
    #: called as factory(num_nodes, max_degree, rng) -> CSRGraph
    factory: Callable[[int, int, object], CSRGraph]


def _co_road(n: int, max_deg: int, rng) -> CSRGraph:
    return road_network(n, seed=rng, name="co-road")


def _citeseer(n: int, max_deg: int, rng) -> CSRGraph:
    return power_law_graph(
        n,
        alpha=1.45,
        min_degree=1,
        max_degree=max_deg,
        in_degree_skew=2.5,
        symmetric=True,
        seed=rng,
        name="citeseer",
    )


def _p2p(n: int, max_deg: int, rng) -> CSRGraph:
    return power_law_graph(
        n,
        alpha=1.95,
        min_degree=1,
        max_degree=max_deg,
        in_degree_skew=1.0,
        seed=rng,
        name="p2p",
    )


def _amazon(n: int, max_deg: int, rng) -> CSRGraph:
    return regular_outdegree_graph(
        n, modal_degree=10, modal_fraction=0.7, seed=rng, name="amazon"
    )


def _google(n: int, max_deg: int, rng) -> CSRGraph:
    return power_law_graph(
        n,
        alpha=2.3,
        min_degree=1,
        max_degree=max_deg,
        in_degree_skew=1.3,
        seed=rng,
        name="google",
    )


def _sns(n: int, max_deg: int, rng) -> CSRGraph:
    g = rmat_graph(
        scale=max(4, (n - 1).bit_length()),
        edge_factor=9.0,
        seed=rng,
        name="sns",
        num_nodes=n,
    )
    return g


DATASETS: Dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in [
        DatasetSpec(
            key="co-road",
            description="Colorado road network (9th DIMACS challenge)",
            domain="road",
            paper_nodes=435_666,
            paper_edges=1_057_066,
            paper_avg_outdegree=2.5,
            paper_max_outdegree=8,
            directed=False,
            factory=_co_road,
        ),
        DatasetSpec(
            key="citeseer",
            description="CiteSeer paper co-citation network (10th DIMACS)",
            domain="citation",
            paper_nodes=434_102,
            paper_edges=16_036_720,
            paper_avg_outdegree=73.9,
            paper_max_outdegree=1_188,
            directed=False,
            factory=_citeseer,
        ),
        DatasetSpec(
            key="p2p",
            description="Gnutella peer-to-peer network (SNAP)",
            domain="p2p",
            paper_nodes=36_692,
            paper_edges=183_000,
            paper_avg_outdegree=4.9,
            paper_max_outdegree=78,
            directed=True,
            factory=_p2p,
        ),
        DatasetSpec(
            key="amazon",
            description="Amazon product co-purchase network (SNAP)",
            domain="retail",
            paper_nodes=403_394,
            paper_edges=3_387_388,
            paper_avg_outdegree=8.4,
            paper_max_outdegree=10,
            directed=True,
            factory=_amazon,
        ),
        DatasetSpec(
            key="google",
            description="Google web link network (SNAP)",
            domain="web",
            paper_nodes=739_454,
            paper_edges=2_500_000,
            paper_avg_outdegree=3.4,
            paper_max_outdegree=456,
            directed=True,
            factory=_google,
        ),
        DatasetSpec(
            key="sns",
            description="LiveJournal social network (SNAP)",
            domain="social",
            paper_nodes=4_308_452,
            paper_edges=34_500_000,
            paper_avg_outdegree=8.0,
            paper_max_outdegree=2_000,
            directed=True,
            factory=_sns,
        ),
    ]
}


def dataset_keys() -> Tuple[str, ...]:
    """The dataset keys in the paper's Table-1 order."""
    return tuple(DATASETS.keys())


def make_dataset(
    key: str,
    *,
    scale: float = 0.05,
    weighted: bool = False,
    weight_range: Tuple[float, float] = (1.0, 100.0),
    seed: SeedLike = 0,
    min_nodes: int = 256,
) -> CSRGraph:
    """Generate the analogue of dataset *key* at the given *scale*.

    ``scale=1.0`` targets the paper's node count; smaller values shrink
    the graph proportionally (never below *min_nodes*) while keeping the
    degree distribution shape.  *weighted* attaches uniform integer edge
    weights in *weight_range* (the paper's SSSP setup).
    """
    spec = DATASETS.get(key)
    if spec is None:
        raise DatasetError(
            f"unknown dataset {key!r}; available: {', '.join(DATASETS)}"
        )
    check_in_range("scale", scale, low=1e-6, high=1.0)
    n = max(min_nodes, int(round(spec.paper_nodes * scale)))
    # Max degree stays absolute (capped by n) so the heavy tail survives
    # down-scaling — the tail is what drives warp divergence.
    max_deg = min(spec.paper_max_outdegree, n - 1)
    gen_rng, weight_rng = spawn_rngs(seed, 2)
    graph = spec.factory(n, max_deg, gen_rng)
    if weighted:
        graph = attach_uniform_weights(
            graph, low=weight_range[0], high=weight_range[1], seed=weight_rng
        )
    return graph
