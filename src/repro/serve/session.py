"""Graph sessions: ingest once, serve many queries.

A :class:`GraphSession` pins everything a query needs that does not
depend on the query itself: the CSR arrays (and, until a refresh,
their transpose), the Table-1 property profile, the resolved decision
:class:`~repro.core.decision.Thresholds` and the
:class:`~repro.gpusim.device.DeviceSpec`.  Building one is the
expensive part of answering a graph query (ingestion, characterization,
threshold resolution); answering the query itself is cheap — so a
serving process keeps sessions in a :class:`SessionCache`, an LRU keyed
by the graph's *content digest* (the same blake2b digest run manifests
carry).  Two graphs with identical CSR content share a session no
matter how they were loaded or named; any content change — scale, seed,
repair — changes the digest and misses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.config import RuntimeConfig
from repro.errors import RuntimeConfigError
from repro.graph.csr import CSRGraph
from repro.graph.properties import characterize
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.obs.context import current_observer
from repro.obs.manifest import graph_fingerprint

__all__ = ["GraphSession", "SessionCache"]


class GraphSession:
    """One ingested graph plus every query-independent derived artifact."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceSpec = TESLA_C2070,
        config: Optional[RuntimeConfig] = None,
    ):
        self.graph = graph
        self.device = device
        self.config = config or RuntimeConfig()
        #: manifest-compatible fingerprint (name, sizes, content digest)
        self.fingerprint = graph_fingerprint(graph)
        #: the cache key: blake2b digest of the CSR arrays
        self.digest: str = self.fingerprint["digest"]
        #: Table-1 property profile (degree stats etc.)
        self.profile = characterize(graph)
        #: decision thresholds resolved once for (device, graph size) —
        #: already clamped to a consistent ordering
        self.thresholds = self.config.resolve_thresholds(device, graph.num_nodes)
        # The graph keeps its transpose, so the BFS relax can pull the
        # wide levels of the queries served from this session.
        graph.reverse()

    @property
    def num_nodes(self) -> int:
        return int(self.graph.num_nodes)

    def refresh(self, graph: CSRGraph) -> None:
        """Re-point this session at a mutated (compacted) graph.

        Every query-independent artifact is recomputed from the new
        CSR arrays — fingerprint/digest, property profile, resolved
        thresholds — so policy decisions never see pre-mutation stats,
        while the session object itself (and anything holding it)
        survives.  The profile refresh is degree-vector work only, not
        a full re-ingest.  The transpose is the exception: the new
        graph's is not built, so BFS on a refreshed session pushes
        every level.
        """
        self.graph = graph
        self.fingerprint = graph_fingerprint(graph)
        self.digest = self.fingerprint["digest"]
        self.profile = characterize(graph)
        self.thresholds = self.config.resolve_thresholds(
            self.device, graph.num_nodes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSession({self.graph.name!r}, n={self.graph.num_nodes}, "
            f"digest={self.digest[:8]}..., device={self.device.name!r})"
        )


class SessionCache:
    """LRU cache of :class:`GraphSession` objects keyed by content digest.

    ``get`` is the only entry point: it returns the cached session when
    the graph's digest, device and config match, otherwise ingests a
    fresh session and evicts the least-recently-used one past
    *capacity*.  Device and config compare by value.  A digest hit
    under a *different* device or config is a miss — thresholds are
    resolved from both — and replaces the stale session.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise RuntimeConfigError(
                f"session cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._sessions: "OrderedDict[str, GraphSession]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: in-place mutation patches (epoch-aware invalidation): the
        #: cached session was re-keyed under the post-mutation digest
        #: without being evicted or rebuilt
        self.patches = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def digests(self):
        """Cached digests from least- to most-recently used."""
        return list(self._sessions)

    def get(
        self,
        graph: CSRGraph,
        *,
        device: DeviceSpec = TESLA_C2070,
        config: Optional[RuntimeConfig] = None,
    ) -> GraphSession:
        digest = graph_fingerprint(graph)["digest"]
        session = self._sessions.get(digest)
        if (
            session is not None
            and session.device == device
            and session.config == (config or RuntimeConfig())
        ):
            self._sessions.move_to_end(digest)
            self.hits += 1
            self._observe("hits")
            return session
        self.misses += 1
        self._observe("misses")
        session = GraphSession(graph, device=device, config=config)
        self._sessions[digest] = session
        self._sessions.move_to_end(digest)
        while len(self._sessions) > self.capacity:
            self._sessions.popitem(last=False)
            self.evictions += 1
            self._observe("evictions")
        return session

    def patch(self, session: GraphSession, graph: CSRGraph) -> GraphSession:
        """Epoch-aware invalidation: re-key *session* in place.

        After a mutation batch compacts, the serving loop calls this
        with the held session and the post-mutation graph: the session
        is :meth:`~GraphSession.refresh`-ed (new digest, profile,
        thresholds) and moved under its new key without eviction — the
        next ``get`` with the mutated graph is a *hit* on the same
        object.  Non-incremental consumers keying on the digest simply
        see it bump: the old digest no longer resolves.
        """
        if self._sessions.get(session.digest) is not session:
            raise RuntimeConfigError(
                "cannot patch a session this cache does not hold "
                f"(digest {session.digest[:8]}...)"
            )
        del self._sessions[session.digest]
        session.refresh(graph)
        # A different session already cached under the new digest is
        # superseded by the patched one (counted as an eviction).
        if session.digest in self._sessions:
            del self._sessions[session.digest]
            self.evictions += 1
            self._observe("evictions")
        self._sessions[session.digest] = session
        self._sessions.move_to_end(session.digest)
        self.patches += 1
        self._observe("patches")
        return session

    def _observe(self, event: str) -> None:
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter(f"serve.cache.{event}").inc()
