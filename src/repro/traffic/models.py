"""Seeded traffic models: who talks to whom, as index arrays.

A traffic model turns a graph into an endless, deterministic stream of
(source, destination) packet batches.  Batches are addressed by *index*:
``model.batch(b, size)`` derives its generator from ``(seed, b)`` alone, so

* the same seed reproduces bit-identical batches in any order,
* a sharded driver can hand batch ``b`` to any worker without shipping
  arrays — every shard regenerates exactly the packets it was assigned,
* statistics keyed by batch index are partition-independent.

Every generated model conditions its pairs on graph connectivity (source
and destination always share a component, and differ), because the
evaluation layer measures stretch against finite shortest-path distances.
The models:

* :class:`UniformTraffic` — the legacy regime: both endpoints uniform.
* :class:`ZipfTraffic` — Zipf-popular destinations (rank-``r`` destination
  drawn with probability ∝ ``1/(r+1)^s`` over a seeded popularity
  permutation, optionally truncated to a hot ``support`` set).  The skewed
  regime compact-routing schemes were designed for.
* :class:`GravityTraffic` — gravity/locality flows: endpoints drawn by
  degree-mass, a ``locality`` fraction of packets staying inside the
  source's ``hops``-hop neighborhood.
* :class:`HotspotTraffic` — adversarial concentration: a small hotspot set
  absorbs a fixed fraction of all packets (placement by top degree, low
  degree, or seeded random).
* :class:`PairTraffic` — an explicit pair list, served in order (the
  simulator's ``evaluate`` runs sampled or given pairs through it).

All draws are vectorized; per-batch cost is O(size) array work over
structures precomputed once at model construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import require

#: derivation namespaces so init-time and batch-time streams never collide
_INIT_KEY = 0
_BATCH_KEY = 1


class _ComponentIndex:
    """Connectivity scaffolding shared by every model.

    Nodes grouped by component (sorted by node id inside each group), the
    position of each node inside its group, and the *eligible* node set —
    members of components with at least two nodes, the only nodes that can
    ever be an endpoint of a valid packet.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        comp = graph.component_ids()
        sizes = np.bincount(comp)
        order = np.argsort(comp, kind="stable")       # groups nodes per component
        self.comp = comp
        self.sorted_nodes = order.astype(np.int64)
        self.start = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        self.count = sizes.astype(np.int64)
        pos = np.empty(graph.n, dtype=np.int64)
        pos[order] = np.arange(graph.n, dtype=np.int64)
        self.pos = pos                                 # global slot in sorted_nodes
        self.eligible = np.flatnonzero(sizes[comp] >= 2).astype(np.int64)
        require(self.eligible.size > 0,
                "traffic needs at least one connected pair of distinct nodes")

    def uniform_nodes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` endpoints uniform over the eligible nodes."""
        return self.eligible[rng.integers(0, self.eligible.size, size=size)]

    def partner_uniform(self, rng: np.random.Generator,
                        nodes: np.ndarray) -> np.ndarray:
        """A uniform partner in each node's component, excluding the node."""
        comps = self.comp[nodes]
        counts = self.count[comps]
        local = rng.integers(0, counts - 1)            # slot among the others
        own = self.pos[nodes] - self.start[comps]
        local += local >= own                          # skip the node itself
        return self.sorted_nodes[self.start[comps] + local]

    def weighted_cdf(self, masses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(eligible nodes, cumulative mass) for global inverse-CDF draws."""
        weights = np.asarray(masses, dtype=float)[self.eligible]
        require(bool((weights >= 0).all()), "endpoint masses must be non-negative")
        cum = np.cumsum(weights)
        require(cum[-1] > 0, "endpoint masses must not all be zero")
        return self.eligible, cum


def _draw_cdf(rng: np.random.Generator, nodes: np.ndarray, cum: np.ndarray,
              size: int) -> np.ndarray:
    """``size`` inverse-CDF draws from a (nodes, cumulative-mass) table."""
    u = rng.random(size) * cum[-1]
    return nodes[np.searchsorted(cum, u, side="right")]


class TrafficModel:
    """Base class: seeded, batch-indexed pair generation over one graph.

    ``seed`` drives the per-batch packet draws.  ``structure_seed``
    (defaulting to ``seed``) drives the one-time structure — popularity
    permutations, hotspot placement — separately, so a driver can re-seed
    the packet stream every epoch while *pinning* the hot set, or migrate
    the hot set mid-run while keeping the stream cadence: the two axes the
    adversarial scenarios (flash crowds, hotspot storms) steer
    independently.
    """

    name = "abstract"

    def __init__(self, graph: WeightedGraph, seed: SeedLike = 0,
                 structure_seed: Optional[SeedLike] = None) -> None:
        self.graph = graph
        self.seed = seed
        self.structure_seed = seed if structure_seed is None else structure_seed
        self.index = _ComponentIndex(graph)

    def _init_rng(self) -> np.random.Generator:
        """Generator for one-time structure (popularity permutations etc.)."""
        return derive_rng(self.structure_seed, _INIT_KEY)

    def batch(self, batch_index: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Packet batch ``batch_index``: parallel (sources, destinations).

        Content depends only on the model configuration, the seed, the batch
        index and the size — never on which batches were generated before or
        on which shard asks.
        """
        require(batch_index >= 0, "batch index must be non-negative")
        require(size > 0, "batch size must be positive")
        rng = derive_rng(self.seed, _BATCH_KEY, batch_index)
        src, dst = self._draw(rng, int(size))
        return src.astype(np.int64), dst.astype(np.int64)

    def _draw(self, rng: np.random.Generator,
              size: int) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def hot_destinations(self) -> np.ndarray:
        """Destinations likely to dominate this model's traffic, hottest first.

        The sharded engine prefetches these nodes' distance rows **before**
        forking workers and pins them as its hot-row cache, so under a lazy
        backend the (identical) Dijkstra fills run once in the parent and
        reach every worker copy-on-write instead of being recomputed per
        shard.  The order matters: when the cache's memory cap applies it
        keeps a prefix of this array, so the most popular destination comes
        first (equally popular ones in any fixed order).  The contract is
        uniform across all bundled models: every model returns an int64
        index array — *empty* when the model has no concentrated destination
        set — so single-vs-sharded comparisons run at equal cache state for
        every model (asserted by the conformance suite).
        """
        return np.zeros(0, dtype=np.int64)

    def describe(self) -> Dict[str, object]:
        """Model parameters for reports/benches."""
        return {"model": self.name, "n": self.graph.n}


class UniformTraffic(TrafficModel):
    """Both endpoints uniform over connected pairs (the legacy regime)."""

    name = "uniform"

    def _draw(self, rng, size):
        src = self.index.uniform_nodes(rng, size)
        dst = self.index.partner_uniform(rng, src)
        return src, dst

    def hot_destinations(self):
        """Explicitly empty: uniform traffic has no concentrated destinations."""
        return np.zeros(0, dtype=np.int64)


class ZipfTraffic(TrafficModel):
    """Zipf-skewed destination popularity, uniform sources.

    A seeded permutation of the eligible nodes assigns popularity ranks;
    rank ``r`` receives weight ``1 / (r + 1) ** exponent``.  ``support``
    truncates the distribution to the hottest ``support`` destinations —
    the knob that keeps exact-stretch evaluation tractable at large ``n``
    (distance rows are needed only for destinations that actually occur).
    Sources are uniform among the destination's component peers.
    """

    name = "zipf"

    def __init__(self, graph: WeightedGraph, seed: SeedLike = 0,
                 exponent: float = 1.1, support: Optional[int] = None,
                 structure_seed: Optional[SeedLike] = None) -> None:
        super().__init__(graph, seed, structure_seed=structure_seed)
        require(exponent > 0, "zipf exponent must be positive")
        self.exponent = float(exponent)
        eligible = self.index.eligible
        popular = self._init_rng().permutation(eligible)
        if support is not None:
            require(support >= 1, "zipf support must be at least 1")
            popular = popular[:min(int(support), popular.size)]
        self.support = int(popular.size)
        weights = 1.0 / np.power(np.arange(1, popular.size + 1, dtype=float),
                                 self.exponent)
        self._popular = popular.astype(np.int64)
        self._cum = np.cumsum(weights)

    def _draw(self, rng, size):
        dst = _draw_cdf(rng, self._popular, self._cum, size)
        src = self.index.partner_uniform(rng, dst)
        return src, dst

    def hot_destinations(self):
        return self._popular

    def describe(self):
        out = super().describe()
        out.update(exponent=self.exponent, support=self.support)
        return out


class GravityTraffic(TrafficModel):
    """Gravity flows with locality: mass ∝ degree^alpha, local bias.

    Sources are drawn by degree-mass.  With probability ``locality`` the
    destination is uniform inside the source's ``hops``-hop neighborhood
    (capped at ``max_neighbors`` per node, computed once from boolean CSR
    powers); otherwise it is a degree-mass draw from the source's component
    (falling back to a uniform component peer when the global draw lands on
    the source itself).
    """

    name = "gravity"

    def __init__(self, graph: WeightedGraph, seed: SeedLike = 0,
                 alpha: float = 1.0, locality: float = 0.7, hops: int = 2,
                 max_neighbors: int = 64,
                 structure_seed: Optional[SeedLike] = None) -> None:
        super().__init__(graph, seed, structure_seed=structure_seed)
        require(0.0 <= locality <= 1.0, "locality must be in [0, 1]")
        require(hops >= 1, "neighborhood radius must be at least 1 hop")
        self.alpha = float(alpha)
        self.locality = float(locality)
        self.hops = int(hops)
        degrees = np.asarray([graph.degree(v) for v in range(graph.n)], dtype=float)
        self._mass = np.power(np.maximum(degrees, 0.0), self.alpha)
        self._nodes, self._cum = self.index.weighted_cdf(self._mass)
        self._build_neighborhoods(int(max_neighbors))
        # hot-destination contract: the top-k eligible nodes by degree mass,
        # heaviest first — the heads of the global gravity draw (ties broken
        # by node id)
        k = min(64, self._nodes.size)
        order = np.lexsort((self._nodes, -self._mass[self._nodes]))
        self._hot = self._nodes[order[:k]].astype(np.int64)

    def _build_neighborhoods(self, max_neighbors: int) -> None:
        adj = (self.graph.to_scipy_csr() > 0).astype(np.int32).tocsr()
        reach = adj.copy()
        for _ in range(self.hops - 1):
            reach = ((reach @ adj) + reach).tocsr()
            reach.data = np.ones_like(reach.data)  # keep counts from overflowing
        flat_parts, starts, counts = [], [], []
        offset = 0
        indptr, indices = reach.indptr, reach.indices
        for v in range(self.graph.n):
            row = indices[indptr[v]:indptr[v + 1]]
            row = row[row != v][:max_neighbors]
            flat_parts.append(row)
            starts.append(offset)
            counts.append(row.size)
            offset += row.size
        self._nbr_flat = (np.concatenate(flat_parts).astype(np.int64)
                          if offset else np.zeros(0, dtype=np.int64))
        self._nbr_start = np.asarray(starts, dtype=np.int64)
        self._nbr_count = np.asarray(counts, dtype=np.int64)

    def _draw(self, rng, size):
        src = _draw_cdf(rng, self._nodes, self._cum, size)
        local = rng.random(size) < self.locality
        local &= self._nbr_count[src] > 0           # eligible nodes always have ≥1
        dst = np.empty(size, dtype=np.int64)
        if local.any():
            s = src[local]
            slot = rng.integers(0, self._nbr_count[s])
            dst[local] = self._nbr_flat[self._nbr_start[s] + slot]
        far = ~local
        if far.any():
            candidates = _draw_cdf(rng, self._nodes, self._cum, int(far.sum()))
            # global mass draw must stay inside the source's component and
            # avoid the source; repair the misses with a uniform peer
            s = src[far]
            bad = (self.index.comp[candidates] != self.index.comp[s]) \
                | (candidates == s)
            if bad.any():
                candidates[bad] = self.index.partner_uniform(rng, s[bad])
            dst[far] = candidates
        return src, dst

    def hot_destinations(self):
        """Top-k degree-mass nodes: the heavy head of the gravity draw."""
        return self._hot

    def describe(self):
        out = super().describe()
        out.update(alpha=self.alpha, locality=self.locality, hops=self.hops)
        return out


class HotspotTraffic(TrafficModel):
    """Adversarial hotspot concentration: few destinations absorb most load.

    ``placement`` picks the hotspot set deterministically: ``"high-degree"``
    (hubs — congestion stress), ``"low-degree"`` (periphery leaves — stretch
    stress for hierarchical schemes), or ``"random"`` (seeded).  Each packet
    targets a uniform hotspot with probability ``fraction``; the rest of the
    traffic is uniform.  Sources are uniform component peers of their
    destination.
    """

    name = "hotspot"

    PLACEMENTS = ("high-degree", "low-degree", "random", "explicit")

    def __init__(self, graph: WeightedGraph, seed: SeedLike = 0,
                 hotspots: int = 8, fraction: float = 0.8,
                 placement: str = "high-degree",
                 nodes: Optional[np.ndarray] = None,
                 structure_seed: Optional[SeedLike] = None) -> None:
        super().__init__(graph, seed, structure_seed=structure_seed)
        require(hotspots >= 1, "need at least one hotspot")
        require(0.0 <= fraction <= 1.0, "hotspot fraction must be in [0, 1]")
        if nodes is not None:
            placement = "explicit"
        require(placement in self.PLACEMENTS,
                f"placement must be one of {self.PLACEMENTS}, got {placement!r}")
        require(placement != "explicit" or nodes is not None,
                "explicit placement requires the hotspot nodes")
        self.fraction = float(fraction)
        self.placement = placement
        eligible = self.index.eligible
        count = min(int(hotspots), eligible.size)
        if placement == "explicit":
            # scenario-chosen hotspots (e.g. a storm aimed at a region about
            # to be partitioned); restricted to eligible nodes so the draw
            # never produces an unroutable pair
            hot = np.intersect1d(np.asarray(nodes, dtype=np.int64), eligible)
            require(hot.size > 0,
                    "explicit hotspot set has no eligible (connected) node")
        elif placement == "random":
            chosen = self._init_rng().choice(eligible.size, size=count,
                                             replace=False)
            hot = eligible[np.sort(chosen)]
        else:
            degrees = np.asarray([graph.degree(int(v)) for v in eligible],
                                 dtype=np.int64)
            sign = -1 if placement == "high-degree" else 1
            order = np.lexsort((eligible, sign * degrees))  # deterministic ties
            hot = eligible[order[:count]]
        self.hotspots = hot.astype(np.int64)

    def _draw(self, rng, size):
        dst = self.index.uniform_nodes(rng, size)
        hot = rng.random(size) < self.fraction
        if hot.any():
            dst[hot] = self.hotspots[rng.integers(0, self.hotspots.size,
                                                  size=int(hot.sum()))]
        src = self.index.partner_uniform(rng, dst)
        return src, dst

    def hot_destinations(self):
        return self.hotspots

    def describe(self):
        out = super().describe()
        out.update(hotspots=self.hotspots.size, fraction=self.fraction,
                   placement=self.placement)
        return out


class FlashCrowdTraffic(TrafficModel):
    """A Zipf crowd whose hot set *migrates* between phases mid-stream.

    The batch index is divided into phases of ``batches_per_phase`` batches;
    phase ``p`` (cycling through ``num_phases``) draws destinations Zipf-wise
    from its own seeded permutation of the eligible nodes truncated to
    ``support`` — a flash crowd abandoning one hot set for another.  Because
    the phase is a pure function of the batch index, the stream keeps the
    batch-addressing contract: any shard regenerates exactly its batches,
    and re-partitioning the batches across shards cannot change which phase
    a batch belongs to.

    Phase structure derives from ``structure_seed`` (namespaced per phase),
    so a live driver can re-seed the packet stream per epoch while the
    migration schedule stays pinned.  ``hot_destinations`` is the union of
    every phase's support — the set a scoring cache must cover across the
    whole run; a cache pinned to one phase's support is exactly the stale
    state the migration is designed to invalidate.
    """

    name = "flash-crowd"

    def __init__(self, graph: WeightedGraph, seed: SeedLike = 0,
                 exponent: float = 1.1, support: int = 16,
                 batches_per_phase: int = 8, num_phases: int = 4,
                 structure_seed: Optional[SeedLike] = None) -> None:
        super().__init__(graph, seed, structure_seed=structure_seed)
        require(exponent > 0, "zipf exponent must be positive")
        require(support >= 1, "flash-crowd support must be at least 1")
        require(batches_per_phase >= 1, "need at least one batch per phase")
        require(num_phases >= 1, "need at least one phase")
        self.exponent = float(exponent)
        self.batches_per_phase = int(batches_per_phase)
        self.num_phases = int(num_phases)
        eligible = self.index.eligible
        self.support = min(int(support), eligible.size)
        weights = 1.0 / np.power(np.arange(1, self.support + 1, dtype=float),
                                 self.exponent)
        self._cum = np.cumsum(weights)
        self._phase_hot = []
        for p in range(self.num_phases):
            perm = derive_rng(self.structure_seed, _INIT_KEY, p).permutation(
                eligible)
            self._phase_hot.append(perm[:self.support].astype(np.int64))

    def phase_of(self, batch_index: int) -> int:
        """The migration phase batch ``batch_index`` belongs to."""
        return (int(batch_index) // self.batches_per_phase) % self.num_phases

    def batch(self, batch_index: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
        require(batch_index >= 0, "batch index must be non-negative")
        require(size > 0, "batch size must be positive")
        rng = derive_rng(self.seed, _BATCH_KEY, batch_index)
        hot = self._phase_hot[self.phase_of(batch_index)]
        dst = _draw_cdf(rng, hot, self._cum, int(size))
        src = self.index.partner_uniform(rng, dst)
        return src.astype(np.int64), dst.astype(np.int64)

    def _draw(self, rng, size):  # pragma: no cover - batch() is overridden
        raise NotImplementedError("flash-crowd draws are phase-addressed")

    def hot_destinations(self):
        """Union of every phase's hot set (the full-run cache footprint).

        Ordered by popularity rank across phases — every phase's rank-0
        node, then every rank-1 node, ... — keeping each node's first
        occurrence.
        """
        by_rank = np.stack(self._phase_hot, axis=1).ravel()
        _, first = np.unique(by_rank, return_index=True)
        return by_rank[np.sort(first)]

    def describe(self):
        out = super().describe()
        out.update(exponent=self.exponent, support=self.support,
                   batches_per_phase=self.batches_per_phase,
                   num_phases=self.num_phases)
        return out


class PairTraffic(TrafficModel):
    """An explicit (source, destination) list served in fixed-size batches.

    Batch ``b`` is pairs ``[b·batch_size, b·batch_size + size)`` of the
    list, so a run over ``len(sources)`` packets with the same
    ``batch_size`` routes every pair exactly once, in order, under any
    shard partition.  A request outside that partition is refused rather
    than wrapped or resampled.  The pairs are taken as given: the engine
    counts a disconnected pair as ``unreachable`` instead of scoring it.

    There is no seed (the list is the traffic) and no hot destination set,
    so no hot-row cache is pinned for it.  Not registered in
    :data:`TRAFFIC_MODELS`: it cannot be built from a name.
    """

    name = "pairs"

    def __init__(self, graph: WeightedGraph, sources, destinations,
                 batch_size: int) -> None:
        src = np.asarray(sources, dtype=np.int64).ravel()
        dst = np.asarray(destinations, dtype=np.int64).ravel()
        require(src.size == dst.size,
                "sources and destinations must have equal length")
        require(batch_size > 0, "batch size must be positive")
        ids = np.concatenate((src, dst))
        require(bool(((ids >= 0) & (ids < graph.n)).all()),
                f"pair node ids must lie in [0, {graph.n})")
        # no TrafficModel.__init__: nothing is drawn, so neither a seed nor
        # the component index applies
        self.graph = graph
        self.sources = src
        self.destinations = dst
        self.batch_size = int(batch_size)

    def batch(self, batch_index: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
        start = int(batch_index) * self.batch_size
        held = min(self.batch_size, self.sources.size - start)
        require(batch_index >= 0 and held > 0 and size == held,
                f"batch {batch_index} of a {self.sources.size}-pair list "
                f"in batches of {self.batch_size} cannot serve {size} pairs")
        return (self.sources[start:start + size],
                self.destinations[start:start + size])


#: registry used by the harness / workloads / benches
TRAFFIC_MODELS: Dict[str, Type[TrafficModel]] = {
    UniformTraffic.name: UniformTraffic,
    ZipfTraffic.name: ZipfTraffic,
    GravityTraffic.name: GravityTraffic,
    HotspotTraffic.name: HotspotTraffic,
    FlashCrowdTraffic.name: FlashCrowdTraffic,
}

TRAFFIC_MODEL_NAMES = tuple(sorted(TRAFFIC_MODELS))


def make_traffic_model(name: str, graph: WeightedGraph, seed: SeedLike = 0,
                       **kwargs) -> TrafficModel:
    """Build a registered traffic model by name."""
    if name not in TRAFFIC_MODELS:
        raise ValueError(f"unknown traffic model {name!r}; "
                         f"choose from {TRAFFIC_MODEL_NAMES}")
    return TRAFFIC_MODELS[name](graph, seed=seed, **kwargs)
