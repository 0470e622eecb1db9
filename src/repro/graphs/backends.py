"""The exact distance store behind :class:`repro.graphs.shortest_paths.DistanceOracle`.

:class:`LazyDijkstraBackend` computes per-source rows on demand through the
SciPy Dijkstra kernel and keeps them in a bounded LRU cache (spilling evicted
rows to disk), with a batched ``prefetch`` that fills many rows in one
vectorized call.  When a shortest-path forest from every node has run for the
current graph version, the store holds that all-pairs matrix instead and
serves every row from it until the next mutation.  The rest of the library
(decomposition, landmarks, both AGM strategies, all baselines, covers, the
simulator and the experiment harness) reaches it only through the oracle, so
it never touches a raw matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.utils.validation import check_index, require

#: default LRU capacity (rows) of the lazy backend
DEFAULT_CACHE_ROWS = 256
#: chunk size (sources per SciPy call) for streaming passes
DEFAULT_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DistanceStats:
    """Global scalar facts about a metric, computed once per graph version."""

    diameter: float
    min_positive: float

    @property
    def aspect_ratio(self) -> float:
        if self.min_positive <= 0:
            return float("inf")
        return self.diameter / self.min_positive


def checked_sources(sources: Sequence[int], n: int) -> np.ndarray:
    """``sources`` as an int64 array, refusing any index outside ``[0, n)``."""
    sources = np.asarray(sources, dtype=np.int64)
    require(sources.size == 0 or (sources.min() >= 0 and sources.max() < n),
            "source index out of range")
    return sources


class LazyDijkstraBackend:
    """Rows computed on demand via SciPy Dijkstra, held in a bounded LRU cache.

    ``prefetch`` computes all missing rows of a batch in one vectorized
    multi-source call, which is how streaming consumers (the decomposition's
    ball-size table, sparse-cover construction, batched pair evaluation) avoid
    per-row kernel overhead.

    Rows falling out of the LRU are not discarded: they are **spilled** into
    a :class:`repro.storage.SpilledRowStore` (memmap slots in
    ``REPRO_SPILL_DIR``), so a re-touched cold row is a page-cache read
    instead of a fresh Dijkstra.  ``REPRO_ROW_SPILL_BYTES`` caps its
    footprint.  Spilled rows are cleared together with the RAM cache on
    graph mutation, so a stale row can never be served.

    A shortest-path forest from every node hands its distance matrix over
    (:meth:`adopt_all_pairs`); ``row``, ``rows`` and ``prefetch`` then read
    it, computing and caching nothing, until the next mutation drops it.
    """

    def __init__(self, graph: WeightedGraph, cache_rows: int = DEFAULT_CACHE_ROWS,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        require(cache_rows >= 1, "cache_rows must be >= 1")
        require(chunk_rows >= 1, "chunk_rows must be >= 1")
        self.graph = graph
        self.n = graph.n
        self.cache_rows = int(cache_rows)
        self.chunk_rows = int(chunk_rows)
        self._graph_version = graph.version
        self._stats: Optional[DistanceStats] = None
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._orders: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: all-pairs matrix of the current graph version, if one was adopted
        self._all_pairs: Optional[np.ndarray] = None
        self._spill = None  # created on first eviction
        # one backend may be shared by run_matrix(parallel=) worker threads;
        # every LRU read-modify (get + move_to_end) must be atomic
        self._lock = threading.RLock()
        #: diagnostic counters
        self.hits = 0
        self.misses = 0
        self.row_spills = 0
        self.row_restores = 0

    # -- mutation tracking ----------------------------------------------- #
    def invalidate(self) -> None:
        """Drop every stored distance; the next query recomputes from the graph.

        Called by :meth:`_sync` when the graph's mutation version has moved,
        and passed through by :meth:`DistanceOracle.invalidate` for callers
        that mutate through a side channel.
        """
        with self._lock:
            self._stats = None
            self._graph_version = self.graph.version
            self._rows.clear()
            self._orders.clear()
            self._all_pairs = None
            if self._spill is not None:
                self._spill.clear()

    def _sync(self) -> None:
        """Invalidate if the graph mutated since the last query.

        Every public query entry point calls this first, so the store never
        serves rows computed against a stale topology.  The check is a single
        integer comparison; concurrent mutation and querying from different
        threads is not supported (mutate, then evaluate).
        """
        if self._graph_version != self.graph.version:
            self.invalidate()

    def adopt_all_pairs(self, matrix: np.ndarray) -> None:
        """Keep the exact all-pairs matrix of the current graph version as the store."""
        with self._lock:
            self._sync()
            self._all_pairs = matrix

    def holds_all_pairs(self) -> bool:
        """Whether ``rows`` slices an all-pairs matrix held for this graph version."""
        self._sync()
        return self._all_pairs is not None

    # -- cache plumbing -------------------------------------------------- #
    def _spill_store(self):
        if self._spill is None:
            from repro.storage import SpilledRowStore

            self._spill = SpilledRowStore(self.n)
        return self._spill

    def _restore(self, u: int) -> Optional[np.ndarray]:
        """Bring a previously spilled row back into the LRU, if stored."""
        with self._lock:
            if self._spill is None:
                return None
            row = self._spill.get(u)
            if row is None:
                return None
            self.row_restores += 1
            self._insert(u, row)
            return row

    def _insert(self, u: int, row: np.ndarray) -> None:
        with self._lock:
            self._rows[u] = row
            self._rows.move_to_end(u)
            while len(self._rows) > self.cache_rows:
                evicted, evicted_row = self._rows.popitem(last=False)
                self._orders.pop(evicted, None)
                self._spill_store().put(evicted, evicted_row)
                self.row_spills += 1

    def _compute(self, sources: List[int]) -> np.ndarray:
        from repro.graphs.shortest_paths import multi_source_distances

        return multi_source_distances(self.graph, sources)

    def _cached_row(self, u: int) -> Optional[np.ndarray]:
        with self._lock:
            cached = self._rows.get(u)
            if cached is not None:
                self.hits += 1
                self._rows.move_to_end(u)
            return cached

    def row(self, u: int) -> np.ndarray:
        """Distances from ``u`` to every node (read-only; do not mutate)."""
        check_index(u, self.n, "u")
        self._sync()
        all_pairs = self._all_pairs
        if all_pairs is not None:
            self.hits += 1
            return all_pairs[u]
        cached = self._cached_row(u)
        if cached is None:
            cached = self._restore(u)
        if cached is not None:
            return cached
        self.misses += 1
        row = self._compute([u])[0]
        self._insert(u, row)
        return row

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Stacked distance rows, shape ``(len(sources), n)``."""
        self._sync()
        all_pairs = self._all_pairs
        if all_pairs is not None:
            sources = checked_sources(sources, self.n)
            self.hits += int(sources.size)
            return all_pairs[sources]
        sources = [int(s) for s in sources]
        out = np.empty((len(sources), self.n), dtype=float)
        positions: Dict[int, List[int]] = {}
        for i, s in enumerate(sources):
            positions.setdefault(s, []).append(i)
        missing: List[int] = []
        for s, idxs in positions.items():
            cached = self._cached_row(s)
            if cached is None:
                cached = self._restore(s)
            if cached is not None:
                out[idxs] = cached
            else:
                missing.append(s)
        missing.sort()
        if missing:
            self.misses += len(missing)
            # requests larger than the cache fill the output directly from
            # the computed blocks (caching them would evict rows of this very
            # request before they are ever read) and leave the LRU untouched
            cache_them = len(missing) <= self.cache_rows
            for start in range(0, len(missing), self.chunk_rows):
                chunk = missing[start:start + self.chunk_rows]
                block = self._compute(chunk)
                for local, s in enumerate(chunk):
                    out[positions[s]] = block[local]
                    if cache_them:
                        self._insert(s, block[local])
        return out

    def prefetch(self, sources: Sequence[int]) -> None:
        """Fill the cache for an upcoming round in **one** multi-source call.

        All missing rows of the hint are computed by a single vectorized
        Dijkstra kernel invocation, so a batched evaluation round (e.g. the
        lockstep engine's source set) pays one kernel launch instead of one
        cache miss per consumer step.  Hints larger than the cache would only
        churn it, so they are truncated to the capacity the cache can
        actually retain; later consumers fall back to the grouped ``rows``
        path for the remainder.
        """
        self._sync()
        if self._all_pairs is not None:
            return
        with self._lock:
            missing = sorted({int(s) for s in sources if int(s) not in self._rows})
        missing = missing[:self.cache_rows]
        missing = [s for s in missing if self._restore(s) is None]
        if not missing:
            return
        self.misses += len(missing)
        block = self._compute(missing)
        for local, s in enumerate(missing):
            # copy the row out of the block: caching a view would pin the
            # whole block in memory for as long as any one row survives
            self._insert(s, block[local].copy())

    def preferred_block(self) -> int:
        """Largest prefetch block the cache can hold at once.

        Streaming consumers size their chunks with this so a prefetch is
        never silently truncated below the chunk it serves.
        """
        return min(self.chunk_rows, self.cache_rows)

    def dist(self, u: int, v: int) -> float:
        return float(self.row(u)[v])

    def order(self, u: int) -> np.ndarray:
        """All nodes sorted by ``(dist from u, node index)`` — stable tie-break."""
        self._sync()
        with self._lock:
            cached = self._orders.get(u)
            if cached is not None:
                self._orders.move_to_end(u)
                return cached
        order = np.argsort(self.row(u), kind="stable")
        with self._lock:
            self._orders[u] = order
            while len(self._orders) > self.cache_rows:
                self._orders.popitem(last=False)
        return order

    # -- global stats ---------------------------------------------------- #
    def stats(self) -> DistanceStats:
        self._sync()
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> DistanceStats:
        # Exact stats without the historical full n-row sweep (55 minutes at
        # n=100k on one core):
        #
        # * the minimum positive distance IS the minimum edge weight — every
        #   positive distance is a sum of >= 1 positive weights >= w_min, and
        #   the w_min edge itself is a shortest path (a two-edge path already
        #   costs >= 2 w_min), finalized by Dijkstra as the literal weight;
        # * the diameter comes from eccentricity-bounds pruning (Takes &
        #   Kosters): process the node with the largest eccentricity upper
        #   bound, tighten ecc(v) <= ecc(u) + d(u, v) from its exact row, and
        #   drop every node whose bound can no longer beat the best
        #   eccentricity seen.  Tens of rows on small-world graphs, never
        #   worse than the old full sweep.
        min_weight = self.graph.min_weight()
        if not np.isfinite(min_weight) or min_weight <= 0:
            # edgeless graph: all distances are 0 or inf; the paper
            # normalizes d_min to 1
            return DistanceStats(diameter=0.0, min_positive=1.0)
        return DistanceStats(diameter=self._exact_diameter(),
                             min_positive=float(min_weight))

    def _exact_diameter(self) -> float:
        n = self.n
        upper = np.full(n, np.inf)
        active = np.ones(n, dtype=bool)
        diameter = 0.0
        first = True
        while True:
            candidates = np.flatnonzero(active)
            if candidates.size == 0:
                return diameter
            if first:
                # a high-degree node tends to be central: its small
                # eccentricity gives tight first bounds for everyone
                u = max(range(n), key=self.graph.degree)
                first = False
            else:
                u = int(candidates[np.argmax(upper[candidates])])
            row = self._compute([u])[0]
            finite = np.isfinite(row)
            ecc = float(row[finite].max()) if finite.any() else 0.0
            diameter = max(diameter, ecc)
            # one-ulp inflation: fl(ecc + d) may round below the real sum,
            # and an under-rounded bound could prune a true endpoint of the
            # diameter
            bound = np.nextafter(ecc + row[finite], np.inf)
            upper[finite] = np.minimum(upper[finite], bound)
            active[u] = False
            active &= upper > diameter

    # -- introspection --------------------------------------------------- #
    def nbytes(self) -> int:
        """Resident memory of the distance store (approximate)."""
        total = sum(r.nbytes for r in self._rows.values())
        total += sum(o.nbytes for o in self._orders.values())
        if self._all_pairs is not None:
            total += self._all_pairs.nbytes
        return int(total)

    def row_cache_report(self) -> Dict[str, object]:
        """Hit/miss/spill counters plus the spill store's own report."""
        report: Dict[str, object] = {
            "hits": int(self.hits), "misses": int(self.misses),
            "row_spills": int(self.row_spills),
            "row_restores": int(self.row_restores),
        }
        report["spill"] = (self._spill.report() if self._spill is not None
                           else None)
        return report
