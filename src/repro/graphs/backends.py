"""Pluggable distance backends for :class:`repro.graphs.shortest_paths.DistanceOracle`.

The original reproduction eagerly materialized the full O(n²) all-pairs
shortest-path matrix for every graph, which caps the system at a few thousand
nodes.  This module factors the distance store behind a small interface so the
rest of the library (decomposition, landmarks, both AGM strategies, all
baselines, covers, the simulator and the experiment harness) never touches a
raw matrix:

* :class:`DenseAPSPBackend` — the original eager matrix, unchanged semantics;
  best for small graphs where every row is needed many times.
* :class:`LazyDijkstraBackend` — per-source rows computed on demand through
  the SciPy Dijkstra kernel and kept in a bounded LRU cache, with a batched
  ``prefetch`` that fills many rows in one vectorized call.  Peak memory is
  ``O(cache_rows · n)`` instead of ``O(n²)`` while every returned distance is
  bit-identical to the dense matrix row.
* :class:`LandmarkApproxBackend` — triangle-inequality upper bounds through a
  small landmark set; inexact, meant for workload generation and sanity
  sweeps at sizes where even one Dijkstra pass per node is too slow.

Backends are selected by name or automatically from the graph size / memory
budget via :func:`resolve_backend` (see ``DistanceOracle``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.utils.validation import check_index, require

#: default node count up to which the automatic selection picks the dense
#: matrix.  At the limit the matrix plus its order cache cost ~1 GB — the
#: right trade on anything server-class, and an order of magnitude faster for
#: whole-metric construction passes than recomputing rows per pass.  Hosts
#: with tighter memory lower it via REPRO_DENSE_NODE_LIMIT.
DEFAULT_DENSE_NODE_LIMIT = 8192
#: default LRU capacity (rows) of the lazy backend
DEFAULT_CACHE_ROWS = 256
#: chunk size (sources per SciPy call) for streaming passes
DEFAULT_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DistanceStats:
    """Global scalar facts about a metric, computed once per backend."""

    diameter: float
    min_positive: float

    @property
    def aspect_ratio(self) -> float:
        if self.min_positive <= 0:
            return float("inf")
        return self.diameter / self.min_positive


def _row_stats(block: np.ndarray) -> DistanceStats:
    """Diameter / minimum positive distance contribution of a row block."""
    finite = block[np.isfinite(block)]
    diameter = float(finite.max()) if finite.size else 0.0
    positive = finite[finite > 0]
    min_positive = float(positive.min()) if positive.size else float("inf")
    return DistanceStats(diameter=diameter, min_positive=min_positive)


class DistanceBackend:
    """Interface every distance backend implements.

    A backend answers *row-shaped* questions: the full distance row of a
    source, a stable (distance, node-index) ordering of that row, and global
    scalar stats.  Everything else (balls, nearest sets, pair batches) is
    derived in ``DistanceOracle`` from these primitives, so backends stay
    small.
    """

    name: str = "abstract"
    #: whether returned distances are exact shortest-path distances
    exact: bool = True

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.n = graph.n
        self._stats: Optional[DistanceStats] = None
        self._graph_version = graph.version

    # -- mutation tracking ----------------------------------------------- #
    def invalidate(self) -> None:
        """Drop every cached distance; the next query recomputes from the graph.

        Subclasses extend this to clear their stores.  Called automatically
        (via :meth:`_sync`) when the graph's mutation version has moved, and
        available as an explicit pass-through on :class:`DistanceOracle` for
        callers that mutate through a side channel.
        """
        self._stats = None
        self._graph_version = self.graph.version

    def _sync(self) -> None:
        """Invalidate if the graph mutated since the last query.

        Every public query entry point calls this first, so a live backend
        never serves rows computed against a stale topology.  The check is a
        single integer comparison; note that concurrent mutation and querying
        from different threads is not supported (mutate, then evaluate).
        """
        if self._graph_version != self.graph.version:
            self.invalidate()

    # -- primitives ----------------------------------------------------- #
    def row(self, u: int) -> np.ndarray:
        """Distances from ``u`` to every node (read-only; do not mutate)."""
        raise NotImplementedError

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Stacked distance rows, shape ``(len(sources), n)``."""
        raise NotImplementedError

    def order(self, u: int) -> np.ndarray:
        """All nodes sorted by ``(dist from u, node index)`` — stable tie-break."""
        raise NotImplementedError

    def prefetch(self, sources: Sequence[int]) -> None:
        """Hint that the rows of ``sources`` are about to be queried.

        Part of the backend protocol: callers issue one ``prefetch`` per
        evaluation round (all sources at once) so a backend can batch the
        fill into a single multi-source computation.  The default is a no-op
        (the dense backend already holds every row).
        """

    def preferred_block(self) -> int:
        """Largest prefetch block this backend can actually hold at once.

        Streaming consumers size their chunks with this so a prefetch is
        never silently truncated below the chunk it serves.
        """
        return DEFAULT_CHUNK_ROWS

    def dist(self, u: int, v: int) -> float:
        return float(self.row(u)[v])

    # -- global stats ---------------------------------------------------- #
    def _compute_stats(self) -> DistanceStats:
        raise NotImplementedError

    def stats(self) -> DistanceStats:
        self._sync()
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    # -- introspection --------------------------------------------------- #
    def nbytes(self) -> int:
        """Resident memory of the distance store (approximate)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n})"


class DenseAPSPBackend(DistanceBackend):
    """The original eager all-pairs matrix (plus the eager stable argsort)."""

    name = "dense"

    def __init__(self, graph: WeightedGraph, matrix: Optional[np.ndarray] = None) -> None:
        super().__init__(graph)
        self._matrix: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._order_rows: Dict[int, np.ndarray] = {}
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            require(matrix.shape == (graph.n, graph.n),
                    "distance matrix shape does not match the graph")
            self._matrix = matrix
        self._ensure()

    def _ensure(self) -> None:
        if self._matrix is None:
            # refuse, with a clear error, any path that would materialize an
            # n×n float64 matrix past the dense limit — an OOM kill reports
            # nothing, and auto-selection would never have picked dense here.
            # A caller-supplied matrix (set in __init__) bypasses this: the
            # memory is already paid for.
            limit = dense_node_limit()
            if self.n > limit:
                raise ValueError(
                    f"dense APSP backend refused: n={self.n} exceeds the "
                    f"dense node limit {limit} (the matrix would take "
                    f"{8 * self.n * self.n / 2**30:.1f} GiB). Use the 'lazy' "
                    f"backend, pass a precomputed matrix, or raise "
                    f"REPRO_DENSE_NODE_LIMIT.")
            # local import: shortest_paths imports this module at load time
            from repro.graphs.shortest_paths import all_pairs_distances

            self._matrix = all_pairs_distances(self.graph)

    def _ensure_order(self) -> None:
        # computed on first order() query: whole-matrix consumers (ball
        # tables, cover construction) never need it, and the n² log n argsort
        # rivals the APSP itself in cost
        if self._order is None:
            # argsort is stable for equal keys, so sorting by distance with
            # node index as the implicit secondary key realizes the
            # lexicographic tie-break of Definition N(u, m, Z).
            self._order = np.argsort(self.matrix, axis=1, kind="stable")
            self._order_rows.clear()  # per-row cache now duplicates _order

    def invalidate(self) -> None:
        super().invalidate()
        self._matrix = None
        self._order = None
        self._order_rows.clear()

    @property
    def matrix(self) -> np.ndarray:
        """The full APSP matrix, recomputed lazily after graph mutation."""
        self._sync()
        self._ensure()
        return self._matrix

    def row(self, u: int) -> np.ndarray:
        return self.matrix[u]

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        return self.matrix[np.asarray(list(sources), dtype=np.int64)]

    def order(self, u: int) -> np.ndarray:
        self._sync()
        if self._order is not None:
            return self._order[u]
        # a few callers (e.g. per-landmark nearest sets) only ever order a
        # handful of rows; argsort those individually and escalate to the
        # full-matrix order only when demand shows it pays for itself
        cached = self._order_rows.get(u)
        if cached is not None:
            return cached
        if len(self._order_rows) * 8 >= self.n:
            self._ensure_order()
            return self._order[u]
        row_order = np.argsort(self.matrix[u], kind="stable")
        self._order_rows[u] = row_order
        return row_order

    def dist(self, u: int, v: int) -> float:
        return float(self.matrix[u, v])

    def _compute_stats(self) -> DistanceStats:
        stats = _row_stats(self.matrix)
        if not np.isfinite(stats.min_positive):
            # no positive finite distance at all (edgeless graph): the paper
            # normalizes d_min to 1
            stats = DistanceStats(diameter=stats.diameter, min_positive=1.0)
        return stats

    def nbytes(self) -> int:
        self._ensure()
        total = int(self._matrix.nbytes)
        if self._order is not None:
            total += int(self._order.nbytes)
        return total


class LazyDijkstraBackend(DistanceBackend):
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
    """

    name = "lazy"

    def __init__(self, graph: WeightedGraph, cache_rows: int = DEFAULT_CACHE_ROWS,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        super().__init__(graph)
        require(cache_rows >= 1, "cache_rows must be >= 1")
        require(chunk_rows >= 1, "chunk_rows must be >= 1")
        self.cache_rows = int(cache_rows)
        self.chunk_rows = int(chunk_rows)
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._orders: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._spill = None  # created on first eviction
        # one backend may be shared by run_matrix(parallel=) worker threads;
        # every LRU read-modify (get + move_to_end) must be atomic
        self._lock = threading.RLock()
        #: diagnostic counters
        self.hits = 0
        self.misses = 0
        self.row_spills = 0
        self.row_restores = 0

    def invalidate(self) -> None:
        with self._lock:
            super().invalidate()
            self._rows.clear()
            self._orders.clear()
            if self._spill is not None:
                self._spill.clear()

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
        check_index(u, self.n, "u")
        self._sync()
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
        self._sync()
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
        return min(self.chunk_rows, self.cache_rows)

    def order(self, u: int) -> np.ndarray:
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
            # normalizes d_min to 1 (mirrors the dense fallback)
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

    def nbytes(self) -> int:
        total = sum(r.nbytes for r in self._rows.values())
        total += sum(o.nbytes for o in self._orders.values())
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


class LandmarkApproxBackend(DistanceBackend):
    """Triangle-inequality upper bounds ``min_l d(u,l) + d(l,v)`` over landmarks.

    Landmarks are chosen by the farthest-point (maxmin) heuristic, which gives
    good coverage of the metric with a handful of Dijkstra passes.  Distances
    are exact when either endpoint is a landmark and never underestimate;
    intended for workload generation / triage at large ``n``, not for routing
    guarantees (``exact`` is False and scheme construction refuses it).
    """

    name = "landmark"
    exact = False

    def __init__(self, graph: WeightedGraph, num_landmarks: int = 16, seed: int = 0) -> None:
        super().__init__(graph)
        require(num_landmarks >= 1, "num_landmarks must be >= 1")
        from repro.graphs.shortest_paths import multi_source_distances, single_source_distances

        num_landmarks = min(int(num_landmarks), self.n)
        first = int(seed) % self.n
        landmarks = [first]
        # maxmin with still-uncovered components kept at +inf, so every
        # component receives a landmark before any component gets a second
        # one — otherwise nodes outside the first landmark's component would
        # estimate inf for their own intra-component distances
        closest = single_source_distances(graph, first).copy()
        closest[first] = 0.0
        while len(landmarks) < num_landmarks:
            candidate = int(np.argmax(closest))
            if closest[candidate] <= 0:
                break  # every node is itself a landmark already
            landmarks.append(candidate)
            reach = single_source_distances(graph, candidate)
            closest = np.minimum(closest, reach)
            closest[candidate] = 0.0
        self.landmarks = landmarks
        self._landmark_rows = np.atleast_2d(multi_source_distances(graph, landmarks))
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_rows = DEFAULT_CACHE_ROWS
        # same sharing model as the lazy backend: one instance may serve
        # several worker threads, so LRU read-modify must be atomic
        self._lock = threading.RLock()

    def invalidate(self) -> None:
        """Recompute the landmark rows (same landmark set) and drop the cache."""
        from repro.graphs.shortest_paths import multi_source_distances

        with self._lock:
            super().invalidate()
            self._landmark_rows = np.atleast_2d(
                multi_source_distances(self.graph, self.landmarks))
            self._cache.clear()

    @property
    def landmark_rows(self) -> np.ndarray:
        """Exact ``(num_landmarks, n)`` distance rows landmark -> node.

        Version-synced read-only view; the ``landmark`` traffic-scoring mode
        derives its ALT lower bounds from these rows.
        """
        self._sync()
        return self._landmark_rows

    def row(self, u: int) -> np.ndarray:
        check_index(u, self.n, "u")
        self._sync()
        with self._lock:
            cached = self._cache.get(u)
            if cached is not None:
                self._cache.move_to_end(u)
                return cached
        to_u = self._landmark_rows[:, u]
        row = np.min(to_u[:, None] + self._landmark_rows, axis=0)
        row[u] = 0.0
        with self._lock:
            self._cache[u] = row
            while len(self._cache) > self._cache_rows:
                self._cache.popitem(last=False)
        return row

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        return np.vstack([self.row(int(s)) for s in sources])

    def order(self, u: int) -> np.ndarray:
        return np.argsort(self.row(u), kind="stable")

    def _compute_stats(self) -> DistanceStats:
        finite = self._landmark_rows[np.isfinite(self._landmark_rows)]
        diameter = float(finite.max()) if finite.size else 0.0
        min_weight = self.graph.min_weight()
        min_positive = float(min_weight) if np.isfinite(min_weight) else 1.0
        return DistanceStats(diameter=diameter, min_positive=min_positive)

    def nbytes(self) -> int:
        return int(self._landmark_rows.nbytes
                   + sum(r.nbytes for r in self._cache.values()))


#: names accepted by :func:`resolve_backend`
BACKEND_NAMES = ("auto", "dense", "lazy", "landmark")

BackendLike = Union[str, DistanceBackend, None]


def dense_node_limit() -> int:
    """Node count above which automatic selection switches away from dense."""
    raw = os.environ.get("REPRO_DENSE_NODE_LIMIT")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_DENSE_NODE_LIMIT


def resolve_backend(graph: WeightedGraph, backend: BackendLike = None,
                    **kwargs) -> DistanceBackend:
    """Turn a backend spec (instance, name, ``None``/"auto") into an instance.

    ``None``/"auto" consults ``REPRO_DISTANCE_BACKEND`` and then picks dense
    for graphs up to :func:`dense_node_limit` nodes, lazy beyond it.
    """
    if isinstance(backend, DistanceBackend):
        require(backend.graph is graph, "backend was built for a different graph")
        return backend
    name = (backend or os.environ.get("REPRO_DISTANCE_BACKEND") or "auto").lower()
    if name == "auto":
        name = "dense" if graph.n <= dense_node_limit() else "lazy"
    if name == "dense":
        return DenseAPSPBackend(graph, **kwargs)
    if name == "lazy":
        return LazyDijkstraBackend(graph, **kwargs)
    if name == "landmark":
        return LandmarkApproxBackend(graph, **kwargs)
    raise ValueError(f"unknown distance backend {backend!r}; choose from {BACKEND_NAMES}")
