"""Shortest paths, balls, and shortest-path trees.

Two engines are provided:

* a pure-Python binary-heap Dijkstra (:func:`dijkstra`) that also returns the
  predecessor array and supports a *cutoff* radius and a *restriction* to a
  node subset — both are needed when growing balls and building cluster trees
  inside induced subgraphs;
* batch engines built on :func:`scipy.sparse.csgraph.dijkstra`: multi-source
  rows (:func:`multi_source_distances`), the same rows under a shared
  distance limit (:func:`limited_dijkstra`), and the distance-plus-predecessor
  forest of :meth:`DistanceOracle.shortest_path_forest`.  The SciPy kernel is
  ~40x faster than the Python loop for the graph sizes used in the benches.

:class:`DistanceOracle` answers the ball / nearest-set queries (``B(u, r)``
and ``N(u, m, Z)``) that the paper's definitions use.  It is a thin façade
over :class:`repro.graphs.backends.LazyDijkstraBackend`, the one exact
distance store, so every oracle a routing scheme is built from is exact.  A
forest pass from every node leaves its all-pairs matrix in the store until
the next mutation; :func:`forest_block_size` decides when one such pass fits
in memory.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.graphs.backends import LazyDijkstraBackend, checked_sources
from repro.graphs.graph import WeightedGraph
from repro.graphs.trees import Tree, build_forest
from repro.storage import memory_budget
from repro.utils.validation import check_index, require


def dijkstra(
    graph: WeightedGraph,
    source: int,
    cutoff: Optional[float] = None,
    allowed: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths.

    Parameters
    ----------
    graph:
        The graph.
    source:
        Source node index.
    cutoff:
        If given, nodes farther than ``cutoff`` are left at ``inf``.
    allowed:
        If given, the search is restricted to this node subset (the source
        must belong to it); other nodes are treated as removed.

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the distance from ``source`` (``inf`` if unreachable
        under the restrictions) and ``parent[v]`` the predecessor on a
        shortest path (``-1`` for the source and unreachable nodes).
    """
    check_index(source, graph.n, "source")
    dist = np.full(graph.n, np.inf)
    parent = np.full(graph.n, -1, dtype=np.int64)
    allowed_mask: Optional[np.ndarray] = None
    if allowed is not None:
        allowed_mask = np.zeros(graph.n, dtype=bool)
        for v in allowed:
            allowed_mask[v] = True
        require(allowed_mask[source], "source must be inside the allowed set")
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in graph.neighbors(u):
            if allowed_mask is not None and not allowed_mask[v]:
                continue
            nd = d + w
            if cutoff is not None and nd > cutoff + 1e-12:
                continue
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def single_source_distances(graph: WeightedGraph, source: int) -> np.ndarray:
    """Distances from one source using the SciPy kernel."""
    check_index(source, graph.n, "source")
    mat = graph.to_scipy_csr()
    return _scipy_dijkstra(mat, directed=False, indices=source)


def all_pairs_distances(graph: WeightedGraph) -> np.ndarray:
    """All-pairs shortest-path distance matrix (``inf`` across components).

    The library itself never calls it: builds go through
    :class:`DistanceOracle`.  It stays exported as the independent reference
    that tests compare the oracle's rows, balls and orders against.
    """
    mat = graph.to_scipy_csr()
    if graph.num_edges == 0:
        out = np.full((graph.n, graph.n), np.inf)
        np.fill_diagonal(out, 0.0)
        return out
    return _scipy_dijkstra(mat, directed=False)


def multi_source_distances(graph: WeightedGraph, sources: Sequence[int]) -> np.ndarray:
    """Distance matrix restricted to the given source rows."""
    sources = list(sources)
    for s in sources:
        check_index(s, graph.n, "source")
    if not sources:
        return np.zeros((0, graph.n))
    mat = graph.to_scipy_csr()
    out = _scipy_dijkstra(mat, directed=False, indices=sources)
    return np.atleast_2d(out)


def limited_dijkstra(csr, sources: Sequence[int], limit: Optional[float] = None,
                     predecessors: bool = False):
    """Multi-source Dijkstra rows under one shared distance limit.

    The single place the limit margin lives: a node at exactly the limit must
    still be finalized, so the bound is widened by one relative + absolute
    epsilon before reaching the kernel.  ``limit=None`` (or ``inf``) runs
    unbounded.  Returns ``rows`` or ``(rows, preds)`` as 2-D arrays.
    """
    limit_arg = np.inf
    if limit is not None and np.isfinite(limit):
        limit_arg = float(limit) * (1.0 + 1e-12) + 1e-12
    out = _scipy_dijkstra(csr, directed=False, indices=list(sources),
                          return_predecessors=predecessors, limit=limit_arg)
    if predecessors:
        return np.atleast_2d(out[0]), np.atleast_2d(out[1])
    return np.atleast_2d(out)


def forest_block_size(n: int) -> int:
    """Sources per :meth:`DistanceOracle.shortest_path_forest` call.

    Budget-aware: one in-flight block costs ~``n * 12`` bytes per source
    (float64 distance row + int32 predecessor row), and the cap keeps that
    slab under a quarter of ``REPRO_MEMORY_BUDGET``.  When one block covers
    all ``n`` sources, its distance rows are the all-pairs matrix that the
    lazy backend holds until the next mutation: at most 4096² float64
    (128 MiB).
    """
    budget = memory_budget()
    slab = (4 << 30) if budget is None else budget // 4
    per_source = max(n, 1) * 12
    return int(min(4096, max(64, slab // per_source)))


def shortest_path_tree(
    graph: WeightedGraph,
    root: int,
    members: Optional[Sequence[int]] = None,
    within: Optional[Sequence[int]] = None,
) -> Tree:
    """Shortest-path tree rooted at ``root``.

    Parameters
    ----------
    members:
        If given, the tree is pruned to the union of shortest paths from the
        root to these nodes (the root is always included).  This is how the
        paper's trees ``T(c)`` "span all nodes v such that c in S(v)": the
        tree contains the members plus the intermediate nodes on their
        shortest paths.
    within:
        If given, the shortest paths are computed inside the induced subgraph
        on this node set (used for cluster trees of the sparse cover).
    """
    if within is None and graph.num_edges > 0:
        # unrestricted case: the SciPy kernel returns distances and
        # predecessors in one call, ~40x faster than the Python heap for the
        # tree fan-outs of the sparse strategy and the baselines
        check_index(root, graph.n, "root")
        dist, parent = _scipy_dijkstra(graph.to_scipy_csr(), directed=False,
                                       indices=root, return_predecessors=True)
        parent = np.where(parent < 0, -1, parent).astype(np.int64)
    else:
        dist, parent = dijkstra(graph, root, allowed=within)
    reachable = np.where(np.isfinite(dist))[0]
    if members is None:
        keep = set(int(v) for v in reachable)
    else:
        keep = {int(root)}
        for v in members:
            v = int(v)
            if not np.isfinite(dist[v]):
                continue
            while v != -1 and v not in keep:
                keep.add(v)
                v = int(parent[v])
    nodes = np.asarray(sorted(keep), dtype=np.int64)
    parents = np.where(nodes == root, -1, parent[nodes])
    weights = [graph.edge_weight(int(p), int(v)) if p >= 0 else 0.0
               for v, p in zip(nodes, parents)]
    return build_forest([root], np.zeros(nodes.size, dtype=np.int64), nodes,
                        parents, weights)[0]


class DistanceOracle:
    """Ball / nearest-set queries of the paper over the exact distance store.

    The oracle owns a :class:`LazyDijkstraBackend` and derives every query
    (``B(u, r)``, ``N(u, m, Z)``, pair batches, global stats) from its row /
    order primitives.  The per-source ordering of all nodes by
    (distance, node-index) realizes the paper's lexicographic tie-break for
    ``N(u, m, Z)``.

    Parameters
    ----------
    graph:
        The graph.
    backend:
        ``None`` or ``"lazy"`` for a store with the default cache sizes, or a
        :class:`LazyDijkstraBackend` built for ``graph``.  Anything else
        raises ``ValueError``.
    """

    def __init__(self, graph: WeightedGraph,
                 backend: Union[str, LazyDijkstraBackend, None] = None) -> None:
        if backend is None or backend == "lazy":
            backend = LazyDijkstraBackend(graph)
        if not isinstance(backend, LazyDijkstraBackend):
            raise ValueError(f"unknown distance backend {backend!r}; pass "
                             f"None, 'lazy' or a LazyDijkstraBackend")
        require(backend.graph is graph, "backend was built for a different graph")
        self.graph = graph
        self.backend = backend

    def nbytes(self) -> int:
        """Resident memory of the distance store (approximate)."""
        return self.backend.nbytes()

    def invalidate(self) -> None:
        """Explicitly drop cached distances (pass-through to the backend).

        Normally unnecessary: the store watches ``graph.version`` and self-heals
        on the next query after any mutation through the ``WeightedGraph``
        API.  This hook exists for callers that mutate the topology through a
        side channel the version counter cannot see.
        """
        self.backend.invalidate()

    # -- plain distance queries ---------------------------------------- #
    def dist(self, u: int, v: int) -> float:
        """Shortest-path distance between ``u`` and ``v``."""
        return self.backend.dist(u, v)

    def row(self, u: int) -> np.ndarray:
        """All distances from ``u`` (read-only; do not mutate)."""
        return self.backend.row(u)

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Stacked distance rows for ``sources``, shape ``(len, n)``."""
        return self.backend.rows(sources)

    def prefetch(self, sources: Sequence[int]) -> None:
        """Hint that the rows of ``sources`` are about to be queried (batched fill)."""
        self.backend.prefetch(sources)

    def shortest_path_forest(self, sources: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Distances and predecessors from ``sources`` in one Dijkstra pass.

        ``(dist, pred)``, both ``(len(sources), n)``, equal SciPy's undirected
        output bit for bit; ``pred`` is negative at each source and at
        unreachable nodes.  When ``sources`` is every node in order, the
        backend keeps ``dist`` as its store for the current graph version
        (:meth:`LazyDijkstraBackend.adopt_all_pairs`), so do not mutate it.
        """
        n = self.graph.n
        sources = checked_sources(sources, n)
        # free what the backend holds for an older graph version (after a
        # churn event, a whole stale store) before allocating the new forest
        self.backend._sync()
        # to_scipy_csr() is symmetric by construction, so the directed kernel
        # finds the same forest without transposing the matrix and scanning
        # every edge twice
        dist, pred = _scipy_dijkstra(self.graph.to_scipy_csr(), directed=True,
                                     indices=sources, return_predecessors=True)
        dist, pred = np.atleast_2d(dist), np.atleast_2d(pred)
        if sources.size == n and np.array_equal(sources, np.arange(n)):
            self.backend.adopt_all_pairs(dist)
        return dist, pred

    def hold_all_pairs(self) -> None:
        """Leave this graph version's all-pairs matrix in the backend, if it fits.

        For builds that read every row, several times over -- the AGM build
        (decomposition, sparse centers and bounds, whole-graph ``G_j``
        covers) and the Awerbuch--Peleg scales: one
        :meth:`shortest_path_forest` from every node, run only when a single
        :func:`forest_block_size` block covers all ``n`` sources and the
        backend holds no matrix yet.  Above that size the call does nothing,
        and :meth:`rows_within` keeps computing radius-limited rows.
        """
        n = self.graph.n
        if n and forest_block_size(n) >= n and not self.backend.holds_all_pairs():
            self.shortest_path_forest(np.arange(n))

    def rows_within(self, sources: Sequence[int], limit: float) -> np.ndarray:
        """Distance rows of ``sources``, exact at least up to ``limit``.

        Entries beyond ``limit`` are exact or ``inf``.  A store holding the
        all-pairs matrix of the current graph version serves the rows as
        slices; otherwise one radius-limited kernel call computes them, so a
        small limit makes it a union of local searches rather than full
        Dijkstras.  Nothing is cached.
        """
        if self.backend.holds_all_pairs():
            return self.backend.rows(sources)
        sources = checked_sources(sources, self.graph.n)
        return limited_dijkstra(self.graph.to_scipy_csr(), sources, limit)

    def block_rows(self) -> int:
        """Preferred chunk size for streaming row access."""
        return self.backend.preferred_block()

    def iter_row_blocks(self, block: Optional[int] = None) -> Iterator[Tuple[List[int], np.ndarray]]:
        """Stream ``(source_indices, row_block)`` over all sources in order.

        The canonical way to run a whole-metric computation without holding
        O(n²) memory.  The default block size matches the store's chunking
        so streamed requests stay cache-aligned.
        """
        if block is None:
            block = self.block_rows()
        n = self.graph.n
        for start in range(0, n, block):
            chunk = list(range(start, min(start + block, n)))
            yield chunk, self.backend.rows(chunk)

    def iter_prefetched_chunks(self, items: Sequence, source=None) -> Iterator[List]:
        """Stream ``items`` in backend-sized chunks, prefetching rows per chunk.

        ``source`` maps an item to the node index whose row the loop body will
        query (identity by default).  This is the shared shape of every
        "prefetch then consume" loop in the layers above ``graphs/``; sizing
        the chunks here guarantees a prefetch is never truncated below the
        chunk it serves.
        """
        items = list(items)
        block = self.block_rows()
        for start in range(0, len(items), block):
            chunk = items[start:start + block]
            if source is None:
                self.prefetch(chunk)
            else:
                self.prefetch(sorted({source(item) for item in chunk}))
            yield chunk

    def pair_distances(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Vectorized ``d(sources[i], targets[i])`` for parallel index arrays."""
        us = np.asarray(list(sources), dtype=np.int64)
        vs = np.asarray(list(targets), dtype=np.int64)
        require(us.shape == vs.shape, "sources and targets must have equal length")
        if us.size == 0:
            return np.zeros(0)
        out = np.empty(us.size)
        # group the batch into per-source runs once (O(B log B)) instead of
        # rescanning the whole source array per unique source
        order = np.argsort(us, kind="stable")
        us_sorted = us[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], us_sorted[1:] != us_sorted[:-1])))
        run_ends = np.concatenate((run_starts[1:], [us.size]))
        runs = list(zip(us_sorted[run_starts].tolist(),
                        run_starts.tolist(), run_ends.tolist()))
        for chunk in self.iter_prefetched_chunks(runs, source=lambda run: run[0]):
            for s, start, end in chunk:
                indices = order[start:end]
                out[indices] = self.backend.row(int(s))[vs[indices]]
        return out

    def eccentricity(self, u: int) -> float:
        """Largest finite distance from ``u``."""
        row = self.backend.row(u)
        finite = row[np.isfinite(row)]
        return float(finite.max()) if finite.size else 0.0

    def diameter(self) -> float:
        """Largest finite pairwise distance."""
        return self.backend.stats().diameter

    def min_positive_distance(self) -> float:
        """Smallest nonzero pairwise distance (the paper normalizes this to 1)."""
        return self.backend.stats().min_positive

    def aspect_ratio(self) -> float:
        """Aspect ratio Δ = max distance / min positive distance."""
        return self.backend.stats().aspect_ratio

    # -- balls and nearest sets ----------------------------------------- #
    def ball_indices(self, u: int, radius: float) -> np.ndarray:
        """``B(u, r)`` as a sorted index array (zero-copy hot-path variant)."""
        row = self.backend.row(u)
        return np.where(row <= radius + 1e-12)[0]

    def ball(self, u: int, radius: float) -> List[int]:
        """``B(u, r)``: nodes within distance ``radius`` of ``u`` (inclusive)."""
        return [int(v) for v in self.ball_indices(u, radius)]

    def ball_size(self, u: int, radius: float) -> int:
        """``|B(u, r)|``."""
        return int(np.count_nonzero(self.backend.row(u) <= radius + 1e-12))

    def nodes_by_distance(self, u: int) -> np.ndarray:
        """All nodes sorted by (distance from u, node index)."""
        return self.backend.order(u)

    def nearest(self, u: int, m: int, candidates: Optional[Sequence[int]] = None) -> List[int]:
        """``N(u, m, Z)``: the ``m`` closest nodes of ``Z`` to ``u``.

        Ties are broken by node index (the lexicographic order of the paper).
        Unreachable nodes are never returned.  If fewer than ``m`` candidates
        are reachable, all of them are returned.
        """
        if m <= 0:
            return []
        row = self.backend.row(u)
        if candidates is None:
            # the order array puts unreachable nodes last, so the m closest
            # reachable nodes are simply its finite prefix
            order = self.backend.order(u)
            reachable = int(np.count_nonzero(np.isfinite(row)))
            return [int(v) for v in order[:min(m, reachable)]]
        cand = np.unique(np.asarray(list(candidates), dtype=np.int64))
        if cand.size == 0:
            return []
        dists = row[cand]
        finite = np.isfinite(dists)
        cand, dists = cand[finite], dists[finite]
        # lexsort's last key is primary: sort by distance, then node index
        # (cand is sorted, realizing the paper's lexicographic tie-break)
        ranked = cand[np.lexsort((cand, dists))]
        return [int(v) for v in ranked[:m]]

    def nearest_member(self, members: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """For every node, its closest member of ``members`` plus the distance.

        Returns ``(ids, dists)`` of length ``n``.  Ties are broken by member
        node index (the paper's lexicographic rule): members are sorted here,
        so ``argmin``'s first-occurrence rule picks the smallest id — callers
        don't need to maintain the sortedness invariant themselves.  This is
        the batched sibling of ``nearest(u, 1, members)`` used by the
        landmark/pivot selections of the baselines.
        """
        members_arr = np.asarray(sorted(set(int(v) for v in members)), dtype=np.int64)
        require(members_arr.size > 0, "nearest_member needs at least one member")
        n = self.graph.n
        columns = np.arange(n)
        # chunk-wise running argmin keeps memory at O(block · n) even for
        # member sets of size ~n; strict '<' preserves the lexicographic
        # tie-break because chunks ascend by member id
        best_ids = np.full(n, int(members_arr[0]), dtype=np.int64)
        best_dists = np.full(n, np.inf)
        for chunk in self.iter_prefetched_chunks(members_arr):
            chunk_arr = np.asarray(chunk, dtype=np.int64)
            rows = self.backend.rows(chunk_arr)
            local_best = np.argmin(rows, axis=0)
            local_dists = rows[local_best, columns]
            better = local_dists < best_dists
            best_ids[better] = chunk_arr[local_best[better]]
            best_dists[better] = local_dists[better]
        return best_ids, best_dists

    def farthest_of(self, u: int, nodes: Sequence[int]) -> float:
        """Largest distance from ``u`` to any node in ``nodes`` (0 if empty)."""
        nodes = list(nodes)
        if not nodes:
            return 0.0
        row = self.backend.row(u)
        return float(max(row[v] for v in nodes))
