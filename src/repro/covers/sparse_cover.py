"""Sparse covers by ball coarsening (Awerbuch–Peleg style).

Lemma 6 needs, for a graph ``G``, integer ``k`` and radius ``rho``, a
collection of clusters such that

* (cover) every ball ``B(v, rho)`` is fully contained in some cluster,
* (sparse) every node belongs to ``O(k n^{1/k})`` clusters,
* (small radius) every cluster has radius ``O(k) * rho`` around its center,
* (small edges) cluster spanning trees only use edges of weight ``<= 2 rho``.

The construction coarsens the initial cover ``{B(v, rho) : v}``: repeatedly
pick an uncovered ball, merge into it all still-unprocessed balls that touch
the growing cluster, and stop growing as soon as one more layer would not
multiply the number of merged *kernel* balls by ``n^{1/k}`` — so at most
``k`` growth layers happen and the radius stays ``O(k rho)``.  Balls merged
into the kernel are removed permanently (their cover obligation is met);
balls that merely touch the final cluster stay pending for later clusters,
and are skipped for the remainder of the current *phase* so that the clusters
produced within one phase stay (kernel-)disjoint, which is what bounds the
per-node membership.

The coarsening is array-native and comes in two forms that produce
identical clusters in identical order; :func:`_choose_cover_mode` picks one
from sampled ball sizes.  In the csr form, balls arrive as flat CSR arrays
(one streamed row-block pass over the oracle), the ball→center incidence is
transposed once, and each cluster's "which pending balls touch me" query is
a gather over the transposed CSR restricted to the cluster's newly absorbed
nodes — stamped visit arrays stand in for per-cluster set algebra.  The
regions form never builds the ball table: clusters grow as min-only
Dijkstra regions.  ``TestCoverModeParity`` asserts the two forms agree, and
the golden build digests pin their output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.construction.context import BuildContext
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.utils.validation import require

@dataclass
class Cluster:
    """One output cluster: its member nodes, kernel centers, and designated center."""

    index: int
    center: int
    nodes: Set[int]
    kernel_centers: Set[int] = field(default_factory=set)


@dataclass
class SparseCover:
    """The result of the coarsening: clusters plus the home-cluster map."""

    k: int
    rho: float
    clusters: List[Cluster]
    #: for each node, the index of the cluster that covers its rho-ball
    home: Dict[int, int]

    def membership_counts(self, n: int) -> np.ndarray:
        """Number of clusters containing each node (length-``n`` int array)."""
        if not self.clusters:
            return np.zeros(n, dtype=np.int64)
        members = np.concatenate([
            np.fromiter(cluster.nodes, dtype=np.int64, count=len(cluster.nodes))
            for cluster in self.clusters])
        return np.bincount(members, minlength=n)

    def max_membership(self, n: int) -> int:
        """Largest number of clusters any node belongs to."""
        counts = self.membership_counts(n)
        return int(counts.max()) if counts.size else 0

    def cluster_of_home(self, v: int) -> Cluster:
        """The cluster guaranteed to contain ``B(v, rho)``."""
        return self.clusters[self.home[v]]


def build_sparse_cover(
    graph: WeightedGraph,
    k: int,
    rho: float,
    oracle: Optional[DistanceOracle] = None,
    context: Optional[BuildContext] = None,
) -> SparseCover:
    """Coarsen the ball cover ``{B(v, rho)}`` of ``graph`` into a sparse cover.

    Parameters
    ----------
    graph, k, rho:
        As in Lemma 6.
    oracle:
        Optional pre-computed distance oracle of ``graph``.
    context:
        Optional shared :class:`BuildContext` (streams the ball table through
        its oracle).
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    require(rho > 0, f"rho must be positive, got {rho}")
    if context is None:
        context = BuildContext(graph, oracle=oracle)
    growth = max(graph.n, 2) ** (1.0 / k)
    if _choose_cover_mode(graph, k, rho) == "regions":
        return _coarsen_regions(graph, k, rho, growth)
    indptr, indices = context.ball_csr(rho)
    return _coarsen_vectorized(graph.n, k, rho, growth, indptr, indices)


# --------------------------------------------------------------------------- #
# vectorized coarsening
# --------------------------------------------------------------------------- #
def _gather_csr(indptr: np.ndarray, data: np.ndarray,
                positions: np.ndarray) -> np.ndarray:
    """Concatenate ``data[indptr[p]:indptr[p+1]]`` over ``positions``, no loop."""
    if positions.size == 0:
        return np.zeros(0, dtype=data.dtype)
    if positions.size == 1:
        p = int(positions[0])
        return data[indptr[p]:indptr[p + 1]]
    starts = indptr[positions]
    counts = indptr[positions + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=data.dtype)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return data[np.repeat(starts, counts) + offsets]


def _coarsen_vectorized(n: int, k: int, rho: float, growth: float,
                        indptr: np.ndarray, indices: np.ndarray) -> SparseCover:
    """CSR/stamp implementation of the coarsening loop.

    Each cluster starts at the smallest pending center, grows while a layer
    multiplies its kernel by ``growth``, and drops every ball it touched
    from the current phase.  Stamp arrays stand in for set algebra:
    ``node_stamp[g] == cluster_id`` means node ``g`` is in the growing
    cluster, and the transposed ball incidence answers "which pending balls
    touch the nodes this layer absorbed" with one gather per layer.
    """
    # transpose of the ball incidence: owners_of[g] = centers p with g in
    # ball(p)
    member_order = np.argsort(indices, kind="stable")
    owners = np.repeat(np.arange(n, dtype=np.int64),
                       np.diff(indptr))[member_order]
    owned_nodes = indices[member_order]
    owners_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(owned_nodes, minlength=n))))

    remaining = np.ones(n, dtype=bool)
    pending = np.zeros(n, dtype=bool)
    node_stamp = np.full(n, -1, dtype=np.int64)     # node in current cluster
    touch_stamp = np.full(n, -1, dtype=np.int64)    # ball touches current cluster
    merged_stamp = np.full(n, -1, dtype=np.int64)   # ball already absorbed

    clusters: List[Cluster] = []
    home: Dict[int, int] = {}
    remaining_count = n

    def absorb(cid: int, positions: np.ndarray,
               members_out: List[np.ndarray], mark: bool = False) -> np.ndarray:
        """Merge the balls of ``positions`` into cluster ``cid``.

        Returns the globally-new nodes; ``members_out`` accumulates them so
        the final member list needs no mask scan.  With ``mark`` the owning
        balls of every new node are stamped as touching the cluster (the
        growth layers need it; the final absorb does not).
        """
        fresh_balls = positions[merged_stamp[positions] != cid]
        if fresh_balls.size == 0:
            return np.zeros(0, dtype=np.int64)
        merged_stamp[fresh_balls] = cid
        if fresh_balls.size == 1:
            # one ball is already sorted and duplicate-free
            p = int(fresh_balls[0])
            candidates = indices[indptr[p]:indptr[p + 1]]
        else:
            candidates = np.unique(_gather_csr(indptr, indices, fresh_balls))
        new_nodes = candidates[node_stamp[candidates] != cid]
        node_stamp[new_nodes] = cid
        members_out.append(new_nodes)
        if mark:
            mark_touching(cid, new_nodes)
        return new_nodes

    def mark_touching(cid: int, new_nodes: np.ndarray) -> None:
        touch_stamp[_gather_csr(owners_indptr, owners, new_nodes)] = cid

    while remaining_count:
        pending[:] = remaining
        pending_count = int(remaining_count)
        cursor = 0
        while pending_count:
            # v = the smallest pending center
            cursor += int(np.argmax(pending[cursor:]))
            v = cursor
            cid = len(clusters)
            kernel = np.asarray([v], dtype=np.int64)
            members_parts: List[np.ndarray] = []
            absorb(cid, kernel, members_parts, mark=True)
            for _ in range(k + 1):
                touching = np.flatnonzero((touch_stamp == cid) & pending)
                touch_set = np.union1d(touching, kernel)
                if touch_set.size < growth * kernel.size:
                    # final layer: absorb the touching balls into the cluster
                    # body, but only the current kernel is considered covered
                    absorb(cid, touch_set, members_parts)
                    member_nodes = np.concatenate(members_parts) \
                        if members_parts else np.zeros(0, dtype=np.int64)
                    clusters.append(Cluster(
                        index=cid, center=int(v),
                        nodes=set(member_nodes.tolist()),
                        kernel_centers=set(kernel.tolist())))
                    for c in kernel.tolist():
                        home[c] = cid
                    remaining[kernel] = False
                    remaining_count -= kernel.size
                    dropped = touch_set[pending[touch_set]]
                    pending[dropped] = False
                    pending_count -= dropped.size
                    break
                kernel = touch_set
                absorb(cid, touch_set, members_parts, mark=True)
            else:  # pragma: no cover - the growth loop always breaks within k+1 rounds
                raise RuntimeError("sparse cover growth loop failed to terminate")

    return SparseCover(k=k, rho=rho, clusters=clusters, home=home)


# --------------------------------------------------------------------------- #
# region-growing coarsening (chosen when sampled balls are large)
# --------------------------------------------------------------------------- #
def _limited_min_dist(csr, sources: np.ndarray, rho: float) -> np.ndarray:
    """Min distance from ``sources`` to every node, exact within ``rho``.

    The limit is widened the same way
    :func:`~repro.graphs.shortest_paths.limited_dijkstra` widens it, so
    every node that could pass the ``<= rho + 1e-12`` ball test is finalized
    with its exact distance; nodes beyond come back ``inf``.
    """
    from scipy.sparse.csgraph import dijkstra

    limit = rho * (1.0 + 1e-12) + 1e-12
    return dijkstra(csr, directed=False, indices=sources, min_only=True,
                    limit=limit)


def _choose_cover_mode(graph: WeightedGraph, k: int, rho: float) -> str:
    """Sample a few ball sizes and pick csr vs regions for this scale.

    The csr table costs one row per node (n Dijkstra rows) plus
    ``total ball entries × 8`` bytes; region growing costs ``O(k)`` Dijkstra
    passes per *cluster*.  Large sampled balls mean few clusters — regions
    wins; small balls mean ~one cluster per node — the streamed table wins.
    """
    n = graph.n
    if n < 2048:
        return "csr"   # small instance: the table is cheap and exact
    samples = range(0, n, max(n // 8, 1))[:8]
    sizes = []
    csr = graph.to_scipy_csr()
    for s in samples:
        row = _limited_min_dist(csr, np.asarray([s], dtype=np.int64), rho)
        sizes.append(int(np.count_nonzero(row <= rho + 1e-12)))
    avg_ball = float(np.mean(sizes)) if sizes else 1.0
    return "regions" if avg_ball >= max(32.0, 4.0 * (k + 2)) else "csr"


def _coarsen_regions(graph: WeightedGraph, k: int, rho: float,
                     growth: float) -> SparseCover:
    """Ball-table-free coarsening: clusters grow as min-only Dijkstra regions.

    Decision-for-decision the same loop as :func:`_coarsen_vectorized` — the
    same center order, growth test and phase bookkeeping — but the two set
    queries are answered from the graph instead of a precomputed incidence:

    * *absorb*: the union of the fresh kernel balls is exactly the set of
      nodes within ``rho`` of the fresh centers — one multi-source
      ``min_only`` pass from those centers (the multi-source distance is the
      per-source minimum bit-for-bit, so the ball test matches the table);
    * *touching*: a pending ball touches the cluster iff its center is
      within ``rho`` of some cluster node — a running minimum over
      per-layer ``min_only`` passes sourced at the newly absorbed nodes.

    Worst case (tiny balls) this is a Dijkstra pass per cluster;
    :func:`_choose_cover_mode` only picks it when sampled balls are large,
    i.e. when the csr table would be a significant fraction of O(n²).
    """
    n = graph.n
    csr = graph.to_scipy_csr()
    tol = rho + 1e-12

    remaining = np.ones(n, dtype=bool)
    pending = np.zeros(n, dtype=bool)
    node_stamp = np.full(n, -1, dtype=np.int64)
    merged_stamp = np.full(n, -1, dtype=np.int64)

    clusters: List[Cluster] = []
    home: Dict[int, int] = {}
    remaining_count = n

    while remaining_count:
        pending[:] = remaining
        pending_count = int(remaining_count)
        cursor = 0
        while pending_count:
            cursor += int(np.argmax(pending[cursor:]))
            v = cursor
            cid = len(clusters)
            kernel = np.asarray([v], dtype=np.int64)
            members_parts: List[np.ndarray] = []
            # min distance from the cluster body to every node so far
            cluster_dist = np.full(n, np.inf)

            def absorb(positions: np.ndarray, mark: bool) -> None:
                fresh = positions[merged_stamp[positions] != cid]
                if fresh.size == 0:
                    return
                merged_stamp[fresh] = cid
                dist = _limited_min_dist(csr, fresh, rho)
                candidates = np.flatnonzero(dist <= tol)
                new_nodes = candidates[node_stamp[candidates] != cid]
                node_stamp[new_nodes] = cid
                members_parts.append(new_nodes)
                if mark and new_nodes.size:
                    reach = _limited_min_dist(csr, new_nodes, rho)
                    np.minimum(cluster_dist, reach, out=cluster_dist)

            absorb(kernel, mark=True)
            for _ in range(k + 1):
                centers = np.flatnonzero(pending)
                touching = centers[cluster_dist[centers] <= tol]
                touch_set = np.union1d(touching, kernel)
                if touch_set.size < growth * kernel.size:
                    absorb(touch_set, mark=False)
                    member_nodes = np.concatenate(members_parts) \
                        if members_parts else np.zeros(0, dtype=np.int64)
                    member_nodes = np.unique(member_nodes)
                    clusters.append(Cluster(
                        index=cid, center=int(v),
                        nodes=set(member_nodes.tolist()),
                        kernel_centers=set(kernel.tolist())))
                    for c in kernel.tolist():
                        home[c] = cid
                    remaining[kernel] = False
                    remaining_count -= kernel.size
                    dropped = touch_set[pending[touch_set]]
                    pending[dropped] = False
                    pending_count -= dropped.size
                    break
                kernel = touch_set
                absorb(touch_set, mark=True)
            else:  # pragma: no cover - the growth loop always breaks within k+1 rounds
                raise RuntimeError("sparse cover growth loop failed to terminate")

    return SparseCover(k=k, rho=rho, clusters=clusters, home=home)

