"""Tree covers ``TC_{k,rho}(G)`` (Lemma 6).

A tree cover turns each cluster of a :class:`SparseCover` into a rooted
spanning tree (a shortest-path tree of the cluster's induced subgraph,
restricted to edges of weight at most ``2 rho`` — such edges always suffice
to connect a cluster, and the restriction is what gives Lemma 6's
"small edges" property).  The cover keeps, for every node ``v``, the index of
the tree that contains its whole ball ``B(v, rho)`` — the tree ``W(v)`` the
dense routing strategy climbs.

Cluster trees are built in batches: each chunk of clusters is assembled into
one block-diagonal CSR matrix (every cluster its own relabeled block, heavy
edges filtered out) by one array pass (:func:`cluster_block_matrix`), and a
single multi-source Dijkstra call — one source per block — grows every tree
of the chunk at once.  One
:func:`~repro.graphs.trees.build_forest` pass then turns the chunk's
predecessor rows into trees, and one more builds every single-member
cluster.  A cover of an induced subgraph is built directly in the host
graph's node ids (``mapping``), so no tree is built twice.

A member that the ``2 rho`` filter leaves unreachable from its center raises
``ValidationError``: no tree within Lemma 6's edge bound spans it.  Covers
built by :func:`build_sparse_cover` never hit this — a ``rho``-ball holds
every node on its shortest paths, whose edges weigh at most ``rho``, and a
cluster is a union of balls that share nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.construction.context import BuildContext
from repro.covers.sparse_cover import SparseCover, build_sparse_cover
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.graphs.trees import Tree, build_forest
from repro.utils.validation import ValidationError, require

#: clusters per block-diagonal kernel call
CLUSTER_CHUNK = 64

#: total relabeled rows per block-diagonal kernel call.  Chunking by
#: cluster count alone breaks down at large scales, where every cluster
#: spans (nearly) a whole component: 64 clusters of 100k nodes would
#: assemble a 6.4M-row block matrix whose dense dist/pred result is
#: several GB.  The node budget caps the in-flight slab at
#: ~``sources × budget × 12`` bytes regardless of cluster sizes; chunk
#: boundaries do not affect the trees (every block is independent).
CHUNK_NODE_BUDGET = 1 << 19


@dataclass
class TreeCover:
    """A collection of rooted cluster trees covering all ``rho``-balls."""

    k: int
    rho: float
    trees: List[Tree]
    #: node -> index of the tree containing B(node, rho)
    home: Dict[int, int]

    def home_tree(self, v: int) -> Tree:
        """The tree guaranteed to contain ``B(v, rho)``."""
        return self.trees[self.home[v]]

    def trees_containing(self, v: int) -> List[int]:
        """Indices of all trees that contain node ``v``."""
        return [i for i, t in enumerate(self.trees) if t.contains(v)]

    def max_membership(self) -> int:
        """Largest number of trees any node belongs to (Lemma 6's sparsity)."""
        if not self.trees:
            return 0
        members = np.concatenate([t.node_ids for t in self.trees])
        return int(np.unique(members, return_counts=True)[1].max())

    def max_radius(self) -> float:
        """Largest tree radius (Lemma 6 bounds it by ``O(k) * rho``)."""
        return max((t.radius() for t in self.trees), default=0.0)

    def max_edge(self) -> float:
        """Heaviest tree edge (Lemma 6 bounds it by ``2 rho``)."""
        return max((t.max_edge() for t in self.trees), default=0.0)

    def covers_ball(self, v: int, oracle: DistanceOracle) -> bool:
        """Check that ``B(v, rho)`` lies inside ``home_tree(v)``."""
        tree = self.home_tree(v)
        return bool((tree.positions(oracle.ball(v, self.rho)) >= 0).all())


def cluster_block_matrix(csr: sp.csr_matrix, blocks: Sequence[np.ndarray],
                         max_weight: float) -> sp.csr_matrix:
    """Block-diagonal CSR of the subgraphs induced by ``blocks``, light edges only.

    Block ``b`` is the subgraph of ``csr`` induced by the ascending node
    array ``blocks[b]``, relabeled ``0 .. size - 1`` and restricted to edges
    of weight at most ``max_weight``; the blocks sit on the diagonal in
    order.  One array pass builds it: every member's row is gathered through
    ``indptr``, and each column finds its block-local index by one
    ``searchsorted`` on ``block * n + node`` keys (blocks may share nodes,
    so no single column map serves them all).  The arrays equal those of
    ``scipy.sparse.block_diag`` over the per-block induced submatrices.
    """
    n = csr.shape[0]
    sizes = np.fromiter((members.size for members in blocks), dtype=np.int64,
                        count=len(blocks))
    nodes = np.concatenate(blocks).astype(np.int64) if blocks \
        else np.zeros(0, dtype=np.int64)
    block = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    # block-major, ascending members within a block: the keys ascend
    keys = block * n + nodes
    starts = csr.indptr[nodes].astype(np.int64)
    counts = csr.indptr[nodes + 1] - starts
    row = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    entry = np.repeat(starts - (np.cumsum(counts) - counts), counts) \
        + np.arange(row.size, dtype=np.int64)
    weights = csr.data[entry]
    wanted = block[row] * n + csr.indices[entry]
    column = np.searchsorted(keys, wanted)
    keep = column < keys.size
    keep[keep] = keys[column[keep]] == wanted[keep]
    keep &= weights <= max_weight + 1e-12
    indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=nodes.size), out=indptr[1:])
    return sp.csr_matrix((weights[keep], column[keep], indptr),
                         shape=(nodes.size, nodes.size))


def _cluster_trees_batched(graph: WeightedGraph, cover: SparseCover,
                           rho: float, context: BuildContext,
                           mapping: np.ndarray) -> List[Tree]:
    """Grow every cluster tree of ``cover``, one forest per cluster chunk.

    Trees carry ``mapping[v]`` for graph node ``v``; weights come from the
    context's shared sorted-edge-key lookup (the ``2 rho`` restriction keeps
    original weights for every surviving edge).
    """
    csr = graph.to_scipy_csr()
    weight_index = context.edge_index()
    jobs = []  # (cluster_index, members array, local root)
    singles = []  # (cluster_index, node)
    trees: List[Optional[Tree]] = [None] * len(cover.clusters)
    for cluster in cover.clusters:
        members = np.asarray(sorted(cluster.nodes), dtype=np.int64)
        if members.size == 1:
            singles.append((cluster.index, int(members[0])))
            continue
        local_root = int(np.searchsorted(members, cluster.center))
        jobs.append((cluster.index, members, local_root))
    if singles:
        roots = mapping[[v for _, v in singles]]
        for (index, _), tree in zip(singles, build_forest(
                roots, np.arange(roots.size), roots, np.full(roots.size, -1),
                np.zeros(roots.size))):
            trees[index] = tree

    def run_chunk(chunk) -> List[tuple]:
        blocks = [members for _, members, _ in chunk]
        sizes = [members.size for members in blocks]
        combined = cluster_block_matrix(csr, blocks, 2.0 * rho)
        block = np.repeat(np.arange(len(chunk)), sizes)
        first = np.cumsum([0] + sizes[:-1])
        sources = (first + [local_root for _, _, local_root in chunk]).tolist()
        dist, pred = _scipy_dijkstra(combined, directed=False, indices=sources,
                                     return_predecessors=True)
        # every member of every block is a row of its block's source; the
        # block-diagonal predecessors index the chunk's member array, so they
        # become graph nodes, then the ids the trees carry
        rows = np.arange(block.size)
        unreachable = ~np.isfinite(np.atleast_2d(dist)[block, rows])
        if unreachable.any():
            index, members, local_root = chunk[int(block[np.argmax(unreachable)])]
            raise ValidationError(
                f"cluster {index} has members unreachable from center "
                f"{int(members[local_root])} over edges of weight <= "
                f"2 rho = {2.0 * rho}")
        nodes = np.concatenate(blocks)
        local = np.atleast_2d(pred)[block, rows]
        linked = local >= 0
        parents = np.full(block.size, -1, dtype=np.int64)
        parents[linked] = nodes[local[linked]]
        weights = np.zeros(block.size)
        weights[linked] = weight_index.weights(parents[linked], nodes[linked])
        parents[linked] = mapping[parents[linked]]
        roots = mapping[[members[root] for _, members, root in chunk]]
        forest = build_forest(roots, block, mapping[nodes], parents, weights)
        return [(index, tree) for (index, _, _), tree in zip(chunk, forest)]

    chunks = []
    current: List[tuple] = []
    current_nodes = 0
    for job in jobs:
        size = job[1].size
        if current and (len(current) >= CLUSTER_CHUNK
                        or current_nodes + size > CHUNK_NODE_BUDGET):
            chunks.append(current)
            current, current_nodes = [], 0
        current.append(job)
        current_nodes += size
    if current:
        chunks.append(current)
    for part in context.map(run_chunk, chunks):
        for index, tree in part:
            trees[index] = tree
    return trees  # type: ignore[return-value]


def build_tree_cover(
    graph: WeightedGraph,
    k: int,
    rho: float,
    oracle: Optional[DistanceOracle] = None,
    context: Optional[BuildContext] = None,
    mapping: Optional[Sequence[int]] = None,
) -> TreeCover:
    """Build ``TC_{k,rho}`` of ``graph``.

    ``mapping[v]`` is the id the cover's trees and ``home`` give graph node
    ``v`` (the identity when omitted).  For an induced subgraph, pass the
    ascending mapping :meth:`~repro.graphs.graph.WeightedGraph.subgraph`
    returns: the trees then come out in host-graph ids with the same DFS
    orders as in subgraph ids.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    if context is None:
        context = BuildContext(graph, oracle=oracle)
    ids = np.arange(graph.n, dtype=np.int64) if mapping is None \
        else np.asarray(mapping, dtype=np.int64)
    require(ids.size == graph.n and bool((np.diff(ids) > 0).all()),
            "mapping must give every graph node an ascending id")
    cover: SparseCover = build_sparse_cover(graph, k, rho, oracle=context.oracle,
                                            context=context)
    trees = _cluster_trees_batched(graph, cover, rho, context, ids)
    home = {int(ids[v]): index for v, index in cover.home.items()}
    return TreeCover(k=k, rho=rho, trees=trees, home=home)
