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
edges filtered out) and a single multi-source Dijkstra call — one source per
block — grows every tree of the chunk at once.  A member that the ``2 rho``
filter leaves unreachable from its center raises ``ValidationError``: no
tree within Lemma 6's edge bound spans it.  Covers built by
:func:`build_sparse_cover` never hit this — a ``rho``-ball holds every node
on its shortest paths, whose edges weigh at most ``rho``, and a cluster is a
union of balls that share nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.construction.context import BuildContext
from repro.covers.sparse_cover import SparseCover, build_sparse_cover
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, exact_distance_oracle
from repro.graphs.trees import Tree
from repro.utils.validation import require

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
        counts: Dict[int, int] = {}
        for t in self.trees:
            for v in t.nodes:
                counts[v] = counts.get(v, 0) + 1
        return max(counts.values()) if counts else 0

    def max_radius(self) -> float:
        """Largest tree radius (Lemma 6 bounds it by ``O(k) * rho``)."""
        return max((t.radius() for t in self.trees), default=0.0)

    def max_edge(self) -> float:
        """Heaviest tree edge (Lemma 6 bounds it by ``2 rho``)."""
        return max((t.max_edge() for t in self.trees), default=0.0)

    def covers_ball(self, v: int, oracle: DistanceOracle) -> bool:
        """Check that ``B(v, rho)`` lies inside ``home_tree(v)``."""
        tree = self.home_tree(v)
        return all(tree.contains(u) for u in oracle.ball(v, self.rho))


def _tree_from_local(members: np.ndarray, local_root: int,
                     pred: np.ndarray, edge_index) -> Tree:
    """Translate one block's local predecessor row into a global Tree.

    Weights come from the context's shared sorted-edge-key lookup (the
    restricted subgraph keeps original weights for every surviving edge).
    """
    local_children = np.flatnonzero(pred >= 0)
    if local_children.size == 0:
        return Tree.single_node(int(members[local_root]))
    local_parents = pred[local_children]
    children = members[local_children]
    parents = members[local_parents]
    weights = edge_index.weights(parents, children)
    return Tree(root=int(members[local_root]),
                parent=dict(zip(children.tolist(), parents.tolist())),
                edge_weight=dict(zip(children.tolist(), weights.tolist())))


def _cluster_trees_batched(graph: WeightedGraph, cover: SparseCover,
                           rho: float,
                           context: Optional[BuildContext] = None) -> List[Tree]:
    """Grow every cluster tree of ``cover``, one kernel call per cluster chunk."""
    from repro.construction.context import _EdgeIndex

    csr = graph.to_scipy_csr()
    weight_index = context.edge_index() if context is not None else _EdgeIndex(graph)
    jobs = []  # (cluster_index, members array, local root)
    trees: List[Optional[Tree]] = [None] * len(cover.clusters)
    for cluster in cover.clusters:
        members = np.asarray(sorted(cluster.nodes), dtype=np.int64)
        if members.size == 1:
            trees[cluster.index] = Tree.single_node(int(members[0]))
            continue
        local_root = int(np.searchsorted(members, cluster.center))
        jobs.append((cluster.index, members, local_root))

    def run_chunk(chunk) -> List[tuple]:
        # manual induced-submatrix assembly: row-slice the global CSR, then
        # keep columns inside the cluster and edges within 2 rho in one mask —
        # no SciPy column fancy-indexing (which argsorts per cluster)
        col_map = np.full(graph.n, -1, dtype=np.int64)
        blocks = []
        sources = []
        offset = 0
        for _, members, local_root in chunk:
            m = members.size
            rsel = csr[members]
            col_map[members] = np.arange(m)
            local_cols = col_map[rsel.indices]
            keep = (local_cols >= 0) & (rsel.data <= 2.0 * rho + 1e-12)
            row_of = np.repeat(np.arange(m), np.diff(rsel.indptr))
            indptr = np.concatenate(
                ([0], np.cumsum(np.bincount(row_of[keep], minlength=m))))
            sub = sp.csr_matrix(
                (rsel.data[keep], local_cols[keep], indptr), shape=(m, m))
            col_map[members] = -1
            blocks.append(sub)
            sources.append(offset + local_root)
            offset += m
        combined = sp.block_diag(blocks, format="csr")
        dist, pred = _scipy_dijkstra(combined, directed=False, indices=sources,
                                     return_predecessors=True)
        dist = np.atleast_2d(dist)
        pred = np.atleast_2d(pred)
        out = []
        offset = 0
        for row, (index, members, local_root) in enumerate(chunk):
            span = slice(offset, offset + members.size)
            local_dist = dist[row, span]
            local_pred = np.where(pred[row, span] < 0, -1,
                                  pred[row, span] - offset).astype(np.int64)
            require(bool(np.isfinite(local_dist).all()),
                    f"cluster {index} has members unreachable from center "
                    f"{int(members[local_root])} over edges of weight <= "
                    f"2 rho = {2.0 * rho}")
            out.append((index, _tree_from_local(members, local_root,
                                                local_pred, weight_index)))
            offset += members.size
        return out

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
    mapper = context.map if context is not None else (
        lambda fn, items: [fn(item) for item in items])
    for part in mapper(run_chunk, chunks):
        for index, tree in part:
            trees[index] = tree
    return trees  # type: ignore[return-value]


def build_tree_cover(
    graph: WeightedGraph,
    k: int,
    rho: float,
    oracle: Optional[DistanceOracle] = None,
    context: Optional[BuildContext] = None,
) -> TreeCover:
    """Build ``TC_{k,rho}`` of ``graph``."""
    require(k >= 1, f"k must be >= 1, got {k}")
    if context is None:
        context = BuildContext(graph, oracle=exact_distance_oracle(graph, oracle))
    cover: SparseCover = build_sparse_cover(graph, k, rho, oracle=context.oracle,
                                            context=context)
    trees = _cluster_trees_batched(graph, cover, rho, context=context)
    return TreeCover(k=k, rho=rho, trees=trees, home=dict(cover.home))
