"""Shared build state: batched SPT forests, ball tables, parallel fan-out.

Every scheme's preprocessing decomposes into the same few primitives — grow a
shortest-path tree per root, restrict it to a member set, compute the ball of
every node at some radius, fan independent units (scales, cluster chunks)
out.  :class:`BuildContext` owns the batched implementations of those
primitives so all six schemes share them:

* :meth:`BuildContext.spt_trees` answers a whole list of :class:`SPTJob`
  requests with one SciPy multi-source Dijkstra call per chunk of roots.
  Jobs carrying a distance ``limit`` (the farthest member the tree must
  reach) are grouped by limit magnitude so a chunk of small cluster trees is
  a chunk of *local* searches — the kernel abandons every path beyond the
  chunk limit instead of running ``n`` full-graph Dijkstras.
* :meth:`BuildContext.ball_csr` streams the ball membership of every node at
  one radius into flat CSR arrays (one row-block pass over the oracle, no
  Python sets), which is what the vectorized sparse-cover coarsening and the
  dense-strategy covers consume.
* :meth:`BuildContext.map` is an order-preserving thread fan-out for
  independent build units.  Unit seeds are always derived from the unit's
  *index* (never from execution order), so parallel builds are bit-identical
  to serial ones.

Each chunk's trees come out of one :func:`~repro.graphs.trees.build_forest`
pass, which computes every tree's DFS slot arrays and depths at once; a
tree is a view over its slice of the chunk's arrays, and a later
``TreeBank.freeze`` concatenates those slices as they are.

Every scheme has exactly one constructor, built on these primitives; the
golden build digests (``tests/test_golden_digests.py``) pin its output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.construction.kernels import ancestor_closure
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, limited_dijkstra
from repro.graphs.trees import Tree, build_forest
from repro.hashing.universal import fold_names
from repro.storage import persist_array

#: roots per SciPy kernel call in :meth:`BuildContext.spt_trees`
DEFAULT_SPT_CHUNK = 256


class SPTJob(NamedTuple):
    """One shortest-path-tree request for :meth:`BuildContext.spt_trees`.

    ``members`` prunes the tree to the union of root-to-member shortest paths
    (``None`` spans everything reachable).  ``limit`` is an upper bound on the
    distance from the root to any required node; it lets the batched kernel
    abandon paths beyond the tree's reach.  A correct limit never changes the
    output — it only makes the search local.
    """

    root: int
    members: Optional[Sequence[int]] = None
    limit: Optional[float] = None


def _kept_rows(root: int, dist: np.ndarray, pred: np.ndarray,
               members: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Kept nodes (ascending) of one pruned tree and their parents.

    The kept set is the root plus everything reachable, or, given
    ``members``, their ancestor closure, computed with whole-frontier array
    gathers.  The root's parent is ``-1``.
    """
    keep = np.zeros(dist.size, dtype=bool)
    keep[root] = True
    if members is None:
        keep |= np.isfinite(dist)
    else:
        frontier = np.unique(np.asarray(list(members), dtype=np.int64))
        frontier = frontier[np.isfinite(dist[frontier])]
        ancestor_closure(frontier, pred, keep)
    kept = np.flatnonzero(keep)
    parents = pred[kept].astype(np.int64)
    parents[parents < 0] = -1
    return kept, parents


def _forest_of(roots: Sequence[int], kept: List[Tuple[np.ndarray, np.ndarray]],
               edge_index: "_EdgeIndex") -> List[Tree]:
    """One :func:`build_forest` call over the kept rows of many trees."""
    sizes = [nodes.size for nodes, _ in kept]
    nodes = np.concatenate([nodes for nodes, _ in kept])
    parents = np.concatenate([parents for _, parents in kept])
    weights = np.zeros(nodes.size)
    linked = parents >= 0
    weights[linked] = edge_index.weights(parents[linked], nodes[linked])
    return build_forest(roots, np.repeat(np.arange(len(kept)), sizes), nodes,
                        parents, weights)


def tree_from_predecessors(graph: WeightedGraph, root: int,
                           dist: np.ndarray, pred: np.ndarray,
                           members: Optional[Sequence[int]] = None,
                           edge_index: Optional["_EdgeIndex"] = None) -> Tree:
    """Assemble a (pruned) :class:`Tree` from one Dijkstra row, vectorized.

    A one-tree call of the :func:`~repro.graphs.trees.build_forest` pass
    that :meth:`BuildContext.spt_trees` runs per chunk: the kept set is an
    ancestor closure over array gathers and the edge weights come from one
    sorted-key lookup.
    """
    if edge_index is None:
        edge_index = _EdgeIndex(graph)
    return _forest_of([root], [_kept_rows(root, dist, pred, members)],
                      edge_index)[0]


class _EdgeIndex:
    """Vectorized ``weight(u, v)`` lookups over one sorted edge-key array.

    Row-major CSR traversal yields ascending ``u * n + v`` keys, so a batch of
    edge weights is one ``searchsorted`` — far cheaper than SciPy matrix
    fancy-indexing per tree when thousands of small trees are assembled.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        csr = graph.to_scipy_csr()
        n = graph.n
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        self._keys = row_of * n + csr.indices
        self._weights = csr.data
        self.n = n

    def weights(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._keys, us * self.n + vs)
        return self._weights[pos]


class BuildContext:
    """Batched construction primitives for one graph.

    Parameters
    ----------
    graph:
        The network being preprocessed.
    oracle:
        Exact distance oracle (a default lazy-backend one when omitted);
        shared by every primitive so streamed passes reuse one row
        cache.
    parallel:
        Worker threads for :meth:`map` fan-outs (``None``/``0``/``1`` =
        serial).  The kernel calls release the GIL, so independent scales and
        tree chunks genuinely overlap on multi-core hosts; outputs are
        bit-identical either way.
    """

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None,
                 parallel: Optional[int] = None) -> None:
        self.graph = graph
        self.oracle = oracle or DistanceOracle(graph)
        self.parallel = int(parallel) if parallel else 0
        self._edge_index: Optional[_EdgeIndex] = None
        self._folded_names: Optional[np.ndarray] = None

    def edge_index(self) -> "_EdgeIndex":
        """Shared sorted-edge-key weight lookup (built once per context)."""
        if self._edge_index is None:
            self._edge_index = _EdgeIndex(self.graph)
        return self._edge_index

    def folded_names(self) -> np.ndarray:
        """Every node name folded by :func:`~repro.hashing.universal.fold_names`.

        Folded once per context and indexed by node, so the tree
        dictionaries of a whole build hash each name's fold instead of
        folding it again per tree.
        """
        if self._folded_names is None:
            self._folded_names = fold_names(self.graph.names_view())
        return self._folded_names

    # ------------------------------------------------------------------ #
    # parallel fan-out
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Sequence) -> List:
        """Apply ``fn`` to every item, fanning out over worker threads.

        Results come back in input order and every item's work must depend
        only on the item itself (unit seeds derive from indices), so the
        parallel result is bit-identical to the serial one.
        """
        items = list(items)
        if self.parallel > 1 and len(items) > 1:
            with ThreadPoolExecutor(max_workers=self.parallel) as pool:
                return list(pool.map(fn, items))
        return [fn(item) for item in items]

    # ------------------------------------------------------------------ #
    # batched shortest-path-tree forests
    # ------------------------------------------------------------------ #
    def spt_trees(self, jobs: Sequence[SPTJob]) -> List[Tree]:
        """Build every requested tree, one kernel call per chunk of roots.

        Jobs are grouped by limit magnitude (unlimited jobs together) so that
        one chunk's shared limit — the maximum over its jobs — stays close to
        each job's own reach.  Chunks run through :meth:`map`.  Output order
        matches input order.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if self.graph.num_edges == 0:
            # no edges: every tree is its lone root
            roots = [int(job.root) for job in jobs]
            return build_forest(roots, np.arange(len(roots)), roots,
                                np.full(len(roots), -1), np.zeros(len(roots)))
        order = sorted(range(len(jobs)),
                       key=lambda j: (jobs[j].limit is None,
                                      jobs[j].limit if jobs[j].limit is not None
                                      else 0.0, j))
        chunks = [order[start:start + DEFAULT_SPT_CHUNK]
                  for start in range(0, len(order), DEFAULT_SPT_CHUNK)]
        csr = self.graph.to_scipy_csr()
        edge_index = self.edge_index()

        def run_chunk(chunk: List[int]) -> List[Tuple[int, Tree]]:
            roots = [int(jobs[j].root) for j in chunk]
            limits = [jobs[j].limit for j in chunk]
            shared = max(limits) if all(l is not None for l in limits) else None
            dist, pred = limited_dijkstra(csr, roots, shared, predecessors=True)
            # under a tight REPRO_MEMORY_BUDGET the per-chunk SPT forest rows
            # spill too, so a whole build streams through the budget
            dist, pred = persist_array(dist), persist_array(pred)
            kept = [_kept_rows(root, dist[local], pred[local], jobs[j].members)
                    for local, (j, root) in enumerate(zip(chunk, roots))]
            return list(zip(chunk, _forest_of(roots, kept, edge_index)))

        trees: List[Optional[Tree]] = [None] * len(jobs)
        for part in self.map(run_chunk, chunks):
            for j, tree in part:
                trees[j] = tree
        return trees  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # streamed ball tables
    # ------------------------------------------------------------------ #
    def ball_csr(self, rho: float) -> Tuple[np.ndarray, np.ndarray]:
        """Balls ``B(v, rho)`` of every node as flat CSR arrays.

        Returns ``(indptr, indices)``: the ball of node ``v`` is
        ``indices[indptr[v]:indptr[v+1]]`` (sorted node ids).  One streamed
        row-block pass over the oracle's :meth:`~DistanceOracle.rows_within`
        at limit ``rho`` — no per-node Python, and no O(n²) residency unless
        the oracle already holds the all-pairs matrix.
        """
        sources = np.arange(self.graph.n, dtype=np.int64)
        counts = np.zeros(sources.size, dtype=np.int64)
        parts: List[np.ndarray] = []
        block = self.oracle.block_rows()
        for start in range(0, sources.size, block):
            chunk = sources[start:start + block]
            rows = self.oracle.rows_within(chunk, rho)
            local_rows, members = np.nonzero(rows <= rho + 1e-12)
            counts[start:start + chunk.size] = np.bincount(
                local_rows, minlength=chunk.size)
            parts.append(members.astype(np.int64))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        # large ball tables are placed through the storage layer: memmap
        # spill files above REPRO_MEMORY_BUDGET, plain RAM below
        return indptr, persist_array(indices)
