"""Thorup–Zwick labeled compact routing (stretch ``4k-5``, ``Õ(n^{1/k})`` space) [29, 30].

Construction (the distance-oracle hierarchy):

* levels ``A_0 = V ⊇ A_1 ⊇ ... ⊇ A_{k-1}``, each sampled from the previous
  with probability ``n^{-1/k}`` (``A_k = ∅``);
* pivots ``p_i(v)`` — the closest member of ``A_i`` to ``v``;
* clusters ``C_i(w) = { v : d(w, v) < d(v, A_{i+1}) }`` for ``w`` of level
  ``i`` (for the top level the cluster is the whole graph);
* for every level-``i`` landmark ``w``, a shortest-path tree spanning
  ``C_i(w)`` carries a Lemma 5 labeled tree-routing structure; every node
  stores its table for every cluster tree it belongs to (the TZ sampling
  argument bounds the expected number of such trees by ``O(k n^{1/k})``);
* the label of ``v`` lists, for every level ``i``, the pivot ``p_i(v)`` and
  ``v``'s tree-routing label inside ``T(p_i(v))``.

Routing ``u → v`` tries levels ``i = 0, 1, ...`` in order and uses the first
level whose pivot tree contains both endpoints: the walk is the tree path
``u → v`` inside ``T(p_i(v))``.  The top level always works, and the standard
TZ analysis bounds the resulting stretch by ``4k - 5`` (``2k - 1`` with
handshaking); the measured stretch is reported by the benches.

This is a *labeled* scheme: the sender must know the destination's label,
which is exactly the model the paper argues is impractical (Section 1).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.construction.context import BuildContext, SPTJob
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.compact_labeled import CompactTreeRouting
from repro.utils.bitsize import bits_for_id
from repro.utils.rng import make_rng
from repro.utils.validation import require


class ThorupZwickRouting(RoutingSchemeInstance):
    """Labeled hierarchy with stretch ``4k-5``."""

    scheme_name = "thorup-zwick"
    labeled = True

    def __init__(self, graph: WeightedGraph, k: int = 2,
                 oracle: Optional[DistanceOracle] = None,
                 seed=None, name_bits: int = 64,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = int(k)
        self.oracle = oracle or DistanceOracle(graph)
        self.name_bits = int(name_bits)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        rng = make_rng(seed)
        n = graph.n

        # levels A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}; A_k = ∅
        probability = (max(n, 2)) ** (-1.0 / self.k)
        levels: List[List[int]] = [list(range(n))]
        for _ in range(1, self.k):
            previous = levels[-1]
            kept = [v for v in previous if rng.random() < probability]
            if not kept:
                kept = [previous[0]]
            levels.append(kept)
        self.levels = levels

        self._build(context or BuildContext(graph, oracle=self.oracle))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _level_structure(self) -> Tuple[List[List[int]], np.ndarray]:
        """Pivots per level and distance-to-level rows for the current graph.

        Vectorized: one row block per level instead of an oracle.dist call
        per (node, member) pair.  Level 0 is all of V: every node is its own
        pivot at distance 0 (edge weights are strictly positive), so no rows
        are needed — this matters on the lazy backend, where fetching rows
        for all n level-0 members would materialize the very O(n²) block the
        backend avoids.
        """
        n, k, oracle = self.graph.n, self.k, self.oracle
        pivot: List[List[int]] = [[0] * n for _ in range(k)]
        dist_to_level = np.full((k + 1, n), np.inf)
        pivot[0] = list(range(n))
        dist_to_level[0] = 0.0
        for i in range(1, k):
            ids, dists = oracle.nearest_member(self.levels[i])
            pivot[i] = ids.tolist()
            dist_to_level[i] = dists
        # dist_to_level[k] stays +inf: the top clusters span everything
        return pivot, dist_to_level

    def _iter_used_clusters(self, pivot: List[List[int]], dist_to_level: np.ndarray):
        """Yield ``((i, w), root_row, members)`` for every routable cluster tree.

        Only landmarks that are someone's pivot are yielded (those are what
        routing can actually touch); root rows come one batched
        :meth:`~repro.graphs.shortest_paths.DistanceOracle.rows_within` fetch
        per chunk.  A member needs ``d(w, v) < d(v, A_{i+1})``, so the limit
        is the level's largest ``d(·, A_{i+1})``: unless the oracle holds the
        all-pairs matrix, level-0 rows become local searches instead of
        full-graph Dijkstras.  Entries beyond the limit may come back
        ``inf``, which the strict ``<`` membership test excludes anyway —
        identical members either way.
        """
        n, k, oracle = self.graph.n, self.k, self.oracle
        used: List[Tuple[int, int]] = sorted({(i, pivot[i][v])
                                              for i in range(k) for v in range(n)})
        limits = np.full(k + 1, np.inf)
        for i in range(k + 1):
            level = dist_to_level[i]
            if np.isfinite(level).all():
                # a node with d(·, A_i) = inf could join a cluster at any
                # distance, so only an everywhere-finite level is bounded
                limits[i] = float(level.max())
        block = oracle.block_rows()
        for start in range(0, len(used), block):
            chunk = used[start:start + block]
            limit = float(max(limits[i + 1] for i, _ in chunk))
            chunk_rows = oracle.rows_within([w for _, w in chunk], limit)
            for (i, w), row_w in zip(chunk, chunk_rows):
                members = [int(v) for v in
                           np.where(row_w < dist_to_level[i + 1] - 1e-12)[0]]
                members.append(w)
                yield (i, w), row_w, members

    def _build(self, context: BuildContext) -> None:
        n, k = self.graph.n, self.k
        self.pivot, dist_to_level = self._level_structure()
        # batched forest: one kernel call per chunk of cluster roots, each
        # call limited to its chunk's farthest member — small low-level
        # clusters become local searches instead of full-graph Dijkstras
        jobs: List[SPTJob] = []
        keys: List[Tuple[int, int]] = []
        for key, row_w, members in self._iter_used_clusters(self.pivot,
                                                            dist_to_level):
            member_list = sorted(set(members))
            limit = float(row_w[member_list].max()) if member_list else 0.0
            jobs.append(SPTJob(key[1], member_list, limit))
            keys.append(key)
        self._trees: Dict[Tuple[int, int], CompactTreeRouting] = {
            key: CompactTreeRouting(tree, k=max(self.k, 2))
            for key, tree in zip(keys, context.spt_trees(jobs))}
        self.tables.charge_structures(
            "cluster_tree_tables",
            ((r.tree.nodes, r.table_bits_list())
             for r in self._trees.values()))
        landmark_bits = bits_for_id(max(n, 2))
        for v in range(n):
            self.tables[v].charge("pivot_pointers", landmark_bits, count=k)

    # ------------------------------------------------------------------ #
    # labels
    # ------------------------------------------------------------------ #
    def label_bits(self, node: int) -> int:
        """Label = (pivot id + tree label) for each of the k levels."""
        total = 0
        for i in range(self.k):
            w = self.pivot[i][node]
            routing = self._trees[(i, w)]
            total += bits_for_id(max(self.graph.n, 2))
            if routing.tree.contains(node):
                total += routing.label_bits(node)
        return total

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile every pivot cluster tree into one tree bank.

        Planning replays the level/pivot selection of :meth:`route` (pure
        dict/membership checks); the single resulting leg is the unique tree
        path to the destination, which is exactly the scalar walk.
        """
        from repro.routing.forwarding import (ForwardingProgram, PacketPlan,
                                              TreeBank, tree_leg)

        bank = TreeBank(self.graph.n)
        tree_id_of = {key: bank.add(routing.tree)
                      for key, routing in self._trees.items()}
        header = self.header_bits()

        def plan(source: int, destination: int) -> PacketPlan:
            if source == destination:
                return PacketPlan([], "thorup-zwick", 0)
            for i in range(self.k):
                for w in (self.pivot[i][destination], self.pivot[i][source]):
                    routing = self._trees.get((i, w))
                    if routing is None:
                        continue
                    if routing.tree.contains(source) and routing.tree.contains(destination):
                        leg = tree_leg(tree_id_of[(i, w)], destination,
                                       "thorup-zwick", i + 1, terminal=True)
                        return PacketPlan([leg], "thorup-zwick", 0)
            return PacketPlan([], "thorup-zwick", 0)

        return ForwardingProgram(self.graph, plan, bank=bank,
                                 header_bits=header, label="thorup-zwick")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Use the lowest level whose pivot cluster tree contains both endpoints."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="thorup-zwick")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        if not self.graph.has_name(destination_name):
            return result
        destination = self.graph.index_of(destination_name)

        for i in range(self.k):
            # mirror the TZ query's side-alternation: a level is usable if either
            # endpoint's pivot cluster tree contains both endpoints
            for w in (self.pivot[i][destination], self.pivot[i][source]):
                routing = self._trees.get((i, w))
                if routing is None:
                    continue
                if routing.tree.contains(source) and routing.tree.contains(destination):
                    walk, cost = routing.walk(source, destination)
                    result.extend(walk)
                    result.cost += cost
                    result.found = result.path[-1] == destination
                    result.phases_used = i + 1
                    return result
        return result

    def compute_header_bits(self) -> int:
        """Header carries the destination label of the level in use."""
        tree_label = max((t.header_bits() for t in self._trees.values()), default=0)
        return self.name_bits + bits_for_id(max(self.graph.n, 2)) + tree_label
