"""Cowen-style stretch-3 labeled routing ([13], improved by Thorup–Zwick [29]).

Construction:

* a landmark set ``A`` is sampled (each node independently with probability
  ``~ sqrt(ln n / n)``, re-drawn if empty);
* every node ``v`` has a home landmark ``l(v)`` — its nearest member of ``A``;
* the *cluster* of a node ``x`` is ``C(x) = { v : d(x, v) < d(v, A) }``; ``x``
  stores a shortest-path next hop for every member of its cluster.  The
  defining inequality is inherited by every node on the shortest path, which
  is what makes hop-by-hop cluster routing consistent;
* every landmark's shortest-path tree carries a Lemma 5 labeled tree-routing
  structure, and every node stores its table for every landmark tree;
* the label of ``v`` is (identifier of ``l(v)``, tree-routing label of ``v``
  in ``T(l(v))``).

Routing ``u → v``: if ``v`` is in the local cluster table, follow next hops
(every intermediate node also has ``v``); otherwise walk to ``l(v)`` inside
its tree and descend to ``v`` — at most ``2 d(v, l(v)) + d(u, v) <= 3 d(u,v)``
because ``v`` outside ``C(u)`` implies ``d(v, l(v)) <= d(u, v)``.

Cluster tables are built column-wise: one chunked multi-source Dijkstra pass
over the destinations, each kernel call limited to the chunk's largest
``d(v, A)`` (entries require ``d(x, v) < d(v, A)``, so nothing beyond that
radius matters), emits the ``(x, v, next hop)`` index arrays of a
:class:`~repro.routing.forwarding.NextHopTable` directly — no per-entry dict
pass, and the same compiled object serves both the scalar ``route`` loop and
the lockstep engine.  Landmark trees come from the shared
:class:`~repro.construction.context.BuildContext` SPT forest.
``REPRO_BUILD_MODE=scalar`` restores the original per-destination
Python-heap loop for the build-parity tests.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.construction.context import BuildContext, SPTJob, scalar_build_mode
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import (DistanceOracle, dijkstra,
                                          exact_distance_oracle)
from repro.routing.forwarding import NextHopTable
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.compact_labeled import CompactTreeRouting
from repro.utils.bitsize import bits_for_id
from repro.utils.rng import make_rng


class CowenRouting(RoutingSchemeInstance):
    """Stretch-3 labeled compact routing."""

    scheme_name = "cowen"
    labeled = True

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None,
                 seed=None, name_bits: int = 64,
                 sample_probability: Optional[float] = None,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        self.oracle = exact_distance_oracle(graph, oracle)
        self.name_bits = int(name_bits)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        rng = make_rng(seed)
        n = graph.n
        if sample_probability is None:
            sample_probability = min(1.0, math.sqrt(max(math.log(max(n, 2)), 1.0) / max(n, 2)))
        self.sample_probability = sample_probability

        # landmark set (never empty: fall back to node 0)
        landmarks = [v for v in range(n) if rng.random() < sample_probability]
        if not landmarks:
            landmarks = [0]
        self.landmarks: List[int] = sorted(landmarks)

        self._build(context or BuildContext(graph, oracle=self.oracle, seed=seed))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, context: BuildContext) -> None:
        graph, oracle = self.graph, self.oracle
        n = graph.n
        # distance to the landmark set and the home landmark of each node,
        # vectorized over one landmark row block (tie-break handled by the
        # oracle helper)
        ids, self.dist_to_landmarks = oracle.nearest_member(self.landmarks)
        self.home: Dict[int, int] = {v: int(ids[v]) for v in range(n)}

        # clusters: x stores a next hop for every v with d(x, v) < d(v, A)
        if scalar_build_mode():
            self._cluster_table = self._build_clusters_scalar()
        else:
            self._cluster_table = self._build_clusters(context)
        port_bits = bits_for_id(max(graph.max_degree(), 1)) if graph.num_edges else 1
        counts = self._cluster_table.entries_per_node()
        for x in range(n):
            self.tables[x].charge("cluster_entries", self.name_bits + port_bits,
                                  count=int(counts[x]))

        # landmark trees with Lemma 5 routing, grown as one batched forest
        trees = context.spt_trees([SPTJob(a) for a in self.landmarks]) \
            if not scalar_build_mode() else \
            [context.spt_tree(a) for a in self.landmarks]
        self._trees: Dict[int, CompactTreeRouting] = {}
        for a, tree in zip(self.landmarks, trees):
            self._trees[a] = CompactTreeRouting(tree, k=2)
        self.tables.charge_structures(
            "landmark_tree_tables",
            ((r.tree.nodes, r.table_bits_list()) for r in self._trees.values()))
        # every node also records its home landmark
        landmark_bits = bits_for_id(max(n, 2))
        for v in range(n):
            self.tables[v].charge("home_landmark", landmark_bits)

    def _build_clusters(self, context: BuildContext) -> NextHopTable:
        """Cluster columns from chunked, distance-limited multi-source Dijkstra."""
        graph = self.graph
        n = graph.n
        if graph.num_edges == 0:
            return NextHopTable(n, np.zeros(0, dtype=np.int64),
                                np.zeros(0, dtype=np.int64))
        from repro.construction.context import limited_dijkstra

        csr = graph.to_scipy_csr()
        dtl = self.dist_to_landmarks
        # chunk destinations by cluster radius so each kernel call stays local
        finite = np.isfinite(dtl)
        order = np.argsort(np.where(finite, dtl, np.inf), kind="stable")
        nodes_parts: List[np.ndarray] = []
        dest_parts: List[np.ndarray] = []
        hop_parts: List[np.ndarray] = []
        block = 256
        for start in range(0, n, block):
            targets = order[start:start + block]
            radii = dtl[targets]
            shared = float(radii.max()) if np.isfinite(radii).all() else None
            dist, pred = limited_dijkstra(csr, targets, shared,
                                          predecessors=True)
            # member x of v's column iff d(x, v) < d(v, A); pred[v-row, x] is
            # x's neighbor toward v
            member = dist < (radii[:, None] - 1e-12)
            member &= pred >= 0  # drops v itself and unreachable sources
            rows, xs = np.nonzero(member)
            nodes_parts.append(xs.astype(np.int64))
            dest_parts.append(targets[rows])
            hop_parts.append(pred[rows, xs].astype(np.int64))

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

        return NextHopTable.from_arrays(n, cat(nodes_parts), cat(dest_parts),
                                        cat(hop_parts))

    def _build_clusters_scalar(self) -> NextHopTable:
        """Original per-destination Python loop (build-parity reference)."""
        graph = self.graph
        n = graph.n
        per_node: List[Dict[Hashable, int]] = [dict() for _ in range(n)]
        for v in range(n):
            dist, parent = dijkstra(graph, v)
            name = graph.name_of(v)
            for x in range(n):
                if x == v or not np.isfinite(dist[x]):
                    continue
                if dist[x] < self.dist_to_landmarks[v] - 1e-12:
                    per_node[x][name] = int(parent[x])
        return NextHopTable.from_name_dicts(graph, per_node)

    # ------------------------------------------------------------------ #
    # labels
    # ------------------------------------------------------------------ #
    def label_bits(self, node: int) -> int:
        """Label = home landmark id + tree-routing label inside the home tree."""
        home = self.home[node]
        routing = self._trees[home]
        tree_label = routing.label_bits(node) if routing.tree.contains(node) else 0
        return bits_for_id(max(self.graph.n, 2)) + tree_label

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile landmark trees (bank); the cluster table is already compiled."""
        from repro.routing.forwarding import (ForwardingProgram, PacketPlan,
                                              TreeBank, table_leg, tree_leg)

        from repro.routing.forwarding import LEG_TABLE, LEG_TREE
        from repro.routing.kernels import BatchPlans

        bank = TreeBank(self.graph.n)
        tree_id_of = {a: bank.add(routing.tree) for a, routing in self._trees.items()}
        header = self.header_bits()

        def plan(source: int, destination: int) -> PacketPlan:
            if source == destination:
                return PacketPlan([], "cowen", 0)
            # phase 1: cluster routing; reaching the destination finalizes
            legs = [table_leg(0, "cowen-cluster", 1)]
            # phase 2: the destination's home-landmark tree.  The entry point
            # is wherever phase 1 stopped, resolved dynamically by the engine
            # (a miss there mirrors the scalar ``contains(current)`` guard).
            home = self.home[destination]
            routing = self._trees[home]
            if routing.tree.contains(destination):
                legs.append(tree_leg(tree_id_of[home], destination,
                                     "cowen-landmark", 2, terminal=True))
            return PacketPlan(legs, "cowen", 0)

        # vectorized batch planning: per-destination home-tree / target-slot
        # arrays, computed once per compiled program (the bank is frozen by
        # program construction, before the first batch arrives)
        dest_arrays: dict = {}

        def plan_batch(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            cached = dest_arrays.get("arrs")
            if cached is None:
                n = self.graph.n
                all_nodes = np.arange(n, dtype=np.int64)
                landmark_tree = np.full(n, -1, dtype=np.int64)
                for a, tid in tree_id_of.items():
                    landmark_tree[a] = tid
                home_tree = landmark_tree[
                    np.asarray([self.home[v] for v in range(n)], dtype=np.int64)]
                # slot >= 0 iff the home tree contains the node — the same
                # membership test ``plan`` runs via ``tree.contains``
                target_slot = bank.slots_of(home_tree, all_nodes)
                cached = (home_tree, target_slot)
                dest_arrays["arrs"] = cached
            home_tree, target_slot = cached
            num = int(src.size)
            nonself = src != dst
            has_tree = nonself & (target_slot[dst] >= 0)
            counts = nonself.astype(np.int64) + has_tree
            leg_lo = np.concatenate(([0], np.cumsum(counts)[:-1])) if num \
                else np.zeros(0, dtype=np.int64)
            total = int(counts.sum())
            # leg 0 (every non-self packet): the cluster-table phase;
            # leg 1 (packets whose home tree holds the destination): the
            # terminal landmark-tree walk
            leg_kind = np.full(total, LEG_TABLE, dtype=np.int8)
            leg_a = np.zeros(total, dtype=np.int64)
            leg_b = np.full(total, -1, dtype=np.int64)
            leg_strategy = np.ones(total, dtype=np.int64)      # "cowen-cluster"
            leg_phases = np.ones(total, dtype=np.int64)
            leg_terminal = np.zeros(total, dtype=bool)
            tree_pos = leg_lo[has_tree] + 1
            leg_kind[tree_pos] = LEG_TREE
            leg_a[tree_pos] = home_tree[dst[has_tree]]
            leg_b[tree_pos] = target_slot[dst[has_tree]]
            leg_strategy[tree_pos] = 2                         # "cowen-landmark"
            leg_phases[tree_pos] = 2
            leg_terminal[tree_pos] = True
            return BatchPlans(
                num=num, leg_kind=leg_kind, leg_a=leg_a, leg_b=leg_b,
                leg_strategy=leg_strategy, leg_phases=leg_phases,
                leg_terminal=leg_terminal, leg_lo=leg_lo,
                leg_hi=leg_lo + counts,
                out_strategy=np.zeros(num, dtype=np.int64),    # "cowen"
                out_phases=np.zeros(num, dtype=np.int64),
                strategy_names=["cowen", "cowen-cluster", "cowen-landmark"])

        return ForwardingProgram(self.graph, plan, bank=bank,
                                 tables=[self._cluster_table],
                                 header_bits=header, label="cowen",
                                 batch_planner=plan_batch)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Cluster route if possible, otherwise detour through the home landmark."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="cowen")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        if not self.graph.has_name(destination_name):
            return result
        destination = self.graph.index_of(destination_name)

        # phase 1: hop-by-hop cluster routing
        current = source
        for _ in range(self.graph.n + 1):
            nxt = self._cluster_table.lookup_one(current, destination)
            if nxt < 0:
                break
            result.cost += self.graph.edge_weight(current, nxt)
            result.path.append(nxt)
            current = nxt
            if current == destination:
                result.found = True
                result.strategy = "cowen-cluster"
                result.phases_used = 1
                return result

        # phase 2: through the destination's home landmark tree
        home = self.home[destination]
        routing = self._trees[home]
        if routing.tree.contains(current) and routing.tree.contains(destination):
            walk, cost = routing.walk(current, destination)
            result.extend(walk)
            result.cost += cost
            result.found = result.path[-1] == destination
            result.strategy = "cowen-landmark"
            result.phases_used = 2
        return result

    def header_bits(self) -> int:
        """Header carries the destination's label (landmark id + tree label)."""
        tree_label = max((t.header_bits() for t in self._trees.values()), default=0)
        return self.name_bits + bits_for_id(max(self.graph.n, 2)) + tree_label
