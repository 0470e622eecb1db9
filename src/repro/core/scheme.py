"""The scale-free name-independent routing scheme of Theorem 1.

Routing from ``u`` to the node named ``t`` is the simple iterative protocol
of Section 3: for levels ``i = 0, 1, ..., k``, search the neighborhood
``A(u, i)`` — with the *sparse* strategy (center + Lemma 4 bounded tree
search) if level ``i`` is sparse for ``u``, and with the *dense* strategy
(cover tree of ``G_{a(u,i)}`` + Lemma 7 dictionary lookup) if it is dense.
Every unsuccessful level reports the miss back to ``u`` and the next level
takes over; the guarantee balls grow with the level, the level at which the
destination must be found has radius ``O(d(u, t))``, and each level's cost is
proportional to its radius times ``O(k)`` — which is where the ``O(k)``
stretch comes from.

A last-resort fallback (one shortest-path tree per connected component,
rooted at the component's highest-rank landmark, carrying a Lemma 7
dictionary) guarantees that routing always terminates even when a
scaled-down experimental constant violates one of the w.h.p. lemmas; the
number of times the fallback fires is reported and is expected to be zero
(see DESIGN.md §3 item 5).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.construction.context import BuildContext, SPTJob, scalar_build_mode
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.dense_strategy import DenseStrategy
from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AGMParams
from repro.core.sparse_strategy import SparseStrategy
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import (DistanceOracle, exact_distance_oracle,
                                          shortest_path_tree)
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.error_reporting import DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng
from repro.utils.validation import require


class AGMRoutingScheme(RoutingSchemeInstance):
    """Abraham–Gavoille–Malkhi (SPAA 2006) scheme instance for one graph."""

    scheme_name = "agm"
    labeled = False

    def __init__(
        self,
        graph: WeightedGraph,
        k: int = 2,
        params: Optional[AGMParams] = None,
        oracle: Optional[DistanceOracle] = None,
        seed=None,
        context: Optional[BuildContext] = None,
    ) -> None:
        super().__init__(graph)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = int(k)
        self.params = params or AGMParams.paper()
        self.oracle = exact_distance_oracle(graph, oracle)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        context = context or BuildContext(graph, oracle=self.oracle, seed=seed)

        self.decomposition = NeighborhoodDecomposition(
            graph, self.k, oracle=self.oracle, params=self.params)
        self.landmarks = LandmarkHierarchy(
            graph, self.k, oracle=self.oracle, decomposition=self.decomposition,
            params=self.params, seed=derive_rng(seed, 1))
        self.sparse = SparseStrategy(
            graph, self.k, self.oracle, self.decomposition, self.landmarks,
            self.params, self.tables, seed=derive_rng(seed, 2), context=context)
        self.dense = DenseStrategy(
            graph, self.k, self.oracle, self.decomposition,
            self.params, self.tables, seed=derive_rng(seed, 3), context=context)
        self._build_fallback(seed, context)
        self._charge_base_tables()

        #: diagnostic counters (per-instance, reset-able)
        self.fallback_uses = 0

    @classmethod
    def build(cls, graph: WeightedGraph, k: int = 2,
              params: Optional[AGMParams] = None,
              oracle: Optional[DistanceOracle] = None,
              seed=None,
              context: Optional[BuildContext] = None) -> "AGMRoutingScheme":
        """Construct the scheme for ``graph`` (alias of the constructor)."""
        return cls(graph, k=k, params=params, oracle=oracle, seed=seed,
                   context=context)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_fallback(self, seed, context: BuildContext) -> None:
        names = self.graph.names_view()
        self._fallback: Dict[int, DictionaryTreeRouting] = {}
        self._fallback_of_node: Dict[int, int] = {}
        jobs: List[Tuple[int, List[int], int]] = []
        for index, component in enumerate(self.graph.connected_components()):
            root = max(component, key=lambda v: (self.landmarks.rank_of(v), -v))
            if len(component) == 1:
                continue
            jobs.append((index, component, root))
        if scalar_build_mode():
            trees = [shortest_path_tree(self.graph, root, members=component)
                     for _, component, root in jobs]
        else:
            trees = context.spt_trees(
                [SPTJob(root, component) for _, component, root in jobs])
        for (index, component, _), tree in zip(jobs, trees):
            tree_names = {v: names[v] for v in tree.nodes}
            routing = DictionaryTreeRouting(tree, tree_names,
                                            name_bits=self.params.name_bits,
                                            seed=derive_rng(seed, 7, index))
            self._fallback[index] = routing
            for v in component:
                self._fallback_of_node[v] = index
            for v, bits in zip(tree.nodes, routing.table_bits_list()):
                self.tables[v].charge("fallback_tables", bits)

    def _charge_base_tables(self) -> None:
        exponent_bits = bits_for_count(self.decomposition.top_exp + 1)
        for u in range(self.graph.n):
            # the node's own range list a(u, 0..k+1) and dense/sparse flags
            self.tables[u].charge("decomposition_ranges", exponent_bits, count=self.k + 2)
            self.tables[u].charge("level_flags", 1, count=self.k + 1)
            # the node's own rank in the landmark hierarchy
            self.tables[u].charge("landmark_rank", bits_for_count(self.k))

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Route from ``source`` to the node carrying ``destination_name``."""
        require(0 <= source < self.graph.n, f"source {source} out of range")
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits())
        if self.graph.name_at(source) == destination_name:
            result.found = True
            result.strategy = "local"
            return result

        for i in range(self.k + 1):
            result.phases_used = i + 1
            if self.decomposition.is_dense(source, i):
                walk, cost, found, _ = self.dense.route(source, i, destination_name)
                strategy = "dense"
            else:
                walk, cost, found, _ = self.sparse.route(source, i, destination_name)
                strategy = "sparse"
            result.extend(walk)
            result.cost += cost
            if found:
                result.found = True
                result.strategy = strategy
                return result

        # last-resort fallback (expected never to fire; counted when it does)
        component = self._fallback_of_node.get(source)
        if component is not None:
            self.fallback_uses += 1
            routing = self._fallback[component]
            lookup = routing.lookup(source, destination_name)
            result.extend(lookup.path)
            result.cost += lookup.cost
            result.notes["fallback_used"] = 1.0
            if lookup.found:
                result.found = True
                result.strategy = "fallback"
                return result
        result.found = False
        result.strategy = "not-found"
        return result

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile the full AGM walk structure for the lockstep engine.

        Every tree routing can touch — sparse-center Lemma 4 trees, dense
        cover trees with their Lemma 7 dictionaries, the per-component
        fallback trees — is registered in one :class:`TreeBank`.  Planning a
        pair replays the level-by-level control flow of :meth:`route` (which
        strategy, which dictionary hit or missed) without walking; the engine
        supplies the identical hops as array operations.  ``plan`` is the
        per-packet reference; the program's ``batch_planner``
        (:class:`~repro.core.batch_planner.AGMBatchPlanner`) emits the same
        legs for whole batches.
        """
        from repro.core.batch_planner import AGMBatchPlanner
        from repro.routing.forwarding import (ForwardingProgram, PacketPlan,
                                              TreeBank, mark_terminal, tree_leg)

        bank = TreeBank(self.graph.n)
        tree_id_of: Dict[int, int] = {}

        def register(routing) -> None:
            tree_id_of[id(routing)] = bank.add(routing.tree)

        for routing in self.sparse.trees.values():
            register(routing)
        for routings in self.dense.covers.values():
            for routing in routings:
                register(routing)
        for routing in self._fallback.values():
            register(routing)

        names = self.graph.names_view()
        header = self.header_bits()
        k = self.k

        def plan(source: int, destination: int) -> PacketPlan:
            require(0 <= source < self.graph.n, f"source {source} out of range")
            if source == destination:
                return PacketPlan([], "local", 0)
            target_name = names[destination]
            legs = []
            for i in range(k + 1):
                if self.decomposition.is_dense(source, i):
                    routing, targets, found = self.dense.plan_route(source, i, target_name)
                    strategy = "dense"
                else:
                    routing, targets, found = self.sparse.plan_route(source, i, target_name)
                    strategy = "sparse"
                if routing is not None and targets:
                    tree = tree_id_of[id(routing)]
                    legs.extend(tree_leg(tree, t) for t in targets)
                    if found:
                        mark_terminal(legs, strategy, i + 1)
                        return PacketPlan(legs, "not-found", k + 1)
            notes = None
            component = self._fallback_of_node.get(source)
            if component is not None:
                self.fallback_uses += 1
                notes = {"fallback_used": 1.0}
                routing = self._fallback[component]
                targets, found, _ = routing.plan_lookup(source, target_name)
                tree = tree_id_of[id(routing)]
                legs.extend(tree_leg(tree, t) for t in targets)
                if found:
                    mark_terminal(legs, "fallback", k + 1)
                    return PacketPlan(legs, "not-found", k + 1, notes=notes)
            return PacketPlan(legs, "not-found", k + 1, notes=notes)

        fallback_of_node = {v: self._fallback[component]
                            for v, component in self._fallback_of_node.items()}
        planner = AGMBatchPlanner(self, fallback_of_node, bank, tree_id_of)
        return ForwardingProgram(self.graph, plan, bank=bank,
                                 header_bits=header, label="agm",
                                 batch_planner=planner)

    # ------------------------------------------------------------------ #
    # header accounting
    # ------------------------------------------------------------------ #
    def header_bits(self) -> int:
        """Destination name + phase counter + the largest sub-strategy header."""
        sub = max(self.sparse.max_header_bits(), self.dense.max_header_bits(),
                  max((r.header_bits() for r in self._fallback.values()), default=0))
        return self.params.name_bits + bits_for_count(self.k + 1) + sub

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Headline facts, including AGM-specific counters."""
        base = super().describe()
        base.update({
            "k": self.k,
            "num_sparse_trees": len(self.sparse.trees),
            "num_dense_exponents": len(self.dense.covers),
            "fallback_uses": self.fallback_uses,
        })
        return base
