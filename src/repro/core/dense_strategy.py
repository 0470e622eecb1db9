"""Dense neighborhood routing strategy (Sections 3.4–3.6).

For a dense level ``i`` of the source ``u`` (the population multiplies within
a constant radius blow-up), the scheme uses tree covers of bounded radius.
The crucial scale-free twist is that the cover at radius ``2^j`` is built
**only on the subgraph** ``G_j`` induced by the nodes whose extended range
set ``R(·)`` contains ``j`` — Lemma 2 shows that for a dense level the whole
guarantee ball ``F(u,i) = B(u, 2^{a(u,i)-1})`` lies inside ``G_{a(u,i)}``, so
routing on a cover tree of ``G_{a(u,i)}`` finds it.  Because ``|R(v)| = O(k)``
for every node, each node participates in only ``O(k)`` covers no matter how
large the aspect ratio is.

When ``V_j`` holds every node, ``G_j`` is the graph itself: its cover is
built on the host graph with the scheme's own oracle and build context (the
held all-pairs rows serve its balls), and no copy of the graph, oracle or
context is made.  A proper subset keeps the induced-subgraph path.

Each cover tree carries the Lemma 7 name-independent dictionary so that a
lookup costs ``O(rad(T))`` and reports misses back to the source.  The
dictionaries of every cover tree of every exponent form one
:class:`~repro.trees.error_reporting.DictionaryFamily`: one hashing pass and
one CSR for the whole strategy.

Lazy materialization (DESIGN.md §3 item 1): covers are only built for
exponents that are the range ``a(u,i)`` of some dense level actually present
in the graph; other exponents of ``R(u)`` can never be the target of a
dense-level search.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.construction.context import BuildContext
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.params import AGMParams
from repro.covers.tree_cover import TreeCover, build_tree_cover
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.table import TableCollection
from repro.trees.error_reporting import DictionaryFamily, DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng
from repro.utils.validation import require


class DenseStrategy:
    """Preprocessed dense-level routing state for one graph."""

    def __init__(
        self,
        graph: WeightedGraph,
        k: int,
        oracle: DistanceOracle,
        decomposition: NeighborhoodDecomposition,
        params: AGMParams,
        tables: TableCollection,
        seed=None,
        context: Optional[BuildContext] = None,
    ) -> None:
        self.graph = graph
        self.k = int(k)
        self.oracle = oracle
        self.decomposition = decomposition
        self.params = params
        self.tables = tables

        #: exponent j -> list of Lemma 7 structures (one per cover tree of G_j)
        self.covers: Dict[int, List[DictionaryTreeRouting]] = {}
        #: exponent j -> {global node -> index of its home tree in covers[j]}
        self.home_index: Dict[int, Dict[int, int]] = {}
        #: (u, i) -> exponent a(u, i) for every dense level
        self.exponent_of: Dict[Tuple[int, int], int] = {}

        self._build(seed, context or BuildContext(graph, oracle=oracle))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, seed, context: BuildContext) -> None:
        graph, k = self.graph, self.k

        # 1. which exponents are the range of some dense level
        needed: Set[int] = set()
        for u in range(graph.n):
            for i in range(k + 1):
                if self.decomposition.is_dense(u, i):
                    j = self.decomposition.range(u, i)
                    self.exponent_of[(u, i)] = j
                    needed.add(j)
        if not needed:
            return

        # 2. the extended-range populations V_j = { v : j in R(v) }
        members = self.decomposition.extended_range_members()

        # 3. one tree cover per needed exponent, built on G_j.  Exponents are
        # independent build units, so they fan out over the context's
        # workers.  A population that covers every node makes G_j the graph
        # itself, so the cover reads the host graph's oracle and context (the
        # held all-pairs rows, the shared edge index) instead of a copy.
        def build_exponent(j: int) -> Optional[TreeCover]:
            population = members.get(j, [])
            if not population:
                return None
            rho = self.decomposition.radius_of_exponent(j)
            if len(population) == graph.n:
                return build_tree_cover(graph, k, rho, oracle=self.oracle,
                                        context=context)
            subgraph, mapping = graph.subgraph(population)
            # the cover build reads one radius-limited ball pass plus local
            # cluster trees, which the default oracle computes on demand
            sub_oracle = DistanceOracle(subgraph)
            sub_context = BuildContext(subgraph, oracle=sub_oracle)
            # built in global node ids: the cover's trees are the routing trees
            return build_tree_cover(subgraph, k, rho, oracle=sub_oracle,
                                    context=sub_context, mapping=mapping)

        exponents = sorted(needed)
        covers = context.map(build_exponent, exponents)

        # 4. one Lemma 7 family over every cover tree; seeds derive from the
        # exponent's position in the sorted order and the tree's index, drawn
        # after the fan-out in that order, so parallel builds match serial
        keys = [(count, t_index)
                for count, cover in enumerate(covers) if cover is not None
                for t_index in range(len(cover.trees))]
        family = DictionaryFamily(
            [tree for cover in covers if cover is not None for tree in cover.trees],
            graph.names_view(),
            (derive_rng(seed, 202, count, t_index) for count, t_index in keys),
            name_bits=self.params.name_bits, folded=context.folded_names())
        routings = iter(family.routings)
        for j, cover in zip(exponents, covers):
            if cover is not None:
                self.covers[j] = list(islice(routings, len(cover.trees)))
                self.home_index[j] = cover.home

        # 5. storage accounting
        idbits = bits_for_id(max(graph.n, 2))
        self.tables.charge_structures("dense_tree_tables", [family.table_bits()])
        exponent_bits = bits_for_count(self.decomposition.top_exp + 1)
        for (u, i), j in self.exponent_of.items():
            # the node records the exponent and the root w(u, i) of its home tree
            self.tables[u].charge("dense_level_pointers", exponent_bits + idbits)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_applicable(self, u: int, i: int) -> bool:
        """Whether level ``i`` of node ``u`` is handled by this strategy."""
        if (u, i) not in self.exponent_of:
            return False
        j = self.exponent_of[(u, i)]
        return j in self.home_index and u in self.home_index[j]

    def home_tree_routing(self, u: int, i: int) -> DictionaryTreeRouting:
        """The Lemma 7 structure of ``W(u, i)`` (the tree covering ``B(u, 2^{a(u,i)})``)."""
        j = self.exponent_of[(u, i)]
        return self.covers[j][self.home_index[j][u]]

    def root(self, u: int, i: int) -> int:
        """``w(u, i)``: the root of ``W(u, i)``."""
        return self.home_tree_routing(u, i).tree.root

    def max_header_bits(self) -> int:
        """Largest sub-header any dense-level lookup may need."""
        return max((r.header_bits() for routings in self.covers.values() for r in routings),
                   default=0)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, u: int, i: int, target_name: Hashable
              ) -> Tuple[List[int], float, bool, Optional[int]]:
        """Execute the dense strategy for level ``i`` from node ``u``.

        Returns ``(walk, cost, found, destination)``; the walk starts at ``u``
        and, when the destination is not found, ends back at ``u``.
        """
        require((u, i) in self.exponent_of, f"level {i} is not dense for node {u}")
        if not self.is_applicable(u, i):
            return [u], 0.0, False, None
        routing = self.home_tree_routing(u, i)
        result = routing.lookup(u, target_name)
        return list(result.path), result.cost, result.found, result.destination

    def plan_route(self, u: int, i: int, target_name: Hashable
                   ) -> Tuple[Optional[DictionaryTreeRouting], List[int], bool]:
        """The waypoints of :meth:`route` without performing the walk.

        Returns ``(routing, targets, found)``: the Lemma 7 lookup waypoints
        (root, responsible node, then destination or back to ``u``) inside the
        home tree of level ``i``, or ``(None, [], False)`` when the level is
        inapplicable — the same case :meth:`route` degrades on.
        """
        require((u, i) in self.exponent_of, f"level {i} is not dense for node {u}")
        if not self.is_applicable(u, i):
            return None, [], False
        routing = self.home_tree_routing(u, i)
        targets, found, _ = routing.plan_lookup(u, target_name)
        return routing, targets, found
