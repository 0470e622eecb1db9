"""Hierarchical name-independent routing with per-scale sparse covers [9, 10, 3].

This is the *non-scale-free* strategy the paper improves upon: build a tree
cover ``TC_{k, 2^i}(G)`` of the **whole graph** for every scale
``i = 0 .. ceil(log2 Δ)``, equip every cover tree with the Lemma 7
name-independent dictionary, and search scale by scale.  Because the
destination is inside the source's home tree as soon as ``2^i >= d(u, v)``,
the scheme reaches it with cost ``O(k · d(u, v))`` — the same ``O(k)``
stretch as the paper's scheme (this file uses the [3] improvements, matching
the "stretch ``O(k)`` with ``Õ(n^{1/k} log Δ)`` tables" row of Section 1.3).

The essential difference is space: every node participates in ``O(n^{1/k})``
trees *per scale* and there are ``Θ(log Δ)`` scales, so the per-node table
grows with the aspect ratio.  Experiment E3 measures exactly this growth and
contrasts it with the flat curve of the scale-free scheme.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Dict, Hashable, List, Optional

from repro.construction.context import BuildContext
from repro.covers.tree_cover import TreeCover, build_tree_cover
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.error_reporting import DictionaryFamily, DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng
from repro.utils.validation import require


class AwerbuchPelegRouting(RoutingSchemeInstance):
    """Name-independent hierarchical routing whose space scales with ``log Δ``."""

    scheme_name = "awerbuch-peleg"
    labeled = False

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
        self._build(seed, context or BuildContext(graph, oracle=self.oracle))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, seed, context: BuildContext) -> None:
        graph, oracle = self.graph, self.oracle
        d_min = oracle.min_positive_distance()
        diameter = oracle.diameter()
        self.d_min = d_min
        if diameter <= 0:
            self.num_scales = 1
        else:
            self.num_scales = max(1, int(math.ceil(math.log2(diameter / d_min))) + 1)

        # every scale reads the ball of every node: one all-pairs pass, when
        # it fits one forest block, serves all of them as row slices
        oracle.hold_all_pairs()

        def build_scale(scale: int) -> TreeCover:
            rho = d_min * (2.0 ** scale)
            return build_tree_cover(graph, self.k, rho, oracle=oracle,
                                    context=context)

        covers = context.map(build_scale, range(self.num_scales))
        # one Lemma 7 family over every scale's cover trees; seeds derive
        # from (scale, tree index), drawn after the fan-out in that order
        family = DictionaryFamily(
            [tree for cover in covers for tree in cover.trees],
            graph.names_view(),
            (derive_rng(seed, scale, t_index)
             for scale, cover in enumerate(covers)
             for t_index in range(len(cover.trees))),
            name_bits=self.name_bits, folded=context.folded_names())
        routings = iter(family.routings)
        #: scale -> list of Lemma 7 structures, one per cover tree
        self.scales: List[List[DictionaryTreeRouting]] = [
            list(islice(routings, len(cover.trees))) for cover in covers]
        #: scale -> {node -> index of its home tree}
        self.home: List[Dict[int, int]] = [dict(cover.home) for cover in covers]
        self.tables.charge_structures("scale_tree_tables", [family.table_bits()])
        scale_bits = bits_for_count(self.num_scales) + bits_for_id(max(graph.n, 2))
        for v in range(graph.n):
            self.tables[v].charge("home_pointers", scale_bits, count=self.num_scales)

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile every scale's cover trees; plan the scale-by-scale search."""
        from repro.routing.forwarding import (ForwardingProgram, PacketPlan,
                                              TreeBank, mark_terminal, tree_leg)

        bank = TreeBank(self.graph.n)
        tree_id_of = {}
        for routings in self.scales:
            for routing in routings:
                tree_id_of[id(routing)] = bank.add(routing.tree)
        names = self.graph.names_view()
        header = self.header_bits()

        def plan(source: int, destination: int) -> PacketPlan:
            if source == destination:
                return PacketPlan([], "awerbuch-peleg", 0)
            target_name = names[destination]
            legs = []
            for scale in range(self.num_scales):
                index = self.home[scale].get(source)
                if index is None:
                    continue
                routing = self.scales[scale][index]
                targets, found, _ = routing.plan_lookup(source, target_name)
                tree = tree_id_of[id(routing)]
                legs.extend(tree_leg(tree, t) for t in targets)
                if found:
                    mark_terminal(legs, "awerbuch-peleg", scale + 1)
                    return PacketPlan(legs, "awerbuch-peleg", 0)
            return PacketPlan(legs, "awerbuch-peleg", self.num_scales)

        return ForwardingProgram(self.graph, plan, bank=bank,
                                 header_bits=header, label="awerbuch-peleg")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Search scale by scale through the source's home trees."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="awerbuch-peleg")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        for scale in range(self.num_scales):
            result.phases_used = scale + 1
            index = self.home[scale].get(source)
            if index is None:
                continue
            routing = self.scales[scale][index]
            lookup = routing.lookup(source, destination_name)
            result.extend(lookup.path)
            result.cost += lookup.cost
            if lookup.found:
                result.found = True
                return result
        return result

    def compute_header_bits(self) -> int:
        """Destination name + scale counter + the Lemma 7 sub-header."""
        sub = max((r.header_bits() for routings in self.scales for r in routings), default=0)
        return self.name_bits + bits_for_count(max(self.num_scales, 1)) + sub
