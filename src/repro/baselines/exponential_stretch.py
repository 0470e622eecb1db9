"""A prior-generation scale-free name-independent scheme (after [7, 8, 6]).

Before this paper, the only *scale-free* name-independent schemes were based
on pure random sampling and paid an exponential price in stretch: with
``Õ(n^{1/k})``-bit tables the best known stretch was ``O(2^k)``
(Awerbuch–Bar-Noy–Linial–Peleg [7, 8], improved to ``O(k^2 2^k)`` by Arias et
al. [6]).  This module implements a representative member of that family so
that experiment E4 can contrast its stretch growth with the linear growth of
the AGM scheme.  It is a stand-in for the family, not a line-by-line
reimplementation of [7] (DESIGN.md §3 item 7).

Construction: ``k+1`` landmark levels ``L_0 = V ⊇ L_1 ⊇ ... ⊇ L_k``
(level ``i`` sampled with probability ``n^{-i/k}``; the top level is forced
to a single landmark per component).  A level-``i`` landmark is responsible
for its ``c · n^{i/k}`` closest nodes (the top level for all of them).  At
level 0 every node is its own landmark: it stores the names of its ``c``
closest nodes with a shortest-path source route to each.  At levels
``1..k`` the landmark's shortest-path tree over its responsibility ball
carries a Lemma 7 name-independent dictionary.  A search from ``u`` first
checks ``u``'s own level-0 ball, then asks ``u``'s nearest level-1 landmark,
then its nearest level-2 landmark, and so on; each failed level costs a round
trip proportional to the responsibility radius of that level's landmark,
radii that are *not* calibrated to ``d(u, v)`` — which is exactly why the
stretch degrades quickly as ``k`` grows while the table size shrinks.
Without level 0 even an adjacent destination would pay such a round trip.
"""

from __future__ import annotations

import math

import numpy as np
from typing import Dict, Hashable, List, Optional, Tuple

from repro.construction.context import BuildContext, SPTJob
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.error_reporting import DictionaryFamily, DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng, make_rng
from repro.utils.validation import require


def nearest_with_parents(graph: WeightedGraph, size: int
                         ) -> Tuple[List[List[int]], List[List[int]]]:
    """Every node's ``size`` closest nodes with their shortest-path parents.

    Row ``u`` of the first list holds ``u`` and its closest nodes in
    ``(distance, node index)`` order (fewer when the component is smaller).
    Entry ``j`` of row ``u`` of the second list is the position in that row
    of the node's predecessor on a shortest path from ``u`` (``-1`` for
    ``u``).  The predecessor always precedes the node, because it is closer
    to ``u``.  One Dijkstra per node stops after ``size`` nodes.  It scans
    each settled node's neighbors in ``(weight, index)`` order, so a
    high-degree node costs one step per settled node, not its degree.
    """
    csr = graph.to_scipy_csr()
    rows = np.repeat(np.arange(graph.n), np.diff(csr.indptr))
    order = np.lexsort((csr.indices, csr.data, rows))
    indptr = csr.indptr.tolist()
    neighbor = csr.indices[order].tolist()
    weight = csr.data[order].tolist()
    members_of: List[List[int]] = []
    parents_of: List[List[int]] = []
    for u in range(graph.n):
        members, dists, parents = [u], [0.0], [-1]
        cursor = [indptr[u]]
        while len(members) < size:
            best = None
            for j, x in enumerate(members):
                p, end = cursor[j], indptr[x + 1]
                while p < end and neighbor[p] in members:
                    p += 1
                cursor[j] = p
                if p < end:
                    key = (dists[j] + weight[p], neighbor[p])
                    if best is None or key < best[0]:
                        best = (key, j)
            if best is None:
                break
            (d, y), j = best
            members.append(y)
            dists.append(d)
            parents.append(j)
            cursor.append(indptr[y])
        members_of.append(members)
        parents_of.append(parents)
    return members_of, parents_of


class ExponentialStretchRouting(RoutingSchemeInstance):
    """Random-sampling name-independent routing with super-linear stretch in k."""

    scheme_name = "exponential"
    labeled = False

    def __init__(self, graph: WeightedGraph, k: int = 2,
                 oracle: Optional[DistanceOracle] = None,
                 seed=None, name_bits: int = 64,
                 responsibility_factor: float = 4.0,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = int(k)
        self.oracle = oracle or DistanceOracle(graph)
        self.name_bits = int(name_bits)
        self.responsibility_factor = float(responsibility_factor)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        self._build(seed, context or BuildContext(graph, oracle=self.oracle))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, seed, context: BuildContext) -> None:
        graph, oracle = self.graph, self.oracle
        rng = make_rng(seed)
        n = graph.n
        names = graph.names_view()

        # landmark levels L_1 .. L_k (L_0 = V is implicit and unused for trees)
        self.levels: List[List[int]] = []
        current = list(range(n))
        for i in range(1, self.k + 1):
            probability = max(n, 2) ** (-(1.0) / self.k)
            kept = [v for v in current if rng.random() < probability]
            if not kept:
                kept = [current[0]]
            current = kept
            self.levels.append(sorted(current))
        # force the top level to one landmark per component so searches terminate
        components = graph.connected_components()
        top: List[int] = []
        for component in components:
            in_top = [v for v in self.levels[-1] if v in set(component)]
            top.append(min(in_top) if in_top else min(component))
        self.levels[-1] = sorted(set(top))

        # nearest landmark of each level for every node, vectorized (the
        # oracle helper handles the (distance, node-index) tie-break)
        self.nearest: List[List[int]] = []
        for i in range(self.k):
            ids, _ = oracle.nearest_member(self.levels[i])
            self.nearest.append(ids.tolist())

        # responsibility trees with Lemma 7 dictionaries, grown as one batched
        # forest — each (level, landmark) job carries its responsibility ball
        # radius as the kernel limit, so low-level trees stay local searches
        jobs: List[SPTJob] = []
        job_keys: List[tuple] = []
        for i in range(self.k):
            count = int(math.ceil(self.responsibility_factor * (max(n, 2) ** ((i + 1) / self.k))))
            if i == self.k - 1:
                count = n  # the top level is responsible for everything
            for chunk in oracle.iter_prefetched_chunks(self.levels[i]):
                for w in chunk:
                    responsibility = oracle.nearest(w, count)
                    limit = float(oracle.row(w)[responsibility].max()) \
                        if responsibility else 0.0
                    jobs.append(SPTJob(w, responsibility, limit))
                    job_keys.append((i, w))
        family = DictionaryFamily(
            context.spt_trees(jobs), names,
            (derive_rng(seed, 11, i, w) for i, w in job_keys),
            name_bits=self.name_bits, folded=context.folded_names())
        self._tree_key: Dict[tuple, DictionaryTreeRouting] = \
            dict(zip(job_keys, family.routings))
        self.tables.charge_structures("responsibility_tables",
                                      [family.table_bits()])
        landmark_bits = bits_for_id(max(n, 2))
        for v in range(n):
            self.tables[v].charge("nearest_landmarks", landmark_bits, count=self.k)

        # level 0: every node's own c closest nodes, each with a source route
        # of at most c - 1 ports
        size = int(math.ceil(self.responsibility_factor))
        self.vicinity, self.vicinity_parent = nearest_with_parents(graph, size)
        port_bits = bits_for_id(max(graph.max_degree(), 1)) if graph.num_edges else 1
        self.route_bits = port_bits * max(size - 1, 0)
        for v in range(n):
            self.tables[v].charge("vicinity_routes",
                                  self.name_bits + self.route_bits,
                                  count=len(self.vicinity[v]) - 1)

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile the responsibility trees; plan the level-by-level search."""
        from repro.routing.forwarding import (ForwardingProgram, PacketPlan,
                                              TreeBank, literal_leg,
                                              mark_terminal, tree_leg)

        bank = TreeBank(self.graph.n)
        tree_id_of = {key: bank.add(routing.tree)
                      for key, routing in self._tree_key.items()}
        names = self.graph.names_view()
        header = self.header_bits()

        def plan(source: int, destination: int) -> PacketPlan:
            if source == destination:
                return PacketPlan([], "exponential", 0)
            members = self.vicinity[source]
            if destination in members:
                hops = self._vicinity_route(source, members.index(destination))
                return PacketPlan([literal_leg(hops)], "exponential", 0)
            target_name = names[destination]
            legs = []
            for i in range(self.k):
                landmark = self.nearest[i][source]
                routing = self._tree_key.get((i, landmark))
                if routing is None or not routing.tree.contains(source):
                    continue
                targets, found, _ = routing.plan_lookup(source, target_name)
                tree = tree_id_of[(i, landmark)]
                legs.extend(tree_leg(tree, t) for t in targets)
                if found:
                    mark_terminal(legs, "exponential", i + 1)
                    return PacketPlan(legs, "exponential", 0)
            return PacketPlan(legs, "exponential", self.k)

        return ForwardingProgram(self.graph, plan, bank=bank,
                                 header_bits=header, label="exponential")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Check the level-0 ball, then ask the nearest landmark of each level."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="exponential")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        names = self.graph.names_view()
        members = self.vicinity[source]
        for position in range(1, len(members)):
            if names[members[position]] == destination_name:
                for hop in self._vicinity_route(source, position):
                    result.cost += self.graph.edge_weight(result.path[-1], hop)
                    result.path.append(hop)
                result.found = True
                return result
        for i in range(self.k):
            result.phases_used = i + 1
            landmark = self.nearest[i][source]
            routing = self._tree_key.get((i, landmark))
            if routing is None or not routing.tree.contains(source):
                continue
            lookup = routing.lookup(source, destination_name)
            result.extend(lookup.path)
            result.cost += lookup.cost
            if lookup.found:
                result.found = True
                return result
        return result

    def _vicinity_route(self, source: int, position: int) -> List[int]:
        """Hops of the source route to ``self.vicinity[source][position]``."""
        members, parents = self.vicinity[source], self.vicinity_parent[source]
        hops = []
        while position > 0:
            hops.append(members[position])
            position = parents[position]
        hops.reverse()
        return hops

    def compute_header_bits(self) -> int:
        """Destination name + level counter + a source route or the Lemma 7 sub-header."""
        sub = max((r.header_bits() for r in self._tree_key.values()), default=0)
        return (self.name_bits + bits_for_count(self.k + 1)
                + max(sub, self.route_bits))
