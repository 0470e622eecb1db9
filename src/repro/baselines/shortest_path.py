"""Shortest-path routing with full tables (the trivial stretch-1 scheme).

Every node stores, for every destination *name*, the local port of the next
hop on a shortest path — ``(n-1)`` entries of ``Θ(log n)`` bits each, i.e.
``Ω(n log n)`` bits per node.  The paper's Section 1 uses this scheme as the
motivation for compact routing: perfect stretch, unacceptable space.

Construction is array-native: one chunked multi-source Dijkstra pass (one
:meth:`~repro.graphs.shortest_paths.DistanceOracle.shortest_path_forest`
call per block of destinations) fills an ``(n, n)`` int32 next-hop
matrix column by column — the predecessor of ``x`` on the path *from* the
destination is exactly ``x``'s next hop *toward* it.  The matrix doubles as
the compiled forwarding table
(:class:`~repro.routing.forwarding.DenseNextHopTable` wraps the same array),
so compiling is free.  When one block covers every destination, the oracle
keeps that pass's distance rows for the current graph version, so exact
stretch scoring after a build or a rebuild runs no Dijkstra of its own.

Churn repair is the inherited full rebuild
(:func:`repro.dynamics.repair.full_rebuild`): a flap batch on a scale-free
graph moves nearly every destination column, so a per-column repair would
have little of the blocked build left to skip.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.construction.context import BuildContext
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, forest_block_size
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.storage import alloc_array
from repro.utils.bitsize import bits_for_id


class ShortestPathRouting(RoutingSchemeInstance):
    """Stretch-1 routing with per-destination next-hop tables."""

    scheme_name = "shortest-path"
    labeled = False

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None,
                 name_bits: int = 64,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        self.oracle = oracle or DistanceOracle(graph)
        self.name_bits = int(name_bits)
        self._context = context
        #: next_hop[u, v] = neighbor of u on a shortest u→v path (-1 absent);
        #: memmap-backed above the REPRO_MEMORY_BUDGET (40 GB at n=100k)
        self._next_hop: np.ndarray = alloc_array((graph.n, graph.n), np.int32,
                                                 fill=-1)
        self._charge_tables(self._build())

    def _build(self) -> np.ndarray:
        """Fill the next-hop matrix with one kernel call per destination block.

        Returns the per-source entry counts, accumulated from the same
        predecessor blocks the build streams — the space accounting then
        never has to re-read the (possibly memmapped) matrix.
        """
        graph = self.graph
        counts = np.zeros(graph.n, dtype=np.int64)
        if graph.num_edges == 0:
            return counts
        # when one block covers every destination, the oracle keeps its
        # distance rows; when it takes several, the (possibly memmapped)
        # next-hop matrix is the only full-size object in play
        block = forest_block_size(graph.n)
        for start in range(0, graph.n, block):
            targets = np.arange(start, min(start + block, graph.n))
            pred = self.oracle.shortest_path_forest(targets)[1]
            # pred[t, x] = node before x on the path from t, i.e. x's next hop
            # toward t; sources with no path (and t itself) stay -1.  Clamped
            # in place: a temporary would stack on the oracle's kept rows
            np.maximum(pred, -1, out=pred)
            self._next_hop[:, targets] = pred.T
            counts += (pred >= 0).sum(axis=0)
        return counts

    def _charge_tables(self, counts: np.ndarray) -> None:
        graph = self.graph
        port_bits = bits_for_id(max(graph.max_degree(), 1)) if graph.num_edges else 1
        for u in range(graph.n):
            self.tables[u].charge("next_hop_entries", self.name_bits + port_bits,
                                  count=int(counts[u]))

    def compile_forwarding(self):
        """Wrap the next-hop matrix as a dense compiled table (zero copy)."""
        from repro.routing.forwarding import (DenseNextHopTable,
                                              ForwardingProgram, PacketPlan,
                                              table_leg)
        from repro.routing.forwarding import LEG_TABLE
        from repro.routing.kernels import BatchPlans

        table = DenseNextHopTable(self._next_hop)
        header = self.header_bits()
        # only two distinct plans exist; share the (immutable) objects
        self_plan = PacketPlan([], "shortest-path", 0)
        table_plan = PacketPlan([table_leg(0, "shortest-path", 1)], "shortest-path", 0)

        def plan(source: int, destination: int) -> PacketPlan:
            return self_plan if source == destination else table_plan

        def plan_batch(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            # vectorized sibling of ``plan``: one table leg per non-self pair
            num = int(src.size)
            counts = (src != dst).astype(np.int64)
            leg_lo = np.concatenate(([0], np.cumsum(counts)[:-1])) if num \
                else np.zeros(0, dtype=np.int64)
            total = int(counts.sum())
            return BatchPlans(
                num=num,
                leg_kind=np.full(total, LEG_TABLE, dtype=np.int8),
                leg_a=np.zeros(total, dtype=np.int64),
                leg_b=np.full(total, -1, dtype=np.int64),
                leg_strategy=np.zeros(total, dtype=np.int64),
                leg_phases=np.ones(total, dtype=np.int64),
                leg_terminal=np.zeros(total, dtype=bool),
                leg_lo=leg_lo, leg_hi=leg_lo + counts,
                out_strategy=np.zeros(num, dtype=np.int64),
                out_phases=np.zeros(num, dtype=np.int64),
                strategy_names=["shortest-path"])

        return ForwardingProgram(self.graph, plan, tables=[table],
                                 header_bits=header, label="shortest-path",
                                 batch_planner=plan_batch)

    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Follow the per-hop shortest-path tables."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="shortest-path")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        if not self.graph.has_name(destination_name):
            return result
        destination = self.graph.index_of(destination_name)
        current = source
        for _ in range(self.graph.n + 1):
            nxt = int(self._next_hop[current, destination])
            if nxt < 0:
                return result
            result.cost += self.graph.edge_weight(current, nxt)
            result.path.append(nxt)
            current = nxt
            if current == destination:
                result.found = True
                result.phases_used = 1
                return result
        return result

    def compute_header_bits(self) -> int:
        """Only the destination name travels in the header."""
        return self.name_bits
