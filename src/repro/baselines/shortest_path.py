"""Shortest-path routing with full tables (the trivial stretch-1 scheme).

Every node stores, for every destination *name*, the local port of the next
hop on a shortest path — ``(n-1)`` entries of ``Θ(log n)`` bits each, i.e.
``Ω(n log n)`` bits per node.  The paper's Section 1 uses this scheme as the
motivation for compact routing: perfect stretch, unacceptable space.

Construction is array-native: one chunked multi-source Dijkstra pass (one
kernel call per block of destinations) fills an ``(n, n)`` int32 next-hop
matrix column by column — the predecessor of ``x`` on the path *from* the
destination is exactly ``x``'s next hop *toward* it.  The matrix doubles as
the compiled forwarding table
(:class:`~repro.routing.forwarding.DenseNextHopTable` wraps the same array),
so compiling is free and churn repair patches scheme and engine state with
one write.  ``REPRO_BUILD_MODE=scalar`` rebuilds through the original
per-destination Python-heap Dijkstra loop for the build-parity tests.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.construction.context import BuildContext, scalar_build_mode
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, dijkstra, exact_distance_oracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.storage import alloc_array, memory_budget
from repro.utils.bitsize import bits_for_id


def sp_block_size(n: int) -> int:
    """Destinations per multi-source Dijkstra call in the blocked build.

    Budget-aware: one in-flight block costs ~``n * 12`` bytes per
    destination (float64 distance row + int32 predecessor row), and the cap
    keeps that slab under a quarter of ``REPRO_MEMORY_BUDGET`` so the
    (possibly memmapped) next-hop matrix stays the only full-size object in
    play.
    """
    budget = memory_budget()
    slab = (4 << 30) if budget is None else budget // 4
    per_dest = max(n, 1) * 12
    return int(min(4096, max(64, slab // per_dest)))


class ShortestPathRouting(RoutingSchemeInstance):
    """Stretch-1 routing with per-destination next-hop tables."""

    scheme_name = "shortest-path"
    labeled = False

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None,
                 name_bits: int = 64,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        self.oracle = exact_distance_oracle(graph, oracle)
        self.name_bits = int(name_bits)
        self._context = context
        #: next_hop[u, v] = neighbor of u on a shortest u→v path (-1 absent);
        #: memmap-backed above the REPRO_MEMORY_BUDGET (40 GB at n=100k)
        self._next_hop: np.ndarray = alloc_array((graph.n, graph.n), np.int32,
                                                 fill=-1)
        if scalar_build_mode():
            counts = self._build_scalar()
        else:
            counts = self._build()
        self._charge_tables(counts)

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
        from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

        csr = graph.to_scipy_csr()
        block = sp_block_size(graph.n)
        for start in range(0, graph.n, block):
            targets = np.arange(start, min(start + block, graph.n))
            pred = _scipy_dijkstra(csr, directed=False, indices=targets,
                                   return_predecessors=True)[1]
            pred = np.atleast_2d(pred)
            # pred[t, x] = node before x on the path from t, i.e. x's next hop
            # toward t; sources with no path (and t itself) stay -1
            self._next_hop[:, targets] = np.where(pred < 0, -1, pred).T
            counts += (pred >= 0).sum(axis=0)
        return counts

    def _build_scalar(self) -> np.ndarray:
        """Original per-destination Python-heap loop (build-parity reference)."""
        graph = self.graph
        counts = np.zeros(graph.n, dtype=np.int64)
        for target in range(graph.n):
            # A single Dijkstra from the *destination* gives every source's
            # next hop at once (the parent pointer points toward the target).
            dist, parent = dijkstra(graph, target)
            reachable = np.isfinite(dist) & (parent >= 0)
            self._next_hop[reachable, target] = parent[reachable]
            counts[reachable] += 1
        return counts

    def _charge_tables(self, counts: Optional[np.ndarray] = None) -> None:
        graph = self.graph
        port_bits = bits_for_id(max(graph.max_degree(), 1)) if graph.num_edges else 1
        if counts is None:
            counts = self._entry_counts()
        for u in range(graph.n):
            self.tables[u].charge("next_hop_entries", self.name_bits + port_bits,
                                  count=int(counts[u]))

    def _entry_counts(self) -> np.ndarray:
        """Per-source live-entry counts, row-blocked so the comparison
        temporary stays ~256 MB rather than a full n×n bool (10 GB at
        n=100k, defeating the memory budget)."""
        n = self.graph.n
        counts = np.empty(n, dtype=np.int64)
        block = max(1, (1 << 28) // max(n, 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            counts[start:stop] = (self._next_hop[start:stop] >= 0).sum(axis=1)
        return counts

    # ------------------------------------------------------------------ #
    # dynamic maintenance
    # ------------------------------------------------------------------ #
    def maintain(self, delta=None):
        """Incremental repair: revalidate entries, recompute dirty columns only.

        Every ``(source, destination)`` next-hop entry is checked against
        fresh shortest-path distances with array gathers — an entry ``x -> p``
        toward ``t`` survives iff the edge ``(x, p)`` still exists and
        ``w(x, p) + d(p, t) == d(x, t)``.  A destination is *dirty* (full
        column recompute by one vectorized multi-source Dijkstra) only when a
        still-connected pair needs rerouting; columns whose only damage is
        entries from now-disconnected sources are pruned without any
        Dijkstra.  Scheme state and compiled forwarding program share the
        same next-hop matrix, so one column write repairs both — the
        forwarding program survives the event batch.  Cost: ``O(entries)``
        array work plus Dijkstras for dirty destinations only, versus one
        Dijkstra per destination for a full rebuild.
        """
        import time as _time

        from repro.dynamics.repair import RepairReport, full_rebuild

        if delta is None:
            return full_rebuild(self, delta)
        start = _time.perf_counter()
        graph, oracle = self.graph, self.oracle
        n = graph.n
        table = self.compiled_forwarding().tables[0]
        keys, hops = table.entries()
        sources_of = keys // n
        dests_of = keys % n

        # 1. classify every entry with one CSR gather for the edge weights and
        #    two batched pair-distance gathers (dense: direct matrix fancy
        #    index; lazy: per-destination grouped row streaming inside
        #    ``pair_distances``):
        #    valid        — edge alive and still on a shortest path;
        #    reroutable   — broken, but source and destination stay connected
        #                   (the column needs a fresh Dijkstra);
        #    the rest     — source fell off the component: delete-only.
        if keys.size:
            csr = graph.to_scipy_csr()
            edge_w = np.asarray(csr[sources_of, hops]).ravel() if graph.num_edges \
                else np.zeros(keys.size)
            d_x = oracle.pair_distances(dests_of, sources_of)
            d_p = oracle.pair_distances(dests_of, hops)
            reachable = np.isfinite(d_x)
            valid = (edge_w > 0.0) & reachable & np.isclose(
                edge_w + d_p, d_x, rtol=1e-9, atol=1e-9)
        else:
            valid = np.zeros(0, dtype=bool)
            reachable = np.zeros(0, dtype=bool)

        # 2. dirty destinations (full column recompute): a broken entry whose
        #    endpoints are still connected, or a valid-entry count that no
        #    longer matches the component size (reachability appeared).
        #    Columns whose only problem is entries from now-disconnected
        #    sources are merely *pruned* — no Dijkstra needed.
        comp = graph.component_ids()
        comp_sizes = np.bincount(comp)
        expected = comp_sizes[comp] - 1
        valid_counts = np.bincount(dests_of[valid], minlength=n) if keys.size \
            else np.zeros(n, dtype=np.int64)
        broken = ~valid & reachable
        broken_counts = np.bincount(dests_of[broken], minlength=n) if keys.size \
            else np.zeros(n, dtype=np.int64)
        stale = ~valid & ~reachable
        stale_counts = np.bincount(dests_of[stale], minlength=n) if keys.size \
            else np.zeros(n, dtype=np.int64)
        dirty_mask = (valid_counts != expected) | (broken_counts > 0)
        dirty = np.flatnonzero(dirty_mask)
        prune = np.flatnonzero(~dirty_mask & (stale_counts > 0))

        # adaptive bail-out: when churn dirtied (nearly) every column, the
        # per-column patching machinery cannot beat the vectorized full
        # rebuild it would effectively replicate — classification was cheap,
        # so hand the batch to the scratch path instead.  The floor keeps
        # small instances on the incremental path, where patching is
        # never the bottleneck.
        if dirty.size >= max(64, int(0.8 * n)):
            return full_rebuild(self, delta)

        # prune-only columns: drop the disconnected sources' entries, keep the
        # (provably still optimal) rest
        pruned = 0
        if prune.size:
            prune_mask = np.zeros(n, dtype=bool)
            prune_mask[prune] = True
            keep = valid & prune_mask[dests_of]
            table.replace_destinations(prune.tolist(), keys[keep], hops[keep])
            pruned = int(np.count_nonzero(stale & prune_mask[dests_of]))

        # 3. recompute the dirty columns with one vectorized kernel call; the
        #    write patches the scheme matrix and the compiled table at once
        patched = 0
        if dirty.size:
            from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

            pred_block = np.atleast_2d(_scipy_dijkstra(
                graph.to_scipy_csr(), directed=False, indices=dirty,
                return_predecessors=True)[1])
            new_keys = []
            new_hops = []
            for local, t in enumerate(dirty.tolist()):
                pred = pred_block[local]
                reach = np.flatnonzero(pred >= 0)
                new_keys.append(reach * n + t)
                new_hops.append(pred[reach])
            patched = table.replace_destinations(
                dirty.tolist(),
                np.concatenate(new_keys) if new_keys else np.zeros(0, dtype=np.int64),
                np.concatenate(new_hops) if new_hops else np.zeros(0, dtype=np.int64))
        if dirty.size or prune.size:
            # re-account the per-node space charge
            port_bits = bits_for_id(max(graph.max_degree(), 1)) \
                if graph.num_edges else 1
            counts = self._entry_counts()
            for u in range(n):
                self.tables[u].recharge("next_hop_entries",
                                        self.name_bits + port_bits,
                                        count=int(counts[u]))
        # the live program was patched in place (its dense table shares the
        # scheme's next-hop matrix): drop every derived lookup cache so the
        # next batch rebuilds them from the repaired columns
        self.compiled_forwarding().invalidate_caches()
        return RepairReport(
            scheme=self.scheme_name, strategy="incremental",
            seconds=_time.perf_counter() - start,
            patched_entries=int(patched),
            dirty_destinations=int(dirty.size),
            details={"checked_entries": int(keys.size),
                     "pruned_entries": int(pruned)})

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

    def header_bits(self) -> int:
        """Only the destination name travels in the header."""
        return self.name_bits
