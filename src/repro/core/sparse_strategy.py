"""Sparse neighborhood routing strategy (Sections 3.1–3.3).

For a sparse level ``i`` of the source ``u`` the scheme routes to the center
``c(u, i)`` (the closest landmark of the highest rank present in ``A(u,i)``)
and performs a ``b(u, i)``-bounded Lemma 4 search on the shortest-path tree
``T(c(u,i))`` that spans every node ``v`` with ``c(u,i) in S(v)``.  Lemma 3
guarantees that every ``v in E(u, i)`` satisfies ``c(u,i) in S(v)``, so the
search succeeds whenever the destination is inside the guarantee ball; a miss
walks back to ``u`` (the error report) and the scheme moves on to the next
level.

Lazy materialization (DESIGN.md §3 item 1): the paper charges every
node for the trees of *all* its nearby landmarks ``S(u)``; the reproduction
only materializes trees whose root is actually some node's center ``c(u,i)``
— the only trees routing can ever touch — and charges exactly the
materialized state.  The measured space is therefore a lower bound on the
paper's accounting, which is itself an upper bound.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.construction.context import BuildContext, SPTJob
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AGMParams
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.table import TableCollection
from repro.trees.name_independent import NameIndependentTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng
from repro.utils.validation import require


class SparseStrategy:
    """Preprocessed sparse-level routing state for one graph."""

    def __init__(
        self,
        graph: WeightedGraph,
        k: int,
        oracle: DistanceOracle,
        decomposition: NeighborhoodDecomposition,
        landmarks: LandmarkHierarchy,
        params: AGMParams,
        tables: TableCollection,
        seed=None,
        context: Optional[BuildContext] = None,
    ) -> None:
        self.graph = graph
        self.k = int(k)
        self.oracle = oracle
        self.decomposition = decomposition
        self.landmarks = landmarks
        self.params = params
        self.tables = tables

        n = graph.n
        self.sigma = max(2, int(math.ceil(n ** (1.0 / self.k)))) if n > 1 else 1

        #: (u, i) -> center c(u, i) for every sparse level
        self.center_of: Dict[Tuple[int, int], int] = {}
        #: (u, i) -> search bound b(u, i)
        self.bound_of: Dict[Tuple[int, int], int] = {}
        #: center -> Lemma 4 structure on T(center)
        self.trees: Dict[int, NameIndependentTreeRouting] = {}

        self._build(seed, context or BuildContext(graph, oracle=oracle))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, seed, context: BuildContext) -> None:
        """Array-native build: each per-(node, level) pass is one
        masked-matrix operation, and the center trees grow as one batched SPT
        forest.

        No pass sweeps all ``n`` rows unless it truly has to:

        * centers come from per-level nearest-member tables (``|C_j|`` rows
          per landmark level instead of ``n``) — the highest rank present in
          ``A(u, i)`` is the largest ``j`` whose nearest ``C_j`` member sits
          within the level radius, because the level sets are nested;
        * a level ``j`` with ``|C_j| <= nearby_count`` is *degenerate*:
          ``S(v, j)`` keeps every reachable member, so a used center whose
          top rank class is that small serves exactly its connected
          component and needs no membership scan at all.  At the paper
          constants every level is degenerate for realistic ``n`` (see
          ``AGMParams``), which deletes the quadratic membership pass;
        * the search-bound pass only fetches a distance row when the
          E-radius cannot already be certified to cover the whole tree by
          the triangle inequality — and then only a radius-limited row.
        """
        graph, k = self.graph, self.k
        n = graph.n
        decomposition, landmarks = self.decomposition, self.landmarks
        ranges = decomposition.ranges_table()
        dense_tbl = decomposition.dense_table()
        rank = landmarks._rank_array
        level_arrays = landmarks._level_arrays
        d_min = decomposition.d_min
        nearby = landmarks.nearby_count

        # 1. centers c(u, i) for every sparse level, sweep-free.  For each
        # nonempty level j >= 1 the oracle's nearest_member table gives every
        # node its closest C_j member (smallest id on ties — the same
        # tie-break as the row argmin it replaces); level 0's table is the
        # identity (every node is its own nearest C_0 member at distance 0).
        near_ids: Dict[int, np.ndarray] = {0: np.arange(n, dtype=np.int64)}
        near_d: Dict[int, np.ndarray] = {0: np.zeros(n)}
        for j in range(1, k + 1):
            if level_arrays[j].size:
                ids_j, d_j = self.oracle.nearest_member(level_arrays[j])
                near_ids[j], near_d[j] = ids_j.astype(np.int64), d_j
        for i in range(k + 1):
            sel = np.flatnonzero(~dense_tbl[:, i])
            if sel.size == 0:
                continue
            if i == 0:
                m_vals = rank[sel].astype(np.int64)
            else:
                radii = d_min * np.power(2.0, ranges[sel, i].astype(float))
                m_vals = np.zeros(sel.size, dtype=np.int64)  # u covers j=0
                for j in sorted(near_d):
                    if j == 0:
                        continue
                    hit = near_d[j][sel] <= radii + 1e-12
                    m_vals[hit] = j   # ascending j: the last hit is the max
            centers = np.empty(sel.size, dtype=np.int64)
            for m in np.unique(m_vals):
                require(int(m) in near_ids and level_arrays[int(m)].size > 0,
                        f"no member of C_{int(m)} exists")
                grp = m_vals == m
                centers[grp] = near_ids[int(m)][sel[grp]]
                require(bool(np.isfinite(near_d[int(m)][sel[grp]]).all()),
                        f"no reachable member of C_{int(m)}")
            for u, c in zip(sel.tolist(), centers.tolist()):
                self.center_of[(u, int(i))] = int(c)

        used_centers = sorted({c for c in self.center_of.values()})
        used_mask = np.zeros(n, dtype=bool)
        used_mask[used_centers] = True

        # 2. which nodes each used center serves.  A used center whose own
        # rank class is degenerate (|C_rank| <= nearby, so every applicable
        # S(v, rank) keeps all reachable members) serves its whole connected
        # component; only the remaining centers need the streamed
        # top-``nearby`` membership scan, and only the levels small enough
        # to be selective are scanned.
        level_sizes = [arr.size for arr in level_arrays]
        comp_ids = graph.component_ids()
        members_of: Dict[int, Set[int]] = {}
        limit_of: Dict[int, Optional[float]] = {}
        sweep_mask = np.zeros(n, dtype=bool)
        for c in used_centers:
            if level_sizes[int(rank[c])] <= nearby:
                comp = np.flatnonzero(comp_ids == comp_ids[c])
                members_of[c] = set(comp.tolist())
                members_of[c].add(c)
                limit_of[c] = None
            else:
                members_of[c] = {c}
                limit_of[c] = 0.0
                sweep_mask[c] = True
        sweep_levels = [j for j in range(k + 1)
                        if level_sizes[j] > nearby
                        and bool(sweep_mask[level_arrays[j]].any())]
        if sweep_levels:
            for chunk, rows in self.oracle.iter_row_blocks():
                chunk_arr = np.asarray(chunk, dtype=np.int64)
                for j in sweep_levels:
                    members = level_arrays[j]
                    dists = rows[:, members]
                    top = np.argsort(dists, axis=1, kind="stable")[:, :nearby]
                    dvals = np.take_along_axis(dists, top, axis=1)
                    ids = members[top]
                    ok = np.isfinite(dvals) & sweep_mask[ids]
                    rr, cc = np.nonzero(ok)
                    for v, c, d in zip(chunk_arr[rr].tolist(),
                                       ids[rr, cc].tolist(),
                                       dvals[rr, cc].tolist()):
                        members_of[c].add(v)
                        if d > limit_of[c]:
                            limit_of[c] = float(d)

        # 3. build T(c) for every used center as one batched SPT forest; each
        # scanned center's limit is its farthest served node, so low-rank
        # center trees are local searches (component centers span everything
        # reachable, so they run unlimited); their hash digits come from one
        # stacked evaluation, with seeds drawn in center order
        jobs = [SPTJob(c, sorted(members_of[c]), limit_of[c]) for c in used_centers]
        routings = NameIndependentTreeRouting.family(
            context.spt_trees(jobs),
            (derive_rng(seed, 101, index) for index in range(len(jobs))),
            k=k, sigma=self.sigma, name_bits=self.params.name_bits,
            folded=context.folded_names(), name_index=graph.name_index())
        self.trees = dict(zip(used_centers, routings))

        # 4. search bounds b(u, i): when the E-radius provably reaches past
        # the whole tree (d(u, c) + the tree's max depth, with a generous
        # float margin), the bound is the tree-wide digit max and no row is
        # touched; otherwise the oracle's rows within the radius (slices of
        # the held all-pairs store, or radius-limited rows that are exact
        # within the radius and inf beyond — the <= radius test answers the
        # same on both) feed the same masked gather as before
        shrink = self.params.sparse_shrink
        digits_of: Dict[int, np.ndarray] = {}
        max_digit_of: Dict[int, int] = {}
        for c, routing in self.trees.items():
            digits_of[c] = np.maximum(routing.name_lengths(), 1)
            max_digit_of[c] = int(digits_of[c].max(initial=0))
        slow_keys: List[Tuple[int, int]] = []
        for u, i in sorted(self.center_of):
            c = self.center_of[(u, i)]
            tree = self.trees[c].tree
            radius = d_min * (2.0 ** float(ranges[u, i + 1])) / shrink
            at = tree.find(u)
            if at >= 0 and radius >= (float(tree.depth[at]) + tree.radius()) \
                    * (1 + 1e-9) + 1e-9:
                self.bound_of[(u, i)] = max(max_digit_of[c], 1)
            else:
                slow_keys.append((u, i))
        if slow_keys:
            radius_of = {
                key: d_min * (2.0 ** float(ranges[key[0], key[1] + 1])) / shrink
                for key in slow_keys}
            by_u: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
            for key in slow_keys:
                by_u[key[0]].append(key)
            u_limit = {u: max(radius_of[key] for key in keys)
                       for u, keys in by_u.items()}
            order = sorted(by_u, key=lambda u: (u_limit[u], u))
            block = self.oracle.block_rows()
            for start in range(0, len(order), block):
                batch = order[start:start + block]
                limit = max(u_limit[u] for u in batch)
                rows = self.oracle.rows_within(batch, limit)
                for local, u in enumerate(batch):
                    row = rows[local]
                    for key in by_u[u]:
                        c = self.center_of[key]
                        within = row[self.trees[c].tree.node_ids] \
                            <= radius_of[key] + 1e-12
                        bound = int(digits_of[c][within].max(initial=0))
                        self.bound_of[key] = max(bound, 1)

        self._charge_tables()

    def _charge_tables(self) -> None:
        # 5. storage accounting
        idbits = bits_for_id(max(self.graph.n, 2))
        self.tables.charge_structures(
            "sparse_tree_tables",
            ((r.tree.node_ids, r.table_bits_list()) for r in self.trees.values()))
        for (u, i), c in self.center_of.items():
            level_bits = idbits + bits_for_count(max(routing_max_digits(self.trees[c]), 1))
            self.tables[u].charge("sparse_level_pointers", level_bits)

    # ------------------------------------------------------------------ #
    # queries used by the scheme and by tests
    # ------------------------------------------------------------------ #
    def is_applicable(self, u: int, i: int) -> bool:
        """Whether level ``i`` of node ``u`` is handled by this strategy."""
        return (u, i) in self.center_of

    def center(self, u: int, i: int) -> int:
        """``c(u, i)``."""
        return self.center_of[(u, i)]

    def bound(self, u: int, i: int) -> int:
        """``b(u, i)``."""
        return self.bound_of[(u, i)]

    def tree_of_center(self, c: int) -> NameIndependentTreeRouting:
        """The Lemma 4 structure of center ``c``."""
        return self.trees[c]

    def max_header_bits(self) -> int:
        """Largest sub-header any sparse-level tree search may need."""
        return max((t.header_bits() for t in self.trees.values()), default=0)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, u: int, i: int, target_name: Hashable
              ) -> Tuple[List[int], float, bool, Optional[int]]:
        """Execute the sparse strategy for level ``i`` from node ``u``.

        Returns ``(walk, cost, found, destination)``; the walk starts at ``u``
        and, when the destination is not found, ends back at ``u``.
        """
        require((u, i) in self.center_of, f"level {i} is not sparse for node {u}")
        c = self.center_of[(u, i)]
        routing = self.trees[c]
        tree = routing.tree
        if not tree.contains(u):
            # Cannot happen when c = c(u,i) (the center is always in S(u));
            # kept as a defensive no-op so routing degrades to the next level.
            return [u], 0.0, False, None

        walk: List[int] = [u]
        cost = 0.0

        # leg 1: climb T(c) from u to the root c
        up = tree.path(u, c)
        walk, cost = _extend_walk(walk, cost, up, tree)

        # leg 2: b(u,i)-bounded search from the root
        search = routing.search_from_root(target_name, j_bound=self.bound_of[(u, i)])
        walk, cost = _extend_walk(walk, cost, search.path, tree)
        if search.found:
            return walk, cost, True, search.destination

        # leg 3: negative response — return to u and let the scheme try level i+1
        down = tree.path(c, u)
        walk, cost = _extend_walk(walk, cost, down, tree)
        return walk, cost, False, None

    def plan_route(self, u: int, i: int, target_name: Hashable
                   ) -> Tuple[Optional[NameIndependentTreeRouting], List[int], bool]:
        """The waypoints of :meth:`route` without performing the walk.

        Returns ``(routing, targets, found)``; ``targets`` lists the tree
        nodes the walk heads for in order (the center, then the bounded
        search's waypoints, then back to ``u`` on a miss) inside
        ``routing``'s tree.  ``routing`` is ``None`` when the level cannot
        walk at all (the same defensive case :meth:`route` degrades on).
        """
        require((u, i) in self.center_of, f"level {i} is not sparse for node {u}")
        c = self.center_of[(u, i)]
        routing = self.trees[c]
        if not routing.tree.contains(u):
            return None, [], False
        targets = [c]
        search_targets, found, _ = routing.plan_search_from_root(
            target_name, j_bound=self.bound_of[(u, i)])
        targets.extend(search_targets)
        if not found:
            targets.append(u)
        return routing, targets, found


def routing_max_digits(routing: NameIndependentTreeRouting) -> int:
    """Maximum primary-name length of a Lemma 4 structure (helper for accounting)."""
    return max(routing.max_digits, 1)


def _extend_walk(walk: List[int], cost: float, segment: List[int], tree
                 ) -> Tuple[List[int], float]:
    """Append ``segment`` (a tree walk) to ``walk``, accumulating tree edge costs."""
    if not segment:
        return walk, cost
    if walk and segment[0] == walk[-1]:
        segment = segment[1:]
    for node in segment:
        prev = walk[-1]
        if node != prev:
            cost += tree.edge_weight(prev, node)
        walk.append(node)
    return walk, cost
