"""Sparse/dense neighborhood decomposition (Definitions 1 and 2).

For every node ``u`` the decomposition produces ranges
``a(u,0) = 0 < a(u,1) < ... < a(u,k+1)`` such that the ball of radius
``2^{a(u,i+1)}`` around ``u`` holds at least ``n^{1/k}`` times as many nodes
as the ball of radius ``2^{a(u,i)}`` — each level multiplies the population
by ``n^{1/k}`` *and* at least doubles the radius, which is the combined
combinatorial/geometric restriction that makes the scheme scale-free.

Level ``i`` is **dense** for ``u`` when the next range is at most
``dense_gap`` (= 3) steps away, i.e. the population multiplies within a
constant radius blow-up; otherwise it is **sparse**.

Distances are measured in units of ``d_min`` (the smallest positive pairwise
distance) so that radius ``2^j`` means ``d_min * 2^j`` — the paper simply
normalizes ``d_min = 1``.  When no radius achieves the required growth the
range is capped at a sentinel exponent large enough that the corresponding
ball covers the whole connected component; this realizes the paper's
"``a(u,i+1) = log Δ`` if no such integer exists" and guarantees the top level
always covers the destination (DESIGN.md §3 item 5).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.params import AGMParams
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.utils.validation import check_index, require


class NeighborhoodDecomposition:
    """Ranges, neighborhoods and dense/sparse classification for every node."""

    def __init__(
        self,
        graph: WeightedGraph,
        k: int,
        oracle: Optional[DistanceOracle] = None,
        params: Optional[AGMParams] = None,
    ) -> None:
        require(k >= 1, f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = int(k)
        self.params = params or AGMParams.paper()
        self.oracle = oracle or DistanceOracle(graph)
        self.n = graph.n
        self.growth = max(self.n, 2) ** (1.0 / self.k)

        self.d_min = self.oracle.min_positive_distance()
        diameter = self.oracle.diameter()
        self.max_exp = 0
        if diameter > 0 and self.d_min > 0:
            self.max_exp = max(0, int(math.ceil(math.log2(diameter / self.d_min))))
        #: sentinel exponent whose E/F balls cover the whole component
        self.top_exp = self.max_exp + 4

        # Pre-compute |B(u, d_min * 2^j)| for every node and every exponent
        # 0..max_exp in vectorized blocks; the range recursion then runs on
        # this table instead of issuing O(n) ball queries per probe.  Rows are
        # streamed through the oracle so the table costs O(block · n) transient
        # memory under the lazy backend instead of a materialized O(n²) matrix.
        radii = self.d_min * np.power(2.0, np.arange(self.max_exp + 1)) + 1e-12
        levels = self.max_exp + 1
        self._ball_size_table = np.empty((self.n, levels), dtype=np.int64)
        for chunk, rows in self.oracle.iter_row_blocks():
            # One searchsorted pass buckets every distance into the first
            # radius level containing it (`left` == first j with r_j >= d,
            # so the bucket test matches `d <= r_j` exactly; inf lands past
            # the last level and is dropped).  A per-row histogram + cumsum
            # then yields |B(u, r_j)| for all j at once — one O(log levels)
            # pass over the block instead of `levels` full boolean sweeps.
            chunk_idx = np.asarray(chunk)
            buckets = np.searchsorted(radii, rows, side="left")
            flat = np.arange(len(chunk_idx))[:, None] * (levels + 1) + buckets
            hist = np.bincount(flat.ravel(),
                               minlength=len(chunk_idx) * (levels + 1))
            hist = hist.reshape(len(chunk_idx), levels + 1)[:, :levels]
            self._ball_size_table[chunk_idx] = np.cumsum(hist, axis=1)

        # ranges a(u, 0..k+1), all nodes at once (one boolean-matrix argmax
        # per level instead of n per-node probe loops), plus the dense/sparse
        # classification table derived from them
        self._ranges: np.ndarray = self._compute_all_ranges()
        next_within = self._ranges[:, 1:] <= self._ranges[:, :-1] + self.params.dense_gap
        self._dense_table: np.ndarray = \
            (self._ranges[:, :-1] < self._ranges[:, 1:]) & next_within

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def radius_of_exponent(self, j: float) -> float:
        """The metric radius corresponding to exponent ``j`` (i.e. ``d_min * 2^j``)."""
        return self.d_min * (2.0 ** j)

    def _compute_ranges(self, u: int) -> List[int]:
        """Per-node range recursion (the scalar reference of :meth:`_compute_all_ranges`)."""
        sizes = self._ball_size_table[u]
        ranges = [0]
        current_size = 1  # |A(u,0)| = |{u}|
        for _ in range(self.k + 1):
            target = self.growth * current_size
            # the next range must strictly exceed the previous one (ball sizes
            # are monotone, so smaller exponents can never reach the target)
            start = max(ranges[-1] + 1, 1)
            found: Optional[int] = None
            if start <= self.max_exp:
                hits = np.where(sizes[start:] >= target - 1e-9)[0]
                if hits.size:
                    found = start + int(hits[0])
            if found is None:
                ranges.append(max(self.top_exp, ranges[-1] + self.params.dense_gap + 1))
                current_size = int(sizes[self.max_exp])
            else:
                ranges.append(found)
                current_size = int(sizes[found])
        return ranges

    def _compute_all_ranges(self) -> np.ndarray:
        """The range recursion for every node at once.

        Level-synchronous over the ball-size table: one ``(n, max_exp+1)``
        boolean comparison plus an ``argmax`` per level replaces the per-node
        probe loops of :meth:`_compute_ranges` (identical results — asserted
        by the decomposition tests).
        """
        sizes = self._ball_size_table
        exps = np.arange(self.max_exp + 1)
        ranges = np.zeros((self.n, self.k + 2), dtype=np.int64)
        current = np.ones(self.n, dtype=np.float64)  # |A(u,0)| = 1
        for level in range(1, self.k + 2):
            target = self.growth * current
            start = np.maximum(ranges[:, level - 1] + 1, 1)
            valid = (sizes >= target[:, None] - 1e-9) & (exps[None, :] >= start[:, None])
            has_hit = valid.any(axis=1)
            first = np.argmax(valid, axis=1)
            capped = np.maximum(self.top_exp,
                                ranges[:, level - 1] + self.params.dense_gap + 1)
            ranges[:, level] = np.where(has_hit, first, capped)
            current = np.where(has_hit, sizes[np.arange(self.n), first],
                               sizes[:, self.max_exp]).astype(np.float64)
        return ranges

    # ------------------------------------------------------------------ #
    # Definition 1 accessors
    # ------------------------------------------------------------------ #
    def range(self, u: int, i: int) -> int:
        """``a(u, i)`` for ``0 <= i <= k+1``."""
        check_index(u, self.n, "u")
        require(0 <= i <= self.k + 1, f"level {i} out of range [0, {self.k + 1}]")
        return int(self._ranges[u, i])

    def ranges_of(self, u: int) -> List[int]:
        """The full range list ``[a(u,0), ..., a(u,k+1)]``."""
        check_index(u, self.n, "u")
        return [int(a) for a in self._ranges[u]]

    def ranges_table(self) -> np.ndarray:
        """All ranges as an ``(n, k+2)`` array (read-only; do not mutate)."""
        return self._ranges

    def dense_table(self) -> np.ndarray:
        """Dense/sparse classification as an ``(n, k+1)`` bool array (read-only)."""
        return self._dense_table

    def neighborhood_radius(self, u: int, i: int) -> float:
        """Radius of ``A(u, i)`` (0 for level 0)."""
        if i == 0:
            return 0.0
        return self.radius_of_exponent(self.range(u, i))

    def neighborhood(self, u: int, i: int) -> List[int]:
        """``A(u, i)``: the level-``i`` neighborhood ball of ``u``."""
        if i == 0:
            return [u]
        return self.oracle.ball(u, self.neighborhood_radius(u, i))

    def neighborhood_indices(self, u: int, i: int) -> np.ndarray:
        """``A(u, i)`` as an index array (zero-copy hot-path variant)."""
        if i == 0:
            return np.asarray([u], dtype=np.int64)
        return self.oracle.ball_indices(u, self.neighborhood_radius(u, i))

    def neighborhood_size(self, u: int, i: int) -> int:
        """``|A(u, i)|``."""
        if i == 0:
            return 1
        return self.oracle.ball_size(u, self.neighborhood_radius(u, i))

    # ------------------------------------------------------------------ #
    # Definition 2: dense / sparse levels
    # ------------------------------------------------------------------ #
    def is_dense(self, u: int, i: int) -> bool:
        """Whether level ``i`` is dense for ``u`` (Definition 2)."""
        require(0 <= i <= self.k, f"level {i} out of range [0, {self.k}]")
        return bool(self._dense_table[u, i])

    def is_sparse(self, u: int, i: int) -> bool:
        """Whether level ``i`` is sparse for ``u``."""
        return not self.is_dense(u, i)

    def dense_levels(self, u: int) -> List[int]:
        """All dense levels of ``u`` in ``0..k``."""
        return [i for i in range(self.k + 1) if self.is_dense(u, i)]

    def sparse_levels(self, u: int) -> List[int]:
        """All sparse levels of ``u`` in ``0..k``."""
        return [i for i in range(self.k + 1) if self.is_sparse(u, i)]

    # ------------------------------------------------------------------ #
    # guarantee balls F(u,i) and E(u,i)
    # ------------------------------------------------------------------ #
    def f_radius(self, u: int, i: int) -> float:
        """Radius of ``F(u, i) = B(u, 2^{a(u,i)-1})`` (the dense-level guarantee ball)."""
        return self.radius_of_exponent(self.range(u, i) - 1)

    def f_ball(self, u: int, i: int) -> List[int]:
        """``F(u, i)``."""
        return self.oracle.ball(u, self.f_radius(u, i))

    def e_radius(self, u: int, i: int) -> float:
        """Radius of ``E(u, i) = B(u, 2^{a(u,i+1)} / 6)`` (the sparse-level guarantee ball)."""
        return self.radius_of_exponent(self.range(u, i + 1)) / self.params.sparse_shrink

    def e_ball(self, u: int, i: int) -> List[int]:
        """``E(u, i)``."""
        return self.oracle.ball(u, self.e_radius(u, i))

    def guarantee_ball(self, u: int, i: int) -> List[int]:
        """The ball the level-``i`` strategy is guaranteed to cover (F if dense, E if sparse)."""
        return self.f_ball(u, i) if self.is_dense(u, i) else self.e_ball(u, i)

    # ------------------------------------------------------------------ #
    # range sets L(u), R(u) and the extended-range subgraph populations
    # ------------------------------------------------------------------ #
    def range_set(self, u: int) -> Set[int]:
        """``L(u) = { a(u, i) : i in K }``."""
        return set(int(a) for a in self._ranges[u, : self.k + 1])

    def extended_range_set(self, u: int) -> Set[int]:
        """``R(u) = { j : exists a in L(u) with -1 <= a - j <= 4 }`` (clipped to >= 0)."""
        out: Set[int] = set()
        for a in self.range_set(u):
            lo = a - self.params.extend_above
            hi = a + self.params.extend_below
            for j in range(max(lo, 0), hi + 1):
                out.add(j)
        return out

    def extended_range_members(self) -> Dict[int, List[int]]:
        """For every exponent ``j``, the node set ``V_j = { u : j in R(u) }``.

        Vectorized: every ``(node, offset-shifted range)`` pair is generated
        by broadcasting over the range table, deduplicated, and grouped by
        exponent with one sort — no per-node Python set construction.
        """
        offsets = np.arange(-self.params.extend_above,
                            self.params.extend_below + 1, dtype=np.int64)
        exponents = (self._ranges[:, : self.k + 1, None] + offsets).reshape(self.n, -1)
        nodes = np.broadcast_to(np.arange(self.n, dtype=np.int64)[:, None],
                                exponents.shape)
        keep = exponents >= 0
        pairs = np.unique(np.stack([exponents[keep], nodes[keep]], axis=1), axis=0)
        members: Dict[int, List[int]] = {}
        if pairs.size == 0:
            return members
        split_at = np.flatnonzero(np.diff(pairs[:, 0])) + 1
        for group in np.split(pairs, split_at):
            members[int(group[0, 0])] = [int(u) for u in group[:, 1]]
        return members

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def describe(self, u: int) -> Dict[str, object]:
        """Human-readable summary of ``u``'s decomposition (for debugging/reports)."""
        return {
            "ranges": self.ranges_of(u),
            "sizes": [self.neighborhood_size(u, i) for i in range(self.k + 1)],
            "dense": [self.is_dense(u, i) for i in range(self.k + 1)],
        }
