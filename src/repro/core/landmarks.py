"""Landmark hierarchy, ranks, nearby-landmark sets and centers (Section 2.3).

The sparse-level machinery needs a low-discrepancy hierarchy of landmark sets
``V = C_0 ⊇ C_1 ⊇ ... ⊇ C_k = ∅``: starting from all nodes, each level keeps
every node of the previous level independently with probability
``(n / ln n)^{-1/k}``.  A node's **rank** is the largest level it belongs to.

From the hierarchy the paper derives, for every node ``u`` and level ``i``:

* ``S(u, i)`` — the ``16 n^{2/k} log n`` closest members of ``C_i``
  (the "nearby landmarks" of level ``i``), and ``S(u)`` their union;
* ``m(u, i)`` — the highest rank present in the neighborhood ``A(u, i)``;
* ``c(u, i)`` — the closest node of rank-class ``C_{m(u,i)}`` — the *center*
  the sparse strategy routes through.

Claims 1 and 2 are w.h.p. statements about this sampling; the reproduction
verifies them empirically (see ``verify_claims``) and the construction can be
re-drawn a few times if a check fails (the paper notes the construction can
be fully de-randomized).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.params import AGMParams
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.utils.rng import make_rng
from repro.utils.validation import check_index, require


class LandmarkHierarchy:
    """Sampled landmark levels plus the derived S / m / c quantities."""

    def __init__(
        self,
        graph: WeightedGraph,
        k: int,
        oracle: Optional[DistanceOracle] = None,
        decomposition: Optional[NeighborhoodDecomposition] = None,
        params: Optional[AGMParams] = None,
        seed=None,
    ) -> None:
        require(k >= 1, f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = int(k)
        self.params = params or AGMParams.paper()
        self.oracle = oracle or DistanceOracle(graph)
        self.decomposition = decomposition or NeighborhoodDecomposition(
            graph, k, oracle=self.oracle, params=self.params)
        self.n = graph.n
        rng = make_rng(seed)

        self._sample_levels(rng)
        self._nearby_count = self.params.nearby_landmark_count(max(self.n, 2), self.k)
        # S(u, i) is computed lazily and cached (it is O(n) per query).
        self._nearby_cache: Dict[tuple, List[int]] = {}

    # ------------------------------------------------------------------ #
    # sampling (C_0 ⊇ C_1 ⊇ ... ⊇ C_k = ∅) and ranks
    # ------------------------------------------------------------------ #
    def _sample_levels(self, rng: np.random.Generator) -> None:
        probability = self.params.sampling_probability(max(self.n, 2), self.k)
        levels: List[Set[int]] = [set(range(self.n))]
        for _ in range(1, self.k):
            previous = levels[-1]
            kept = {v for v in previous if rng.random() < probability}
            levels.append(kept)
        levels.append(set())  # C_k = ∅
        self.levels: List[Set[int]] = levels
        self.rank: List[int] = [0] * self.n
        for level_index in range(1, self.k):
            for v in levels[level_index]:
                self.rank[v] = level_index
        # vectorized views used by the hot highest-rank / center queries
        self._rank_array = np.asarray(self.rank, dtype=np.int64)
        self._level_arrays: List[np.ndarray] = [
            np.asarray(sorted(level), dtype=np.int64) for level in levels
        ]

    def level_set(self, i: int) -> Set[int]:
        """``C_i`` (a copy)."""
        require(0 <= i <= self.k, f"level {i} out of range [0, {self.k}]")
        return set(self.levels[i])

    def level_size(self, i: int) -> int:
        """``|C_i|``."""
        require(0 <= i <= self.k, f"level {i} out of range [0, {self.k}]")
        return len(self.levels[i])

    def rank_of(self, v: int) -> int:
        """The rank of node ``v`` — the largest ``i`` with ``v in C_i``."""
        check_index(v, self.n, "v")
        return self.rank[v]

    # ------------------------------------------------------------------ #
    # nearby landmark sets S(u, i)
    # ------------------------------------------------------------------ #
    @property
    def nearby_count(self) -> int:
        """``|S(u, i)|`` — how many nearby landmarks of each level a node tracks."""
        return self._nearby_count

    def nearby_landmarks(self, u: int, i: int) -> List[int]:
        """``S(u, i)``: the closest ``nearby_count`` members of ``C_i`` to ``u``."""
        check_index(u, self.n, "u")
        require(0 <= i <= self.k, f"level {i} out of range [0, {self.k}]")
        key = (u, i)
        if key not in self._nearby_cache:
            members = self.levels[i]
            if not members:
                self._nearby_cache[key] = []
            else:
                self._nearby_cache[key] = self.oracle.nearest(u, self._nearby_count, members)
        return list(self._nearby_cache[key])

    def nearby_union(self, u: int) -> Set[int]:
        """``S(u)``: the union of ``S(u, i)`` over all levels."""
        out: Set[int] = set()
        for i in range(self.k + 1):
            out.update(self.nearby_landmarks(u, i))
        return out

    def serves(self, center: int, u: int) -> bool:
        """Whether ``center in S(u)`` — i.e. ``u`` stores tree-routing state for ``center``."""
        return center in self.nearby_union(u)

    # ------------------------------------------------------------------ #
    # highest rank in a neighborhood and the resulting center
    # ------------------------------------------------------------------ #
    def highest_rank_in(self, u: int, i: int) -> int:
        """``m(u, i)``: the highest rank of any node of ``A(u, i)``."""
        neighborhood = self.decomposition.neighborhood_indices(u, i)
        return int(self._rank_array[neighborhood].max())

    def center(self, u: int, i: int) -> int:
        """``c(u, i)``: the closest node to ``u`` among ``C_{m(u,i)}``.

        Vectorized over the sorted level array: ``argmin`` keeps the first
        occurrence, which is the (distance, node-index) lexicographic winner.
        """
        m = self.highest_rank_in(u, i)
        members = self._level_arrays[m]
        require(members.size > 0, f"no reachable member of C_{m} from node {u}")
        dists = self.oracle.row(u)[members]
        best = int(np.argmin(dists))
        require(bool(np.isfinite(dists[best])),
                f"no reachable member of C_{m} from node {u}")
        return int(members[best])

    # ------------------------------------------------------------------ #
    # empirical verification of Claims 1 and 2
    # ------------------------------------------------------------------ #
    def verify_claims(self, sample_nodes: Optional[Sequence[int]] = None,
                      slack: float = 1.0) -> Dict[str, bool]:
        """Check Claims 1 and 2 on the sampled hierarchy.

        Claim 1: any ball with at least ``4 (ln n)^{(k-j)/k} n^{j/k}`` nodes
        intersects ``C_j``.  Claim 2: any ball with fewer than
        ``4 (ln n)^{(k-(j+1))/k} n^{(j+2)/k}`` nodes contains at most
        ``16 n^{2/k} ln n`` members of ``C_j``.  Both are w.h.p. statements;
        ``slack`` multiplies the allowed constant.
        """
        n = max(self.n, 2)
        lnn = max(math.log(n), 1.0)
        nodes = list(sample_nodes) if sample_nodes is not None else list(range(self.n))
        claim1 = True
        claim2 = True
        exponents = range(0, self.decomposition.max_exp + 1)
        for u in nodes:
            for e in exponents:
                ball = self.decomposition.oracle.ball(
                    u, self.decomposition.radius_of_exponent(e))
                size = len(ball)
                ball_set = set(ball)
                for j in range(0, self.k):
                    threshold1 = 4.0 * (lnn ** ((self.k - j) / self.k)) * (n ** (j / self.k))
                    if size >= threshold1 and not ball_set & self.levels[j]:
                        claim1 = False
                    threshold2 = 4.0 * (lnn ** ((self.k - (j + 1)) / self.k)) * (n ** ((j + 2) / self.k))
                    limit = slack * 16.0 * (n ** (2.0 / self.k)) * lnn
                    if size < threshold2 and len(ball_set & self.levels[j]) > limit:
                        claim2 = False
        return {"claim1": claim1, "claim2": claim2}
