"""Unit tests for Dijkstra, APSP, shortest-path trees, and the DistanceOracle."""

import numpy as np
import pytest

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import (
    DistanceOracle,
    all_pairs_distances,
    dijkstra,
    multi_source_distances,
    shortest_path_tree,
    single_source_distances,
)


@pytest.fixture(scope="module")
def diamond() -> WeightedGraph:
    # 0 -1- 1 -1- 3,  0 -5- 2 -1- 3 : shortest 0->3 = 2 via 1
    return WeightedGraph(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 1.0)],
                         names=list("wxyz"))


class TestDijkstra:
    def test_distances_and_parents(self, diamond):
        dist, parent = dijkstra(diamond, 0)
        assert dist[3] == pytest.approx(2.0)
        assert parent[3] == 1 and parent[1] == 0 and parent[0] == -1

    def test_cutoff_limits_reach(self, diamond):
        dist, _ = dijkstra(diamond, 0, cutoff=1.5)
        assert np.isfinite(dist[1])
        assert not np.isfinite(dist[3])

    def test_allowed_subset_restricts_paths(self, diamond):
        dist, _ = dijkstra(diamond, 0, allowed=[0, 2, 3])
        assert dist[3] == pytest.approx(6.0)  # forced through the heavy side
        with pytest.raises(Exception):
            dijkstra(diamond, 0, allowed=[1, 2])

    def test_unreachable_is_inf(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        dist, parent = dijkstra(g, 0)
        assert not np.isfinite(dist[2]) and parent[2] == -1

    def test_matches_scipy_single_source(self, diamond, small_geometric):
        for g in (diamond, small_geometric):
            dist, _ = dijkstra(g, 0)
            ref = single_source_distances(g, 0)
            assert np.allclose(dist, ref)


class TestAllPairs:
    def test_symmetric_zero_diagonal(self, diamond):
        mat = all_pairs_distances(diamond)
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)

    def test_triangle_inequality_holds(self, small_geometric):
        mat = all_pairs_distances(small_geometric)
        n = small_geometric.n
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = rng.integers(0, n, size=3)
            assert mat[a, c] <= mat[a, b] + mat[b, c] + 1e-9

    def test_multi_source_rows(self, diamond):
        out = multi_source_distances(diamond, [0, 3])
        assert out.shape == (2, 4)
        assert out[0, 3] == pytest.approx(2.0)
        assert multi_source_distances(diamond, []).shape == (0, 4)

    def test_edgeless_graph(self):
        g = WeightedGraph(3, [])
        mat = all_pairs_distances(g)
        assert np.isinf(mat[0, 1]) and mat[1, 1] == 0


class TestShortestPathTree:
    def test_spans_component_and_depths_match_distances(self, small_geometric):
        tree = shortest_path_tree(small_geometric, 0)
        dist, _ = dijkstra(small_geometric, 0)
        assert tree.size == int(np.count_nonzero(np.isfinite(dist)))
        for v in tree.nodes:
            assert tree.depth_of(v) == pytest.approx(dist[v])

    def test_members_pruning_keeps_paths(self, diamond):
        tree = shortest_path_tree(diamond, 0, members=[3])
        # shortest path 0-1-3 must be in the tree; node 2 must not
        assert set(tree.nodes) == {0, 1, 3}

    def test_within_restriction(self, diamond):
        tree = shortest_path_tree(diamond, 0, within=[0, 2, 3])
        assert 1 not in tree.nodes
        assert tree.depth_of(3) == pytest.approx(6.0)


class TestDistanceOracle:
    def test_basic_queries(self, diamond):
        oracle = DistanceOracle(diamond)
        assert oracle.dist(0, 3) == pytest.approx(2.0)
        assert oracle.diameter() == pytest.approx(3.0)
        assert oracle.min_positive_distance() == pytest.approx(1.0)
        assert oracle.aspect_ratio() == pytest.approx(3.0)

    def test_ball_and_size(self, diamond):
        oracle = DistanceOracle(diamond)
        assert set(oracle.ball(0, 1.0)) == {0, 1}
        assert oracle.ball_size(0, 2.0) == 3
        assert oracle.ball_size(0, 100.0) == 4

    def test_nearest_with_ties_uses_index_order(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0)])
        oracle = DistanceOracle(g)
        assert oracle.nearest(0, 2) == [0, 1]
        assert oracle.nearest(0, 3, candidates=[2, 3]) == [2, 3]

    def test_nearest_ignores_unreachable(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        oracle = DistanceOracle(g)
        assert oracle.nearest(0, 5) == [0, 1]

    def test_nearest_zero_or_negative_count(self, geometric_oracle):
        assert geometric_oracle.nearest(0, 0) == []

    def test_eccentricity_and_farthest(self, diamond):
        oracle = DistanceOracle(diamond)
        assert oracle.eccentricity(0) == pytest.approx(3.0)
        assert oracle.farthest_of(0, [1, 3]) == pytest.approx(2.0)
        assert oracle.farthest_of(0, []) == 0.0
