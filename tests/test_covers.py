"""Tests for Lemma 6: sparse covers and tree covers."""

import math

import numpy as np
import pytest

from repro.construction.context import BuildContext
from repro.covers.sparse_cover import (_coarsen_regions, _coarsen_vectorized,
                                       build_sparse_cover)
from repro.covers.tree_cover import build_tree_cover
from repro.graphs.generators import erdos_renyi_graph, grid_graph, path_graph
from repro.graphs.shortest_paths import DistanceOracle


@pytest.fixture(scope="module")
def grid_and_oracle():
    g = grid_graph(6, 6, weights="unit", seed=1)
    return g, DistanceOracle(g)


@pytest.fixture(scope="module", params=[1.0, 2.0, 4.0])
def rho(request):
    return request.param


K = 2


class TestSparseCover:
    def test_every_ball_is_covered(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        for v in range(g.n):
            cluster = cover.cluster_of_home(v)
            ball = set(oracle.ball(v, rho))
            assert ball <= cluster.nodes, f"ball of {v} not covered"

    def test_home_map_complete(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        assert set(cover.home) == set(range(g.n))

    def test_membership_sparsity(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        bound = 4 * K * math.ceil(g.n ** (1.0 / K)) + 4
        assert cover.max_membership(g.n) <= bound

    def test_kernel_centers_partition_home_assignments(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, 2.0, oracle=oracle)
        seen = set()
        for cluster in cover.clusters:
            assert cluster.kernel_centers, "cluster with empty kernel"
            assert cluster.kernel_centers <= cluster.nodes
            assert not (cluster.kernel_centers & seen)
            seen |= cluster.kernel_centers
        assert seen == set(range(g.n))

    def test_node_subset_restriction(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        subset = list(range(0, g.n, 2))
        cover = build_sparse_cover(g, K, 2.0, oracle=oracle, nodes=subset)
        assert set(cover.home) == set(subset)
        for cluster in cover.clusters:
            assert cluster.nodes <= set(subset)

    def test_invalid_arguments(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        with pytest.raises(Exception):
            build_sparse_cover(g, 0, 1.0, oracle=oracle)
        with pytest.raises(Exception):
            build_sparse_cover(g, 2, 0.0, oracle=oracle)


class TestCoverModeParity:
    """csr ≡ regions ≡ scalar, decision for decision.

    The region-growing coarsening replaces per-node ball rows with
    multi-source limited Dijkstra layers; it must reproduce the CSR
    (row-streaming) coarsening's clusters, homes and phases exactly, which
    in turn must match the scalar reference — across families, k, radii and
    node subsets.  ``build_sparse_cover`` picks one of the two from sampled
    ball sizes, so its output must match as well.
    """

    def _canonical(self, cover):
        clusters = sorted((sorted(c.nodes), c.center,
                           sorted(c.kernel_centers)) for c in cover.clusters)
        return clusters, dict(cover.home)

    def _coarsen(self, mode, graph, oracle, k, radius, nodes=None):
        """One coarsener, called with the inputs ``build_sparse_cover`` prepares."""
        if nodes is None:
            universe, allowed = np.arange(graph.n, dtype=np.int64), None
        else:
            universe = np.asarray(sorted(set(nodes)), dtype=np.int64)
            allowed = np.zeros(graph.n, dtype=bool)
            allowed[universe] = True
        growth = max(universe.size, 2) ** (1.0 / k)
        if mode == "regions":
            cover = _coarsen_regions(graph, k, radius, universe, growth, allowed)
        else:
            indptr, indices = BuildContext(graph, oracle=oracle).ball_csr(
                radius, universe=universe, allowed_mask=allowed)
            cover = _coarsen_vectorized(graph.n, k, radius, universe, growth,
                                        indptr, indices)
        return self._canonical(cover)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5, 6.0])
    def test_modes_bit_identical(self, monkeypatch, k, radius):
        for graph in (grid_graph(6, 6, weights="unit", seed=1),
                      erdos_renyi_graph(60, seed=9),
                      path_graph(40, seed=4)):
            oracle = DistanceOracle(graph)
            outs = {mode: self._coarsen(mode, graph, oracle, k, radius)
                    for mode in ("csr", "regions")}
            outs["chosen"] = self._canonical(
                build_sparse_cover(graph, k, radius, oracle=oracle))
            monkeypatch.setenv("REPRO_BUILD_MODE", "scalar")
            outs["scalar"] = self._canonical(
                build_sparse_cover(graph, k, radius, oracle=oracle))
            monkeypatch.delenv("REPRO_BUILD_MODE", raising=False)
            assert outs["csr"] == outs["regions"] == outs["chosen"] \
                == outs["scalar"]

    def test_subset_universe_parity(self):
        graph = erdos_renyi_graph(70, seed=12)
        oracle = DistanceOracle(graph)
        subset = list(range(0, graph.n, 3))
        outs = {mode: self._coarsen(mode, graph, oracle, 2, 2.0, nodes=subset)
                for mode in ("csr", "regions")}
        outs["chosen"] = self._canonical(
            build_sparse_cover(graph, 2, 2.0, oracle=oracle, nodes=subset))
        assert outs["csr"] == outs["regions"] == outs["chosen"]


class TestTreeCover:
    def test_cover_property_for_home_trees(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle), f"home tree of {v} misses its ball"

    def test_radius_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        assert cover.max_radius() <= (2 * K + 3) * rho + 1e-9

    def test_max_edge_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        assert cover.max_edge() <= 2 * rho + 1e-9

    def test_membership_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        bound = 4 * K * math.ceil(g.n ** (1.0 / K)) + 4
        assert cover.max_membership() <= bound

    def test_trees_containing_consistent_with_home(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, 2.0, oracle=oracle)
        for v in range(0, g.n, 5):
            containing = cover.trees_containing(v)
            assert cover.home[v] in containing

    def test_k3_on_weighted_er_graph(self):
        g = erdos_renyi_graph(40, seed=8)
        oracle = DistanceOracle(g)
        rho = oracle.diameter() / 4
        cover = build_tree_cover(g, 3, rho, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)
        assert cover.max_edge() <= 2 * rho + 1e-9

    def test_large_rho_gives_single_tree_per_component(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, oracle.diameter() * 2, oracle=oracle)
        assert len(cover.trees) == 1
        assert cover.trees[0].size == g.n

    def test_tiny_rho_gives_small_trees(self):
        g = path_graph(12, weights="unit", seed=0)
        oracle = DistanceOracle(g)
        cover = build_tree_cover(g, 2, 1.0, oracle=oracle)
        assert cover.max_radius() <= (2 * 2 + 3) * 1.0
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)

    def test_disconnected_graph_handled_per_component(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        oracle = DistanceOracle(g)
        cover = build_tree_cover(g, 2, 1.0, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)
        for tree in cover.trees:
            nodes = set(tree.nodes)
            assert nodes <= {0, 1, 2} or nodes <= {3, 4, 5}
