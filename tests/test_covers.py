"""Tests for Lemma 6: sparse covers and tree covers."""

import math

import numpy as np
import pytest

from repro.construction.context import BuildContext
from repro.covers.sparse_cover import (Cluster, SparseCover, _coarsen_regions,
                                       _coarsen_vectorized, build_sparse_cover)
from repro.covers.tree_cover import _cluster_trees_batched, build_tree_cover
from repro.graphs.generators import erdos_renyi_graph, grid_graph, path_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.utils.validation import ValidationError


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

    def test_invalid_arguments(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        with pytest.raises(Exception):
            build_sparse_cover(g, 0, 1.0, oracle=oracle)
        with pytest.raises(Exception):
            build_sparse_cover(g, 2, 0.0, oracle=oracle)


class TestCoverModeParity:
    """csr ≡ regions, decision for decision.

    The region-growing coarsening replaces per-node ball rows with
    multi-source limited Dijkstra layers; it must reproduce the CSR
    (row-streaming) coarsening's clusters, homes and phases exactly, across
    families, k and radii.  ``build_sparse_cover`` picks one of the two from
    sampled ball sizes, so its output must match as well.
    """

    def _canonical(self, cover):
        clusters = sorted((sorted(c.nodes), c.center,
                           sorted(c.kernel_centers)) for c in cover.clusters)
        return clusters, dict(cover.home)

    def _coarsen(self, mode, graph, oracle, k, radius):
        """One coarsener, called with the inputs ``build_sparse_cover`` prepares."""
        growth = max(graph.n, 2) ** (1.0 / k)
        if mode == "regions":
            cover = _coarsen_regions(graph, k, radius, growth)
        else:
            indptr, indices = BuildContext(graph, oracle=oracle).ball_csr(radius)
            cover = _coarsen_vectorized(graph.n, k, radius, growth,
                                        indptr, indices)
        return self._canonical(cover)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5, 6.0])
    def test_modes_bit_identical(self, k, radius):
        for graph in (grid_graph(6, 6, weights="unit", seed=1),
                      erdos_renyi_graph(60, seed=9),
                      path_graph(40, seed=4)):
            oracle = DistanceOracle(graph)
            outs = {mode: self._coarsen(mode, graph, oracle, k, radius)
                    for mode in ("csr", "regions")}
            outs["chosen"] = self._canonical(
                build_sparse_cover(graph, k, radius, oracle=oracle))
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
        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        oracle = DistanceOracle(g)
        cover = build_tree_cover(g, 2, 1.0, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)
        for tree in cover.trees:
            nodes = set(tree.nodes)
            assert nodes <= {0, 1, 2} or nodes <= {3, 4, 5}

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 2, 5.0)],   # member 2 only reachable over a 5.0 > 2 rho edge
        [(0, 1, 1.0), (2, 3, 1.0)],   # members 2 and 3 not connected to the center
    ])
    def test_cluster_unreachable_under_edge_bound_raises(self, edges):
        g = WeightedGraph(1 + max(v for _, v, _ in edges), edges)
        members = set(range(g.n))
        cover = SparseCover(k=2, rho=1.0, home={v: 0 for v in members},
                            clusters=[Cluster(index=0, center=0, nodes=members,
                                              kernel_centers={0})])
        with pytest.raises(ValidationError):
            _cluster_trees_batched(g, cover, 1.0, BuildContext(g), np.arange(g.n))
