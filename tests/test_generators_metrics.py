"""Tests for the graph generators, weight models and metrics."""

import math

import pytest

from repro.graphs import generators as gen
from repro.graphs.metrics import aspect_ratio, graph_summary
from repro.graphs.shortest_paths import DistanceOracle


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(gen.GENERATORS))
    def test_registry_families_connected(self, family):
        g = gen.make_graph(family, 40, seed=3)
        assert g.is_connected()
        assert g.n >= 20

    def test_make_graph_unknown_family(self):
        with pytest.raises(Exception):
            gen.make_graph("nope", 10)

    def test_grid_size(self):
        g = gen.grid_graph(4, 5, seed=1)
        assert g.n == 20 and g.is_connected()

    def test_path_cycle_star_complete(self):
        assert gen.path_graph(7, seed=1).num_edges == 6
        assert gen.cycle_graph(7, seed=1).num_edges == 7
        assert gen.star_graph(7, seed=1).n == 8
        assert gen.complete_graph(6, seed=1).num_edges == 15

    def test_hypercube(self):
        g = gen.hypercube_graph(4, seed=1)
        assert g.n == 16
        assert all(g.degree(v) == 4 for v in range(g.n))

    def test_ring_of_cliques(self):
        g = gen.ring_of_cliques(5, 4, seed=2)
        assert g.n == 20 and g.is_connected()

    def test_random_tree_is_tree(self):
        g = gen.random_tree_graph(25, seed=2)
        assert g.num_edges == g.n - 1 and g.is_connected()

    def test_caterpillar(self):
        g = gen.caterpillar_tree(5, legs=2, seed=2)
        assert g.n == 15 and g.num_edges == 14

    def test_dumbbell_bridge(self):
        g = gen.dumbbell_graph(5, bridge_weight=500.0, seed=2)
        assert g.is_connected()
        assert g.max_weight() == pytest.approx(500.0)

    def test_barabasi_albert_heavy_tail(self):
        g = gen.barabasi_albert_graph(60, attach=2, seed=4)
        assert g.is_connected()
        assert g.max_degree() >= 6

    def test_determinism(self):
        a = gen.random_geometric_graph(30, seed=11)
        b = gen.random_geometric_graph(30, seed=11)
        assert sorted(a.edges()) == sorted(b.edges())
        assert a.names == b.names

    def test_erdos_renyi_connect_fixup(self):
        # extremely sparse p would naturally disconnect; generator must stitch it
        g = gen.erdos_renyi_graph(40, p=0.01, seed=5)
        assert g.is_connected()


class TestWeightModels:
    def test_unit_weights(self):
        g = gen.grid_graph(4, 4, weights="unit", seed=1)
        assert g.min_weight() == g.max_weight() == 1.0

    def test_uniform_weights_in_range(self):
        g = gen.grid_graph(5, 5, weights="uniform", wmin=2.0, wmax=3.0, seed=1)
        assert 2.0 <= g.min_weight() and g.max_weight() <= 3.0

    def test_exponential_weights_span(self):
        g = gen.grid_graph(5, 5, weights="exponential", wmin=1.0, wmax=1e6, seed=1)
        assert g.max_weight() / g.min_weight() > 100

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            gen.grid_graph(3, 3, weights="bogus", seed=1)

    def test_geometric_euclidean_weights(self):
        g = gen.random_geometric_graph(40, weights="euclidean", seed=6)
        assert g.min_weight() > 0

    def test_rescale_aspect_ratio_monotone(self):
        base = gen.random_geometric_graph(36, weights="unit", seed=7)
        low = gen.rescale_aspect_ratio(base, 10.0, seed=1)
        high = gen.rescale_aspect_ratio(base, 1e8, seed=1)
        assert aspect_ratio(high) > aspect_ratio(low)
        assert high.n == base.n and high.num_edges == base.num_edges

    def test_rescale_rejects_bad_delta(self):
        base = gen.path_graph(5, seed=1)
        with pytest.raises(Exception):
            gen.rescale_aspect_ratio(base, 0.5)


class TestMetrics:
    def test_aspect_ratio_and_diameter_path(self):
        g = gen.path_graph(5, weights="unit", seed=1)
        assert DistanceOracle(g).diameter() == pytest.approx(4.0)
        assert aspect_ratio(g) == pytest.approx(4.0)

    def test_graph_summary_fields(self, small_geometric, geometric_oracle):
        s = graph_summary(small_geometric, geometric_oracle)
        d = s.as_dict()
        assert d["n"] == small_geometric.n
        assert d["m"] == small_geometric.num_edges
        assert d["aspect_ratio"] >= 1.0
        assert d["max_degree"] >= d["avg_degree"] > 0
