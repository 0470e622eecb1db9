"""Tests for the five baseline routing schemes and the scheme factory."""

import pytest

from repro.baselines.awerbuch_peleg import AwerbuchPelegRouting
from repro.baselines.cowen import CowenRouting
from repro.baselines.exponential_stretch import ExponentialStretchRouting
from repro.baselines.shortest_path import ShortestPathRouting
from repro.baselines.thorup_zwick import ThorupZwickRouting
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import rescale_aspect_ratio, random_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.simulator import RoutingSimulator


@pytest.fixture(scope="module")
def shortest(small_geometric, geometric_oracle):
    return ShortestPathRouting(small_geometric, oracle=geometric_oracle)


@pytest.fixture(scope="module")
def cowen(small_geometric, geometric_oracle):
    return CowenRouting(small_geometric, oracle=geometric_oracle, seed=3)


@pytest.fixture(scope="module")
def tz(small_geometric, geometric_oracle):
    return ThorupZwickRouting(small_geometric, k=3, oracle=geometric_oracle, seed=4)


@pytest.fixture(scope="module")
def ap(small_geometric, geometric_oracle):
    return AwerbuchPelegRouting(small_geometric, k=2, oracle=geometric_oracle, seed=5)


@pytest.fixture(scope="module")
def expo(small_geometric, geometric_oracle):
    return ExponentialStretchRouting(small_geometric, k=3, oracle=geometric_oracle, seed=6)


class TestShortestPath:
    def test_stretch_is_exactly_one(self, shortest, geometric_simulator):
        report = geometric_simulator.evaluate(shortest, num_pairs=150, seed=1)
        assert report.failures == 0
        assert report.max_stretch == pytest.approx(1.0, abs=1e-9)

    def test_tables_have_n_minus_1_entries(self, shortest, small_geometric):
        expected = small_geometric.n - 1
        breakdown = shortest.tables[0].breakdown()
        assert breakdown["next_hop_entries"] >= expected  # at least 1 bit per entry

    def test_route_to_self_and_unknown(self, shortest, small_geometric):
        assert shortest.route(0, small_geometric.name_of(0)).found
        assert not shortest.route(0, "ghost").found

    def test_largest_tables_of_all_schemes(self, shortest, cowen, tz, small_geometric):
        assert shortest.avg_table_bits() > cowen.avg_table_bits()
        assert shortest.avg_table_bits() > tz.avg_table_bits()


class TestCowen:
    def test_stretch_at_most_three(self, cowen, geometric_simulator):
        report = geometric_simulator.evaluate(cowen, num_pairs=200, seed=2)
        assert report.failures == 0
        assert report.max_stretch <= 3.0 + 1e-6

    def test_is_labeled_with_nonzero_labels(self, cowen):
        assert cowen.labeled
        assert cowen.max_label_bits() > 0

    def test_home_landmark_is_nearest(self, cowen, geometric_oracle):
        for v in range(0, cowen.graph.n, 7):
            home = cowen.home[v]
            best = min(geometric_oracle.dist(v, a) for a in cowen.landmarks)
            assert geometric_oracle.dist(v, home) == pytest.approx(best)

    def test_route_to_self(self, cowen, small_geometric):
        assert cowen.route(3, small_geometric.name_of(3)).found

    def test_landmarks_never_empty(self, small_geometric, geometric_oracle):
        scheme = CowenRouting(small_geometric, oracle=geometric_oracle, seed=1,
                              sample_probability=0.0)
        assert scheme.landmarks == [0]


class TestThorupZwick:
    def test_routes_all_pairs(self, tz, geometric_simulator):
        report = geometric_simulator.evaluate(tz, num_pairs=200, seed=3)
        assert report.failures == 0

    def test_stretch_within_4k_minus_5_envelope(self, tz, geometric_simulator):
        report = geometric_simulator.evaluate(tz, num_pairs=200, seed=4)
        assert report.max_stretch <= max(4 * tz.k - 5, 1) + 1e-6

    def test_levels_nested_and_nonempty(self, tz):
        for a, b in zip(tz.levels, tz.levels[1:]):
            assert set(b) <= set(a)
            assert b

    def test_labeled_with_labels(self, tz):
        assert tz.labeled and tz.max_label_bits() > 0

    def test_k1_behaves_like_single_level(self, small_geometric, geometric_oracle,
                                          geometric_simulator):
        scheme = ThorupZwickRouting(small_geometric, k=1, oracle=geometric_oracle, seed=1)
        report = geometric_simulator.evaluate(scheme, num_pairs=80, seed=5)
        assert report.failures == 0
        assert report.max_stretch <= 3.0 + 1e-6  # single level of pivots


class TestAwerbuchPeleg:
    def test_routes_all_pairs_with_bounded_stretch(self, ap, geometric_simulator):
        report = geometric_simulator.evaluate(ap, num_pairs=150, seed=6)
        assert report.failures == 0
        assert report.max_stretch <= 16 * ap.k + 8

    def test_number_of_scales_tracks_aspect_ratio(self, small_geometric, geometric_oracle):
        import math

        ap2 = AwerbuchPelegRouting(small_geometric, k=2, oracle=geometric_oracle, seed=1)
        expected = math.ceil(math.log2(geometric_oracle.aspect_ratio())) + 1
        assert abs(ap2.num_scales - expected) <= 1

    def test_space_grows_with_aspect_ratio(self):
        base = random_geometric_graph(30, weights="unit", seed=9)
        small_delta = rescale_aspect_ratio(base, 10.0, seed=1)
        large_delta = rescale_aspect_ratio(base, 1e7, seed=1)
        bits_small = AwerbuchPelegRouting(small_delta, k=2, seed=2).max_table_bits()
        bits_large = AwerbuchPelegRouting(large_delta, k=2, seed=2).max_table_bits()
        assert bits_large > 1.5 * bits_small

    def test_name_independent(self, ap):
        assert not ap.labeled and ap.max_label_bits() == 0


class TestExponentialStretch:
    def test_routes_all_pairs(self, expo, geometric_simulator):
        report = geometric_simulator.evaluate(expo, num_pairs=150, seed=7)
        assert report.failures == 0

    def test_name_independent(self, expo):
        assert not expo.labeled and expo.max_label_bits() == 0

    def test_top_level_single_landmark_per_component(self, expo, small_geometric):
        assert len(expo.levels[-1]) == len(small_geometric.connected_components())

    def test_worse_stretch_than_agm_at_same_k(self, expo, agm_k2, geometric_simulator):
        rep_expo = geometric_simulator.evaluate(expo, num_pairs=150, seed=8)
        rep_agm = geometric_simulator.evaluate(agm_k2, num_pairs=150, seed=8)
        assert rep_expo.avg_stretch >= rep_agm.avg_stretch * 0.8

    def test_level0_ball_routes_on_shortest_paths(self, expo, small_geometric,
                                                  geometric_oracle):
        names = small_geometric.names_view()
        for u in range(small_geometric.n):
            members = expo.vicinity[u]
            assert members == geometric_oracle.nearest(u, 4)
            for v in members[1:]:
                result = expo.route(u, names[v])
                assert result.found and result.phases_used == 0
                assert result.cost == pytest.approx(geometric_oracle.dist(u, v))

    def test_close_destinations_skip_the_landmark_round_trip(self):
        # a close pair here once paid a landmark-tree round trip: stretch 152.9
        graph = random_geometric_graph(36, seed=0)
        oracle = DistanceOracle(graph)
        scheme = ExponentialStretchRouting(graph, k=2, oracle=oracle, seed=0)
        sim = RoutingSimulator(graph, oracle=oracle)
        report = sim.evaluate(scheme, pairs=sim.all_pairs())
        assert report.failures == 0
        assert report.max_stretch <= 16 * 2 ** 2 + 8


class TestFactory:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_factory_builds_every_scheme(self, name, small_er, er_oracle, er_simulator):
        scheme = build_scheme(name, small_er, k=2, seed=1, oracle=er_oracle,
                              **({"params": None} if False else {}))
        report = er_simulator.evaluate(scheme, num_pairs=40, seed=2)
        assert report.failures == 0

    def test_factory_aliases(self, small_er, er_oracle):
        assert build_scheme("tz", small_er, k=2, oracle=er_oracle).scheme_name == "thorup-zwick"
        assert build_scheme("spt", small_er, oracle=er_oracle).scheme_name == "shortest-path"

    def test_factory_unknown_name(self, small_er):
        with pytest.raises(ValueError):
            build_scheme("bogus", small_er)
