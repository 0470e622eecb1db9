"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import AGMParams
from repro.core.scheme import AGMRoutingScheme
from repro.dynamics.events import apply_events, random_event_batch
from repro.factory import build_scheme
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, dijkstra, shortest_path_tree
from repro.hashing.universal import DigitHash, KWiseHash
from repro.routing.simulator import RoutingSimulator
from repro.trees.compact_labeled import CompactTreeRouting
from repro.trees.interval_routing import IntervalTreeRouting
from repro.utils.bitsize import bits_for_count, ceil_log2

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
FAST = settings(max_examples=40, deadline=None)


# --------------------------------------------------------------------------- #
# graph strategies
# --------------------------------------------------------------------------- #
@st.composite
def connected_weighted_graphs(draw, max_nodes=16):
    """Random connected weighted graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = {}
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        w = draw(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
        edges[(parent, v)] = round(w, 3)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            w = draw(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
            edges[key] = round(w, 3)
    return WeightedGraph(n, [(a, b, w) for (a, b), w in edges.items()])


# --------------------------------------------------------------------------- #
# utils
# --------------------------------------------------------------------------- #
class TestBitsizeProperties:
    @FAST
    @given(st.integers(min_value=1, max_value=10**12))
    def test_ceil_log2_bounds(self, x):
        c = ceil_log2(x)
        assert 2 ** c >= x
        if c > 0:
            assert 2 ** (c - 1) < x

    @FAST
    @given(st.integers(min_value=0, max_value=10**9))
    def test_bits_for_count_sufficient(self, x):
        assert 2 ** bits_for_count(x) > x


class TestHashProperties:
    @FAST
    @given(st.integers(), st.integers(min_value=1, max_value=16))
    def test_kwise_hash_stable_and_in_range(self, name, independence):
        h = KWiseHash(independence, seed=7)
        v = h(name)
        assert v == h(name)
        assert 0 <= v < (1 << 61) - 1

    @FAST
    @given(st.text(min_size=0, max_size=20), st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=9))
    def test_digit_hash_prefix_is_prefix(self, name, length, sigma):
        dh = DigitHash(sigma, length, seed=3)
        digits = dh.digits(name)
        assert len(digits) == length
        for j in range(length + 1):
            assert dh.prefix(name, j) == digits[:j]


# --------------------------------------------------------------------------- #
# graphs / shortest paths
# --------------------------------------------------------------------------- #
class TestShortestPathProperties:
    @SLOW
    @given(connected_weighted_graphs())
    def test_dijkstra_matches_scipy_and_triangle_inequality(self, graph):
        oracle = DistanceOracle(graph)
        dist, _ = dijkstra(graph, 0)
        assert np.allclose(dist, oracle.row(0), atol=1e-6)
        n = graph.n
        for a in range(min(n, 4)):
            for b in range(min(n, 4)):
                for c in range(min(n, 4)):
                    assert oracle.dist(a, c) <= oracle.dist(a, b) + oracle.dist(b, c) + 1e-6

    @SLOW
    @given(connected_weighted_graphs())
    def test_spt_depths_equal_distances(self, graph):
        oracle = DistanceOracle(graph)
        tree = shortest_path_tree(graph, 0)
        assert tree.size == graph.n
        for v in tree.nodes:
            assert tree.depth_of(v) == pytest.approx(oracle.dist(0, v), abs=1e-6)

    @SLOW
    @given(connected_weighted_graphs())
    def test_balls_nested_and_bounded(self, graph):
        oracle = DistanceOracle(graph)
        r1 = oracle.diameter() / 3
        small = set(oracle.ball(0, r1))
        big = set(oracle.ball(0, 2 * r1))
        assert small <= big
        assert oracle.ball_size(0, oracle.diameter() + 1) == graph.n


# --------------------------------------------------------------------------- #
# tree routing invariants
# --------------------------------------------------------------------------- #
class TestTreeRoutingProperties:
    @SLOW
    @given(connected_weighted_graphs(), st.integers(min_value=1, max_value=3))
    def test_compact_routing_is_stretch_one(self, graph, k):
        tree = shortest_path_tree(graph, 0)
        routing = CompactTreeRouting(tree, k=k)
        nodes = tree.nodes
        for s in nodes[: min(4, len(nodes))]:
            for t in nodes[-min(4, len(nodes)):]:
                path, cost = routing.walk(s, t)
                assert path[0] == s and path[-1] == t
                assert cost == pytest.approx(tree.tree_distance(s, t), abs=1e-6)

    @SLOW
    @given(connected_weighted_graphs())
    def test_interval_routing_equals_compact_routing_cost(self, graph):
        tree = shortest_path_tree(graph, 0)
        interval = IntervalTreeRouting(tree)
        compact = CompactTreeRouting(tree, k=2)
        nodes = tree.nodes
        s, t = nodes[0], nodes[-1]
        _, cost_a = interval.walk(s, interval.label_of(t))
        _, cost_b = compact.walk(s, t)
        assert cost_a == pytest.approx(cost_b, abs=1e-6)

    @SLOW
    @given(connected_weighted_graphs(), st.integers(min_value=1, max_value=3))
    def test_label_light_edges_bounded(self, graph, k):
        tree = shortest_path_tree(graph, 0)
        routing = CompactTreeRouting(tree, k=k)
        assert routing.max_light_edges() <= max(k, int(math.log2(max(tree.size, 2))) + 1)


# --------------------------------------------------------------------------- #
# churn: engine parity must survive mutation + repair
# --------------------------------------------------------------------------- #
class TestChurnEngineParityProperties:
    @SLOW
    @given(connected_weighted_graphs(max_nodes=12),
           st.sampled_from(["shortest-path", "thorup-zwick", "cowen",
                            "exponential"]),
           st.integers(min_value=0, max_value=2**16))
    def test_engines_produce_identical_walks_after_each_event_batch(
            self, graph, scheme_name, seed):
        """Scalar vs lockstep parity under mutation.

        After every event batch + ``maintain()`` (a full rebuild) both
        engines must produce identical walks (node for node) and identical
        found/strategy metadata on a random pair sample.
        """
        scheme = build_scheme(scheme_name, graph, k=2, seed=seed,
                              oracle=DistanceOracle(graph))
        for batch_index in range(2):
            events = random_event_batch(graph, 3, seed=seed + batch_index,
                                        kinds=("fail", "perturb"))
            delta = apply_events(graph, events)
            scheme.maintain(delta)
            simulator = RoutingSimulator(graph, oracle=DistanceOracle(graph))
            import warnings

            with warnings.catch_warnings():
                # failures may have shattered the graph: a short sample is fine
                warnings.simplefilter("ignore")
                pairs = simulator.sample_pairs(8, seed=seed,
                                               on_shortfall="warn")
            scalar = simulator.route_batch(scheme, pairs, engine="scalar")
            lockstep = simulator.route_batch(scheme, pairs, engine="lockstep")
            for a, b in zip(scalar, lockstep):
                assert a.path == b.path
                assert a.found == b.found
                assert a.strategy == b.strategy
                assert a.phases_used == b.phases_used


# --------------------------------------------------------------------------- #
# the full scheme
# --------------------------------------------------------------------------- #
class TestSchemeProperties:
    @SLOW
    @given(connected_weighted_graphs(max_nodes=14), st.integers(min_value=1, max_value=3))
    def test_agm_always_finds_destination_with_valid_walk(self, graph, k):
        scheme = AGMRoutingScheme.build(graph, k=k, params=AGMParams.experiment(), seed=5)
        simulator = RoutingSimulator(graph)
        for u in range(min(graph.n, 4)):
            for v in range(graph.n - 1, max(graph.n - 4, -1), -1):
                if u == v:
                    continue
                result = scheme.route(u, graph.name_of(v))
                assert result.found
                cost = simulator.verify_walk(result, u, v)
                assert cost >= simulator.oracle.dist(u, v) - 1e-6
