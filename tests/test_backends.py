"""Backend tests: the lazy backend against an independent reference.

The reference is the all-pairs matrix of :func:`all_pairs_distances` plus a
stable argsort of every row.  The lazy backend must agree with it to 1e-9 on
distances, ``ball``, ``nearest`` and tie-breaking order across seeded random
graphs, with or without a held all-pairs store, and all six routing schemes
must route identically whatever the oracle's cache size.  The landmark
backend is approximate: it must never underestimate and must be refused for
scheme construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.thorup_zwick import ThorupZwickRouting
from repro.construction.context import BuildContext
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.backends import (
    LandmarkApproxBackend,
    LazyDijkstraBackend,
    resolve_backend,
)
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_of_cliques,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, all_pairs_distances
from repro.routing.messages import RouteResult
from repro.routing.simulator import (
    InvalidRouteError,
    PairSamplingError,
    RoutingSimulator,
)


def parity_graphs():
    yield random_geometric_graph(40, seed=301)
    yield erdos_renyi_graph(36, seed=302)
    yield grid_graph(5, 5, seed=303)
    yield ring_of_cliques(4, 5, seed=304)
    # ties on purpose: unit weights make many equidistant pairs
    yield erdos_renyi_graph(30, weights="unit", seed=305)
    # disconnected graph
    yield WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)], seed=306)


def reference(graph):
    """All-pairs distances and every row's stable (distance, node) order."""
    matrix = all_pairs_distances(graph)
    return matrix, np.argsort(matrix, axis=1, kind="stable")


def reference_diameter(matrix) -> float:
    finite = matrix[np.isfinite(matrix)]
    return float(finite.max())


def reference_nearest(row, m, candidates):
    reachable = sorted({int(v) for v in candidates if np.isfinite(row[v])})
    return sorted(reachable, key=lambda v: (row[v], v))[:m]


class TestExactBackendParity:
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("index,graph", list(enumerate(parity_graphs())))
    def test_rows_balls_nearest_and_order_agree(self, index, graph, held):
        matrix, order = reference(graph)
        lazy = DistanceOracle(graph, backend=LazyDijkstraBackend(graph, cache_rows=8))
        if held:
            lazy.hold_all_pairs()
        assert lazy.backend.holds_all_pairs() == held
        rng = np.random.default_rng(400 + index)
        assert lazy.diameter() == pytest.approx(reference_diameter(matrix),
                                                abs=1e-9)
        for u in range(graph.n):
            np.testing.assert_allclose(lazy.row(u), matrix[u], atol=1e-9)
            # identical stable tie-breaking order, not merely equal distances
            np.testing.assert_array_equal(lazy.nodes_by_distance(u), order[u])
            radius = float(rng.uniform(0, max(lazy.eccentricity(u), 1.0)))
            ball = np.flatnonzero(matrix[u] <= radius + 1e-12).tolist()
            assert lazy.ball(u, radius) == ball
            assert lazy.ball_size(u, radius) == len(ball)
            m = int(rng.integers(1, graph.n + 1))
            assert lazy.nearest(u, m) == reference_nearest(matrix[u], m,
                                                           range(graph.n))
            candidates = [int(v) for v in rng.choice(graph.n, size=graph.n // 2,
                                                     replace=False)]
            assert (lazy.nearest(u, m, candidates)
                    == reference_nearest(matrix[u], m, candidates))

    def test_pair_distances_agree(self):
        graph = random_geometric_graph(40, seed=311)
        matrix, _ = reference(graph)
        lazy = DistanceOracle(graph, backend="lazy")
        rng = np.random.default_rng(7)
        us = rng.integers(0, graph.n, size=200)
        vs = rng.integers(0, graph.n, size=200)
        np.testing.assert_allclose(lazy.pair_distances(us, vs), matrix[us, vs],
                                   atol=1e-9)

    def test_iter_row_blocks_covers_matrix(self):
        graph = erdos_renyi_graph(30, seed=312)
        matrix, _ = reference(graph)
        lazy = DistanceOracle(graph, backend=LazyDijkstraBackend(graph, cache_rows=4,
                                                                 chunk_rows=7))
        seen = []
        for chunk, rows in lazy.iter_row_blocks(block=7):
            np.testing.assert_allclose(rows, matrix[chunk], atol=1e-9)
            seen.extend(chunk)
        assert seen == list(range(graph.n))

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_all_schemes_route_identically_under_a_tiny_cache(self, scheme_name):
        graph = random_geometric_graph(36, seed=321)
        tiny = DistanceOracle(graph, backend=LazyDijkstraBackend(graph,
                                                                 cache_rows=4))
        default = DistanceOracle(graph)
        scheme_tiny = build_scheme(scheme_name, graph, k=2, seed=9, oracle=tiny)
        scheme_default = build_scheme(scheme_name, graph, k=2, seed=9,
                                      oracle=default)
        pairs = RoutingSimulator(graph, oracle=default).sample_pairs(80, seed=10)
        for u, v in pairs:
            a = scheme_tiny.route(u, graph.name_of(v))
            b = scheme_default.route(u, graph.name_of(v))
            assert a.path == b.path
            assert a.found == b.found
            assert a.cost == pytest.approx(b.cost, abs=1e-9)


class TestHeldStoreParity:
    """One rule serves ball tables and cluster rows: slices of a held
    all-pairs store, or radius-limited kernel rows.  Both must give the same
    members, ties and unreachable nodes included."""

    @pytest.mark.parametrize("index,graph", list(enumerate(parity_graphs())))
    def test_ball_csr_identical_with_and_without_the_store(self, index, graph):
        cold = DistanceOracle(graph)
        held = DistanceOracle(graph)
        held.hold_all_pairs()
        assert held.backend.holds_all_pairs()
        diameter = cold.diameter()
        radii = [0.0, cold.min_positive_distance(), 0.3 * diameter,
                 0.7 * diameter, diameter]
        for rho in radii:
            cold_ptr, cold_idx = BuildContext(graph, oracle=cold).ball_csr(rho)
            held_ptr, held_idx = BuildContext(graph, oracle=held).ball_csr(rho)
            np.testing.assert_array_equal(cold_ptr, held_ptr)
            np.testing.assert_array_equal(cold_idx, held_idx)
        assert not cold.backend.holds_all_pairs()
        assert cold.backend.misses == 0  # limited rows bypass the row cache

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("index,graph", list(enumerate(parity_graphs())))
    def test_thorup_zwick_clusters_identical_with_and_without_the_store(
            self, index, graph, k):
        # a 4-row block keeps low-level chunks apart from the top level,
        # whose clusters are unbounded, so their fetches are radius-limited
        oracle = DistanceOracle(graph, backend=LazyDijkstraBackend(graph,
                                                                   cache_rows=4))
        scheme = ThorupZwickRouting(graph, k=k, seed=index, oracle=oracle)
        pivot, dist_to_level = scheme._level_structure()

        def clusters():
            return [(key, members) for key, _, members
                    in scheme._iter_used_clusters(pivot, dist_to_level)]

        assert not scheme.oracle.backend.holds_all_pairs()
        cold = clusters()
        scheme.oracle.hold_all_pairs()
        assert scheme.oracle.backend.holds_all_pairs()
        assert clusters() == cold


class TestLazyBackendCache:
    def test_lru_eviction_keeps_results_correct(self):
        graph = erdos_renyi_graph(32, seed=331)
        backend = LazyDijkstraBackend(graph, cache_rows=4)
        matrix, _ = reference(graph)
        for u in list(range(graph.n)) + list(range(graph.n)):
            np.testing.assert_allclose(backend.row(u), matrix[u], atol=1e-9)
            assert len(backend._rows) <= 4
        assert backend.misses >= graph.n
        assert backend.nbytes() <= 4 * graph.n * 8 * 2 + 1024

    def test_prefetch_fills_cache_in_one_batch(self):
        graph = erdos_renyi_graph(24, seed=332)
        backend = LazyDijkstraBackend(graph, cache_rows=64)
        backend.prefetch(range(10))
        misses_after_prefetch = backend.misses
        for u in range(10):
            backend.row(u)
        assert backend.misses == misses_after_prefetch  # all hits
        assert backend.hits >= 10

    def test_prefetch_uses_one_multi_source_call(self):
        graph = erdos_renyi_graph(24, seed=334)
        backend = LazyDijkstraBackend(graph, cache_rows=64, chunk_rows=4)
        calls = []
        original = backend._compute
        backend._compute = lambda sources: calls.append(list(sources)) or original(sources)
        backend.prefetch(range(12))
        # one evaluation round -> one vectorized kernel invocation, even when
        # the hint is larger than the streaming chunk size
        assert len(calls) == 1 and len(calls[0]) == 12
        backend.prefetch(range(12))  # already cached: no further kernel calls
        assert len(calls) == 1

    def test_prefetch_hint_truncated_to_cache_capacity(self):
        graph = erdos_renyi_graph(24, seed=335)
        backend = LazyDijkstraBackend(graph, cache_rows=6)
        backend.prefetch(range(20))
        assert len(backend._rows) <= 6

    def test_never_materializes_dense_matrix(self):
        graph = erdos_renyi_graph(64, seed=333)
        backend = LazyDijkstraBackend(graph, cache_rows=8)
        oracle = DistanceOracle(graph, backend=backend)
        oracle.diameter()
        for u in range(graph.n):
            oracle.ball_size(u, 1.0)
        assert backend.nbytes() < graph.n * graph.n * 8 / 4


class TestLandmarkApproxBackend:
    def test_upper_bound_and_landmark_exactness(self):
        graph = random_geometric_graph(40, seed=341)
        matrix, _ = reference(graph)
        approx = DistanceOracle(graph, backend=LandmarkApproxBackend(graph,
                                                                     num_landmarks=6))
        assert not approx.exact
        for u in range(graph.n):
            true_row = matrix[u]
            est_row = approx.row(u)
            assert est_row[u] == 0.0
            # upper bound everywhere, finite wherever the true distance is
            mask = np.isfinite(true_row)
            assert np.all(est_row[mask] >= true_row[mask] - 1e-9)
        for landmark in approx.backend.landmarks:
            np.testing.assert_allclose(approx.row(landmark), matrix[landmark],
                                       atol=1e-9)

    def test_scheme_construction_refuses_approximate_backend(self):
        graph = random_geometric_graph(24, seed=342)
        for scheme_name in ("agm", "thorup-zwick", "cowen"):
            with pytest.raises(ValueError, match="exact"):
                build_scheme(scheme_name, graph, k=2, seed=1,
                             oracle=DistanceOracle(graph, backend="landmark"))

    def test_every_component_receives_a_landmark(self):
        graph = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 2.0)],
                              seed=344)
        backend = LandmarkApproxBackend(graph, num_landmarks=4)
        comp = graph.component_ids()
        assert {int(comp[l]) for l in backend.landmarks} == set(comp.tolist())
        # intra-component estimates are finite on both sides
        assert np.isfinite(backend.dist(3, 5))
        assert np.isfinite(backend.dist(0, 2))
        assert not np.isfinite(backend.dist(0, 3))  # truly disconnected


class TestMutationInvalidation:
    """Regression: live backends must not serve stale rows after graph mutation.

    ``add_edge`` always invalidated the graph's own CSR/component caches, but
    a live ``LazyDijkstraBackend`` kept its LRU rows.  Backends now watch
    ``graph.version`` and invalidate themselves on the next query.
    """

    def test_lazy_backend_drops_stale_rows_after_add_edge(self):
        graph = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        backend = LazyDijkstraBackend(graph, cache_rows=8)
        oracle = DistanceOracle(graph, backend=backend)
        assert oracle.dist(0, 3) == pytest.approx(3.0)   # row 0 now cached
        graph.add_edge(0, 3, 0.5)
        assert oracle.dist(0, 3) == pytest.approx(0.5)
        assert oracle.dist(0, 2) == pytest.approx(1.5)   # via the new shortcut

    def test_lazy_backend_tracks_removals_and_reweights(self):
        graph = erdos_renyi_graph(24, seed=371)
        backend = LazyDijkstraBackend(graph, cache_rows=32)
        oracle = DistanceOracle(graph, backend=backend)
        oracle.prefetch(range(graph.n))
        u, v, w = next(graph.edges())
        graph.set_edge_weight(u, v, w * 10)
        matrix, order = reference(graph)
        for s in range(graph.n):
            np.testing.assert_allclose(oracle.row(s), matrix[s], atol=1e-9)
            np.testing.assert_array_equal(oracle.nodes_by_distance(s), order[s])
        graph.remove_edge(u, v)
        matrix, _ = reference(graph)
        np.testing.assert_allclose(oracle.row(u), matrix[u], atol=1e-9)

    def test_held_store_and_stats_recomputed_after_mutation(self):
        graph = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        oracle = DistanceOracle(graph)
        oracle.hold_all_pairs()
        assert oracle.diameter() == pytest.approx(2.0)
        graph.add_edge(0, 2, 0.25)
        assert not oracle.backend.holds_all_pairs()
        assert oracle.dist(0, 2) == pytest.approx(0.25)
        assert oracle.diameter() == pytest.approx(1.0)
        graph.detach_node(2)
        assert oracle.dist(0, 2) == float("inf")

    def test_landmark_backend_reestimates_after_mutation(self):
        graph = random_geometric_graph(30, seed=372)
        oracle = DistanceOracle(graph,
                                backend=LandmarkApproxBackend(graph, num_landmarks=5))
        u, v, w = next(graph.edges())
        graph.set_edge_weight(u, v, w * 5)
        matrix, _ = reference(graph)
        for s in range(graph.n):
            true_row = matrix[s]
            est_row = oracle.row(s)
            mask = np.isfinite(true_row)
            assert np.all(est_row[mask] >= true_row[mask] - 1e-9)

    def test_explicit_invalidate_passthrough(self):
        graph = erdos_renyi_graph(16, seed=373)
        backend = LazyDijkstraBackend(graph, cache_rows=8)
        oracle = DistanceOracle(graph, backend=backend)
        oracle.prefetch(range(8))
        assert len(backend._rows) > 0
        oracle.invalidate()
        assert len(backend._rows) == 0

    def test_version_counter_bumps_on_every_mutation_kind(self):
        graph = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0)])
        v0 = graph.version
        graph.add_edge(2, 3, 1.0)
        graph.set_edge_weight(0, 1, 4.0)
        graph.remove_edge(1, 2)
        graph.detach_node(3)
        assert graph.version == v0 + 4
        assert graph.min_weight() == pytest.approx(4.0)

    def test_schemes_built_after_mutation_see_fresh_distances(self):
        graph = random_geometric_graph(28, seed=374)
        oracle = DistanceOracle(graph, backend="lazy")
        build_scheme("shortest-path", graph, k=2, oracle=oracle)  # warm cache
        u, v, w = next(graph.edges())
        graph.remove_edge(u, v)
        scheme = build_scheme("shortest-path", graph, k=2, oracle=oracle)
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph))
        report = sim.evaluate(scheme, pairs=sim.sample_pairs(60, seed=1))
        assert report.failures == 0
        assert report.max_stretch == pytest.approx(1.0)


class TestBackendSelection:
    def test_default_is_the_lazy_backend(self):
        graph = erdos_renyi_graph(24, seed=351)
        assert isinstance(DistanceOracle(graph).backend, LazyDijkstraBackend)

    @pytest.mark.parametrize("name", ["frobnicate", "dense", "auto"])
    def test_unknown_name_rejected(self, name):
        graph = erdos_renyi_graph(8, seed=354)
        with pytest.raises(ValueError, match="unknown distance backend"):
            resolve_backend(graph, name)


class TestVectorizedSampling:
    def test_sample_pairs_exact_count_and_connected(self):
        graph = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)], seed=361)
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph))
        pairs = sim.sample_pairs(200, seed=1)
        assert len(pairs) == 200
        comp = graph.component_ids()
        for u, v in pairs:
            assert u != v and comp[u] == comp[v]
        # node 5 is isolated: it can never appear in a pair
        assert all(5 not in pair for pair in pairs)

    def test_sample_pairs_deterministic_per_seed(self):
        graph = erdos_renyi_graph(30, seed=362)
        sim = RoutingSimulator(graph)
        assert sim.sample_pairs(50, seed=3) == sim.sample_pairs(50, seed=3)
        assert sim.sample_pairs(50, seed=3) != sim.sample_pairs(50, seed=4)

    def test_scalar_walk_check_rejects_out_of_range_node_ids(self):
        graph = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph))
        # a negative id must not wrap onto a real node through the CSR gather
        with pytest.raises(InvalidRouteError, match="outside the graph"):
            sim.verify_walk(RouteResult(found=True, path=[0, -2, 2]), 0, 2)
        with pytest.raises(InvalidRouteError, match="outside the graph"):
            sim.verify_walk(RouteResult(found=True, path=[0, 7, 2]), 0, 2)

    def test_shortfall_raises_by_default_and_warns_on_request(self):
        isolated = WeightedGraph(4, [])  # no connected pair exists
        sim = RoutingSimulator(isolated, oracle=DistanceOracle(isolated))
        with pytest.raises(PairSamplingError):
            sim.sample_pairs(5, seed=0)
        with pytest.warns(UserWarning, match="no connected pair"):
            assert sim.sample_pairs(5, seed=0, on_shortfall="warn") == []

    def test_partial_shortfall_warns_and_returns_partial_list(self):
        # one connected pair among 1000 nodes: acceptance is 2e-6, so the
        # per-round candidate cap bites and two rounds cannot produce 400
        # pairs — the *partial* shortfall path, distinct from the
        # no-pair-exists early exit above
        graph = WeightedGraph(1000, [(0, 1, 1.0)])
        sim = RoutingSimulator(graph,
                               oracle=DistanceOracle(graph, backend="lazy"))
        with pytest.raises(PairSamplingError, match="sampled only"):
            sim.sample_pairs(400, seed=0, max_batches=2)
        with pytest.warns(UserWarning, match="sampled only"):
            pairs = sim.sample_pairs(400, seed=0, on_shortfall="warn",
                                     max_batches=2)
        assert 0 < len(pairs) < 400
        assert all(set(pair) == {0, 1} for pair in pairs)
        # the raise path must not have consumed the partial sample silently:
        # the same seed re-yields the identical partial list
        with pytest.warns(UserWarning, match="sampled only"):
            again = sim.sample_pairs(400, seed=0, on_shortfall="warn",
                                     max_batches=2)
        assert again == pairs

    def test_max_batches_must_be_positive(self):
        graph = WeightedGraph(4, [(0, 1, 1.0)])
        sim = RoutingSimulator(graph,
                               oracle=DistanceOracle(graph, backend="lazy"))
        with pytest.raises(ValueError, match="at least one sampling batch"):
            sim.sample_pairs(2, seed=0, max_batches=0)


class TestLandmarkRowsCertificate:
    """The landmark scoring mode's inputs: ``landmark_rows`` must be exact
    distance rows, stay exact across churn (version sync), and yield valid
    ALT lower bounds — the properties the stretch certificate rests on."""

    def test_rows_are_exact_landmark_distances(self):
        graph = random_geometric_graph(36, seed=345)
        backend = LandmarkApproxBackend(graph, num_landmarks=5, seed=3)
        matrix, _ = reference(graph)
        rows = backend.landmark_rows
        assert rows.shape == (len(backend.landmarks), graph.n)
        for i, landmark in enumerate(backend.landmarks):
            np.testing.assert_allclose(rows[i], matrix[landmark], atol=1e-9)

    def test_rows_resync_after_churn(self):
        graph = random_geometric_graph(36, seed=346)
        backend = LandmarkApproxBackend(graph, num_landmarks=5, seed=3)
        stale = backend.landmark_rows.copy()
        u, v, w = next(graph.edges())
        graph.set_edge_weight(u, v, w * 6)
        graph.add_edge(u, (v + 1) % graph.n, 0.01)
        rows = backend.landmark_rows
        matrix, _ = reference(graph)
        for i, landmark in enumerate(backend.landmarks):
            np.testing.assert_allclose(rows[i], matrix[landmark], atol=1e-9)
        assert not np.allclose(stale, rows)

    def test_alt_lower_bound_below_truth_after_churn(self):
        graph = random_geometric_graph(36, seed=347)
        backend = LandmarkApproxBackend(graph, num_landmarks=6, seed=1)
        u, v, w = next(graph.edges())
        graph.set_edge_weight(u, v, w * 3)
        rows = backend.landmark_rows
        diff = np.abs(rows[:, :, None] - rows[:, None, :])
        bound = np.where(np.isfinite(diff), diff, 0.0).max(axis=0)
        true, _ = reference(graph)
        mask = np.isfinite(true)
        assert np.all(bound[mask] <= true[mask] + 1e-9)

    def test_estimates_remain_upper_bounds_under_version_sync(self):
        graph = random_geometric_graph(30, seed=348)
        oracle = DistanceOracle(
            graph, backend=LandmarkApproxBackend(graph, num_landmarks=5))
        oracle.row(0)                       # warm the approximation cache
        u, v, w = next(graph.edges())
        graph.remove_edge(u, v)
        matrix, _ = reference(graph)
        for s in range(graph.n):
            true_row = matrix[s]
            est_row = oracle.row(s)
            mask = np.isfinite(true_row)
            assert np.all(est_row[mask] >= true_row[mask] - 1e-9)


class TestLazyStatsFastPath:
    """The lazy backend's pruned eccentricity-bound diameter is *exact*.

    The reference diameter is the largest finite entry of the all-pairs
    matrix; the lazy backend prunes nodes whose eccentricity upper bound
    cannot beat the running maximum.  Pruning is a search-order
    optimization, not an approximation — the two must agree to the last
    bit, and the minimum positive distance must be the smallest positive
    entry of the matrix, which is the literal smallest edge weight.
    """

    @pytest.mark.parametrize("index,graph",
                             list(enumerate(parity_graphs())))
    def test_diameter_bitwise_equal_to_reference(self, index, graph):
        matrix, _ = reference(graph)
        lazy = DistanceOracle(graph,
                              backend=LazyDijkstraBackend(graph, cache_rows=4))
        assert lazy.diameter() == reference_diameter(matrix)
        assert lazy.min_positive_distance() == matrix[matrix > 0].min()
        assert lazy.min_positive_distance() == graph.min_weight()

    def test_edgeless_graph_stats(self):
        graph = WeightedGraph(4, [], seed=1)
        lazy = DistanceOracle(graph,
                              backend=LazyDijkstraBackend(graph, cache_rows=4))
        assert lazy.diameter() == 0.0
        # no positive distance at all: the paper normalizes d_min to 1
        assert lazy.min_positive_distance() == 1.0
