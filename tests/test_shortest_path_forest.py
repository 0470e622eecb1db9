"""One Dijkstra pass per graph version: the shared shortest-path forest.

:meth:`DistanceOracle.shortest_path_forest` gives the shortest-path build
its predecessors and, when one call covers every node, hands its distance
matrix to the backend as the store for the current graph version.  These
tests pin that the forest is bit-identical to the undirected kernel, that
the store serves exactly the rows a fresh oracle computes and dies with the
graph version, and that exact scoring through the build's oracle matches
scoring through an independent one.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.baselines.shortest_path import ShortestPathRouting
from repro.dynamics.events import (
    ChurnEvent,
    apply_events,
    edge_failures,
    weight_perturbations,
)
from repro.factory import build_scheme
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.generators import (
    barabasi_albert_graph,
    grid_graph,
    random_geometric_graph,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, all_pairs_distances
from repro.live import LiveSimulator
from repro.utils.validation import ValidationError


def _two_components() -> WeightedGraph:
    left = barabasi_albert_graph(30, seed=14)
    right = grid_graph(4, 5, seed=15)
    edges = list(left.edges())
    edges += [(u + left.n, v + left.n, w) for u, v, w in right.edges()]
    return WeightedGraph(left.n + right.n, edges, seed=16)


def forest_graphs():
    yield "ba", barabasi_albert_graph(120, seed=11)
    # unit weights: many equal-length paths, so predecessor ties matter
    yield "grid", grid_graph(8, 9, weights="unit", seed=12)
    yield "geometric", random_geometric_graph(90, seed=13)
    yield "two-components", _two_components()


def _undirected_forest(graph: WeightedGraph, sources: np.ndarray):
    return scipy_dijkstra(graph.to_scipy_csr(), directed=False,
                          indices=sources, return_predecessors=True)


class TestForestParity:
    @pytest.mark.parametrize("name,graph", list(forest_graphs()))
    def test_all_sources_match_apsp_and_undirected_predecessors(self, name,
                                                                 graph):
        everyone = np.arange(graph.n)
        dist, pred = DistanceOracle(graph, backend="lazy") \
            .shortest_path_forest(everyone)
        np.testing.assert_array_equal(dist, all_pairs_distances(graph))
        ref_dist, ref_pred = _undirected_forest(graph, everyone)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(pred, ref_pred)
        assert pred.dtype == ref_pred.dtype

    @pytest.mark.parametrize("name,graph", list(forest_graphs()))
    def test_partial_block_matches_undirected_kernel(self, name, graph):
        block = np.arange(3, graph.n, 7)
        dist, pred = DistanceOracle(graph, backend="lazy") \
            .shortest_path_forest(block)
        ref_dist, ref_pred = _undirected_forest(graph, block)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(pred, ref_pred)

    def test_rejects_out_of_range_sources(self):
        graph = barabasi_albert_graph(20, seed=3)
        with pytest.raises(Exception):
            DistanceOracle(graph, backend="lazy").shortest_path_forest([0, 20])


def test_csr_stays_symmetric_after_events():
    """The directed forest call relies on a symmetric adjacency CSR."""
    graph = barabasi_albert_graph(80, seed=17)
    u, v, w = next(graph.edges())
    events = edge_failures(graph, 6, seed=1)
    events += weight_perturbations(graph, 6, seed=2)
    events += [ChurnEvent("detach", 5),
               ChurnEvent("recover", 0, 79, weight=0.25),
               ChurnEvent("fail", u, v), ChurnEvent("recover", u, v, weight=w)]
    before = graph.version
    apply_events(graph, events)
    assert graph.version > before
    csr = graph.to_scipy_csr()
    assert (csr != csr.T).nnz == 0
    np.testing.assert_array_equal(
        DistanceOracle(graph, backend="lazy")
        .shortest_path_forest(np.arange(graph.n))[0],
        all_pairs_distances(graph))


class TestLazyStore:
    @pytest.fixture
    def built(self):
        graph = barabasi_albert_graph(150, seed=18)
        backend = LazyDijkstraBackend(graph, cache_rows=8)
        oracle = DistanceOracle(graph, backend=backend)
        ShortestPathRouting(graph, oracle=oracle)
        return graph, oracle, backend

    def test_build_rows_serve_queries_without_misses(self, built):
        graph, oracle, backend = built
        everyone = list(range(graph.n))
        fresh = DistanceOracle(graph, backend="lazy")
        np.testing.assert_array_equal(oracle.rows(everyone),
                                      fresh.rows(everyone))
        oracle.prefetch(everyone)
        np.testing.assert_array_equal(oracle.row(7), fresh.row(7))
        np.testing.assert_array_equal(oracle.nodes_by_distance(9),
                                      fresh.nodes_by_distance(9))
        assert backend.misses == 0
        assert backend.row_spills == 0
        assert backend.hits >= graph.n
        assert backend.nbytes() >= graph.n * graph.n * 8

    def test_mutation_drops_the_store(self, built):
        graph, oracle, backend = built
        apply_events(graph, edge_failures(graph, 5, seed=3))
        fresh = DistanceOracle(graph, backend="lazy")
        np.testing.assert_array_equal(oracle.row(0), fresh.row(0))
        assert backend.misses == 1
        assert backend.nbytes() < graph.n * graph.n * 8
        everyone = list(range(graph.n))
        np.testing.assert_array_equal(oracle.rows(everyone),
                                      fresh.rows(everyone))
        assert backend.misses > 1

    def test_forest_releases_a_stale_store_before_computing(self, built):
        graph, oracle, backend = built
        apply_events(graph, edge_failures(graph, 5, seed=3))
        # a partial block adopts nothing, so only the early release can
        # have dropped the old version's matrix
        oracle.shortest_path_forest([0, 1])
        assert backend.nbytes() == 0

    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_range_rows_refused_with_or_without_the_store(self, built,
                                                                 held, bad):
        graph, oracle, backend = built
        if not held:
            oracle.invalidate()
        assert backend.holds_all_pairs() == held
        bad = graph.n if bad == "n" else bad
        # the held matrix must not wrap -1 onto row n-1 or leak IndexError
        with pytest.raises(ValidationError):
            oracle.rows([0, bad])
        with pytest.raises(ValidationError):
            oracle.rows_within([bad], 1.0)

    @pytest.mark.parametrize("sources", ["prefix", "reversed"])
    def test_partial_or_unordered_sources_keep_nothing(self, sources):
        graph = barabasi_albert_graph(60, seed=19)
        backend = LazyDijkstraBackend(graph)
        oracle = DistanceOracle(graph, backend=backend)
        block = (np.arange(graph.n - 1) if sources == "prefix"
                 else np.arange(graph.n)[::-1])
        oracle.shortest_path_forest(block)
        assert backend.nbytes() == 0
        oracle.row(0)
        assert backend.misses == 1


def test_live_scoring_through_the_build_oracle_matches_a_fresh_oracle():
    """Sharing the build's rows changes no score and recomputes no row."""

    def run(shared: bool):
        graph = barabasi_albert_graph(200, seed=6)
        build_oracle = DistanceOracle(graph, backend="lazy")
        scheme = build_scheme("shortest-path", graph, seed=1,
                              oracle=build_oracle)
        scoring = build_oracle if shared else DistanceOracle(graph,
                                                             backend="lazy")
        timeline = LiveSimulator(scheme, "flap-heavy", oracle=scoring,
                                 epochs=2, epoch_packets=1200,
                                 batch_size=256, stale_packets=200,
                                 seed=13).run()
        assert all(record.events > 0 for record in timeline.epochs[1:])
        return timeline.merged_stats().summary(), scoring.backend

    shared_summary, shared_backend = run(shared=True)
    fresh_summary, fresh_backend = run(shared=False)
    assert shared_summary == fresh_summary
    assert shared_backend.misses == 0
    assert shared_backend.hits > 0
    assert fresh_backend.misses > 0
