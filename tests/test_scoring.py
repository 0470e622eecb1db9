"""Scoring modes: exact delivery accounting under approximation, certified
landmark upper bounds, the landmark selection they rest on, seeded sampling
determinism, and error reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.shortest_path import ShortestPathRouting
from repro.factory import build_scheme
from repro.graphs.generators import barabasi_albert_graph, random_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import (DistanceOracle, all_pairs_distances,
                                         multi_source_distances)
from repro.traffic.engine import run_traffic
from repro.traffic.models import make_traffic_model
from repro.traffic.scoring import (
    DEFAULT_SAMPLE_PER_BATCH,
    LandmarkScorer,
    SampledScorer,
    farthest_point_landmarks,
    make_scorer,
)


@pytest.fixture(scope="module")
def scoring_graph():
    return random_geometric_graph(160, seed=41)


@pytest.fixture(scope="module")
def scoring_oracle(scoring_graph):
    return DistanceOracle(scoring_graph)


@pytest.fixture(scope="module")
def scoring_scheme(scoring_graph, scoring_oracle):
    return ShortestPathRouting(scoring_graph, oracle=scoring_oracle)


@pytest.fixture(scope="module")
def scoring_model(scoring_graph):
    return make_traffic_model("zipf", scoring_graph, seed=17, support=32)


def run_mode(scheme, model, oracle, mode, **kwargs):
    return run_traffic(scheme, model, 8192, batch_size=1024, shards=2,
                       processes=0, oracle=oracle, scoring=mode, **kwargs)


class TestModeRegistry:
    def test_unknown_mode_rejected(self, scoring_graph, scoring_oracle):
        with pytest.raises(Exception, match="unknown scoring mode"):
            make_scorer("fuzzy", scoring_graph, scoring_oracle)

    def test_exact_mode_is_inline(self, scoring_graph, scoring_oracle):
        assert make_scorer("exact", scoring_graph, scoring_oracle) is None

    def test_scorer_classes(self, scoring_graph, scoring_oracle):
        assert isinstance(make_scorer("sampled", scoring_graph, scoring_oracle),
                          SampledScorer)
        assert isinstance(make_scorer("landmark", scoring_graph, scoring_oracle),
                          LandmarkScorer)


class TestDeliveryAccountingExact:
    """Approximate scoring must never change the delivery counters."""

    def test_counters_identical_across_modes(self, scoring_scheme,
                                             scoring_model, scoring_oracle):
        summaries = {
            mode: run_mode(scoring_scheme, scoring_model, scoring_oracle,
                           mode).summary()
            for mode in ("exact", "sampled", "landmark")
        }
        for key in ("delivered", "failures", "unreachable", "packets",
                    "avg_hops", "max_hops"):
            assert summaries["sampled"][key] == summaries["exact"][key]
            assert summaries["landmark"][key] == summaries["exact"][key]

    def test_report_records_mode(self, scoring_scheme, scoring_model,
                                 scoring_oracle):
        report = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                          "landmark")
        assert report.scoring == "landmark"
        assert report.as_row()["scoring"] == "landmark"
        exact = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                         "exact")
        assert exact.scoring == "exact"


class TestSampledMode:
    def test_sample_size_and_stderr_reported(self, scoring_scheme,
                                             scoring_model, scoring_oracle):
        report = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                          "sampled")
        s = report.summary()
        # 8 batches of 1024 packets, DEFAULT_SAMPLE_PER_BATCH each
        assert s["stretch_count"] == 8 * DEFAULT_SAMPLE_PER_BATCH
        assert "stretch_stderr" in s
        # shortest-path truth: sampled exact stretch is exactly 1
        assert s["avg_stretch"] == pytest.approx(1.0)

    def test_sampled_stretch_is_exact_on_sample(self, scoring_graph,
                                                scoring_oracle, scoring_model):
        scheme = build_scheme("cowen", scoring_graph, k=2, seed=3,
                              oracle=scoring_oracle)
        exact = run_mode(scheme, scoring_model, scoring_oracle, "exact").summary()
        sampled = run_mode(scheme, scoring_model, scoring_oracle,
                           "sampled").summary()
        assert sampled["max_stretch"] <= exact["max_stretch"] + 1e-12
        assert sampled["avg_stretch"] <= exact["max_stretch"] + 1e-12

    def test_deterministic_across_process_counts(self, scoring_scheme,
                                                 scoring_model, scoring_oracle):
        inline = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                          "sampled").summary()
        forked = run_traffic(scoring_scheme, scoring_model, 8192,
                             batch_size=1024, shards=2, processes=2,
                             oracle=scoring_oracle, scoring="sampled").summary()
        assert inline == forked


class TestLandmarkMode:
    def test_lower_bounds_never_exceed_truth(self, scoring_graph,
                                             scoring_oracle):
        scorer = make_scorer("landmark", scoring_graph, scoring_oracle, seed=5)
        rng = np.random.default_rng(2)
        src = rng.integers(0, scoring_graph.n, size=500)
        dst = rng.integers(0, scoring_graph.n, size=500)
        bound = scorer.lower_bounds(src, dst)
        true = scoring_oracle.pair_distances(dst, src)
        mask = np.isfinite(true)
        assert np.all(bound[mask] <= true[mask] + 1e-9)
        # strictly positive wherever the pair is distinct and connected
        assert np.all(bound[mask & (src != dst)] > 0)

    def test_stretch_is_certified_upper_bound(self, scoring_scheme,
                                              scoring_model, scoring_oracle):
        exact = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                         "exact").summary()
        landmark = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                            "landmark").summary()
        assert landmark["avg_stretch_upper"] >= exact["avg_stretch"] - 1e-12
        assert landmark["max_stretch_upper"] >= exact["max_stretch"] - 1e-12

    def test_bounds_never_published_as_exact_stretch(self, scoring_scheme,
                                                     scoring_model,
                                                     scoring_oracle):
        """Landmark bounds live under stretch_upper_*, never plain stretch."""
        report = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                          "landmark")
        assert report.stats.bounded
        s = report.summary()
        assert "avg_stretch" not in s
        assert "max_stretch" not in s
        for key in ("avg_stretch_upper", "max_stretch_upper",
                    "stretch_upper_p50", "stretch_upper_p99",
                    "stretch_upper_stderr"):
            assert key in s
        row = report.as_row()
        assert "avg_stretch" not in row
        assert row["avg_stretch_upper"] == s["avg_stretch_upper"]
        assert row["avg_score_error"] == s["avg_score_error"]

    def test_certificate_error_reported_nonnegative(self, scoring_scheme,
                                                    scoring_model,
                                                    scoring_oracle):
        s = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                     "landmark").summary()
        assert s["score_error_count"] > 0
        assert s["avg_score_error"] >= -1e-12
        assert s["max_score_error"] >= s["avg_score_error"] - 1e-12

    def test_prebuilt_scorer_accepted(self, scoring_scheme, scoring_model,
                                      scoring_graph, scoring_oracle):
        scorer = make_scorer("landmark", scoring_graph, scoring_oracle,
                             seed=17, sample_per_batch=16, num_landmarks=4)
        report = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                          scorer)
        assert report.scoring == "landmark"
        assert report.summary()["score_error_count"] == 8 * 16


def three_component_graph():
    """Components {0, 1, 2}, {3, 4} and the isolated node 5."""
    return WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)], seed=344)


class TestLandmarkSelection:
    """What the landmark mode's certificate rests on: exact landmark rows, a
    landmark in every component, and ALT bounds that never exceed the truth."""

    def test_rows_are_exact_landmark_distances(self):
        graph = random_geometric_graph(36, seed=345)
        scorer = LandmarkScorer(graph, DistanceOracle(graph), seed=3,
                                num_landmarks=5)
        matrix = all_pairs_distances(graph)
        assert scorer.rows.shape == (5, graph.n)
        np.testing.assert_allclose(scorer.rows, matrix[scorer.landmarks],
                                   atol=1e-9)

    def test_every_component_receives_a_landmark(self):
        graph = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0),
                                  (4, 5, 2.0)], seed=344)
        scorer = LandmarkScorer(graph, DistanceOracle(graph), num_landmarks=4)
        comp = graph.component_ids()
        assert {int(comp[l]) for l in scorer.landmarks} == set(comp.tolist())
        # intra-component bounds are positive and finite on both sides;
        # landmarks of other components give inf - inf, which is masked
        src, dst = np.array([3, 0, 0]), np.array([5, 2, 3])
        with np.errstate(invalid="ignore"):
            bound = scorer.lower_bounds(src, dst)
        assert np.all(np.isfinite(bound)) and np.all(bound[:2] > 0)

    def test_alt_lower_bound_below_truth_after_churn(self):
        graph = random_geometric_graph(36, seed=347)
        u, v, w = next(graph.edges())
        graph.set_edge_weight(u, v, w * 3)
        scorer = LandmarkScorer(graph, DistanceOracle(graph), seed=1,
                                num_landmarks=6)
        src, dst = np.divmod(np.arange(graph.n * graph.n), graph.n)
        bound = scorer.lower_bounds(src, dst).reshape(graph.n, graph.n)
        true = all_pairs_distances(graph)
        mask = np.isfinite(true)
        assert np.all(bound[mask] <= true[mask] + 1e-9)

    @pytest.mark.parametrize("graph_name,seed,expected", [
        ("geometric-60", 0,
         [0, 2, 18, 16, 38, 58, 4, 3, 53, 42, 21, 17, 59, 23, 31, 6]),
        ("geometric-60", 7,
         [7, 18, 3, 2, 6, 45, 5, 37, 21, 24, 35, 23, 22, 17, 13, 58]),
        ("geometric-60", 123456789,
         [9, 24, 17, 3, 56, 18, 5, 38, 21, 42, 30, 58, 23, 22, 14, 51]),
        ("barabasi-albert-120", 7,
         [7, 105, 47, 37, 67, 91, 76, 103, 54, 14, 78, 113, 109, 74, 92, 27]),
        ("three-components", 0, [0, 3, 5, 2, 1, 4]),
        ("three-components", 7, [1, 3, 5, 0, 2, 4]),
        ("three-components", 123456789, [3, 0, 5, 2, 1, 4]),
    ])
    def test_landmarks_pinned(self, graph_name, seed, expected):
        graph = {"geometric-60": lambda: random_geometric_graph(60, seed=41),
                 "barabasi-albert-120": lambda: barabasi_albert_graph(120,
                                                                      seed=5),
                 "three-components": three_component_graph}[graph_name]()
        scorer = make_scorer("landmark", graph, DistanceOracle(graph),
                             seed=seed)
        assert scorer.landmarks.tolist() == expected
        landmarks, rows = farthest_point_landmarks(graph, 16, seed=seed)
        assert landmarks == expected
        # the selection's own Dijkstra rows, bit for bit one multi-source pass
        np.testing.assert_array_equal(rows,
                                      multi_source_distances(graph, expected))
        np.testing.assert_array_equal(scorer.rows, rows)


class TestExactSummaryUnchanged:
    def test_exact_mode_has_no_error_fields(self, scoring_scheme,
                                            scoring_model, scoring_oracle):
        s = run_mode(scoring_scheme, scoring_model, scoring_oracle,
                     "exact").summary()
        assert "score_error_count" not in s
        assert "stretch_stderr" not in s
