"""Cross-engine conformance suite for the traffic subsystem.

Three layers of guarantees:

* **Model layer** — seeded traffic batches are bit-identical per seed,
  independent of generation order, and always connect valid (distinct,
  same-component) endpoint pairs; each model exhibits its advertised shape
  (Zipf concentration, hotspot fraction, gravity locality).
* **Statistics layer** — the streaming structures match exact recomputation:
  per-batch digests reduce to exact count/avg/min/max, histogram quantiles
  sit within their documented relative-error bound, and splitting a stream
  into shards merges back to an identical summary.
* **Engine layer** — stretch certification: for every scheme × graph family,
  traffic routed under the lockstep *and* sharded engines stays within the
  scheme's advertised stretch bound when checked against a **freshly built**
  oracle (never the scheme's own state), and the streamed statistics are
  identical across engines and shard counts (the determinism regression).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import AGMParams
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_of_cliques,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.simulator import RoutingSimulator
from repro.traffic.engine import (
    batch_size_of,
    num_batches,
    processes_enabled,
    run_traffic,
    run_traffic_exact,
)
from repro.traffic.models import (
    TRAFFIC_MODEL_NAMES,
    TRAFFIC_MODELS,
    GravityTraffic,
    HotspotTraffic,
    PairTraffic,
    ZipfTraffic,
    make_traffic_model,
)
from repro.traffic.stats import (
    LOG_QUANTILE_RTOL,
    IntHistogram,
    LogHistogram,
    MetricStream,
    TrafficStats,
)

#: advertised stretch bound per scheme at k=2 (mirrors the churn suite)
STRETCH_BOUND = {
    "shortest-path": 1.0 + 1e-9,
    "cowen": 3.0 + 1e-6,
    "thorup-zwick": 3.0 + 1e-6,          # 4k - 5 at k = 2
    "agm": 16 * 2 + 8,                   # experiment-constant AGM bound
    "awerbuch-peleg": 16 * 2 + 8,
    "exponential": 16 * 2 ** 2 + 8,      # the O(2^k) family
}

FAMILIES = {
    "geometric": lambda seed: random_geometric_graph(36, seed=seed),
    "erdos-renyi": lambda seed: erdos_renyi_graph(32, seed=seed),
    "grid": lambda seed: grid_graph(6, 6, seed=seed),
    "ring-of-cliques": lambda seed: ring_of_cliques(5, 6, seed=seed),
}

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def valid_pairs(graph: WeightedGraph, src: np.ndarray, dst: np.ndarray) -> None:
    comp = graph.component_ids()
    assert (src != dst).all()
    assert (comp[src] == comp[dst]).all()
    assert (src >= 0).all() and (src < graph.n).all()
    assert (dst >= 0).all() and (dst < graph.n).all()


# --------------------------------------------------------------------------- #
# traffic models
# --------------------------------------------------------------------------- #
class TestTrafficModels:
    @pytest.mark.parametrize("name", TRAFFIC_MODEL_NAMES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_batches_deterministic_and_valid(self, name, family):
        graph = FAMILIES[family](seed=901)
        model = make_traffic_model(name, graph, seed=17)
        src, dst = model.batch(5, 400)
        valid_pairs(graph, src, dst)
        # bit-identical from a fresh instance, regardless of call order
        other = make_traffic_model(name, graph, seed=17)
        other.batch(0, 400)   # generating a different batch first changes nothing
        src2, dst2 = other.batch(5, 400)
        np.testing.assert_array_equal(src, src2)
        np.testing.assert_array_equal(dst, dst2)
        # a different seed produces a different stream
        src3, _ = make_traffic_model(name, graph, seed=18).batch(5, 400)
        assert not np.array_equal(src, src3)

    def test_batches_valid_on_disconnected_graphs(self):
        graph = WeightedGraph(8, [(0, 1, 1.0), (1, 2, 2.0), (4, 5, 1.0),
                                  (5, 6, 1.5)], seed=7)
        for name in TRAFFIC_MODEL_NAMES:
            src, dst = make_traffic_model(name, graph, seed=3).batch(0, 500)
            valid_pairs(graph, src, dst)
            assert 3 not in set(src.tolist()) | set(dst.tolist())  # isolated
            assert 7 not in set(src.tolist()) | set(dst.tolist())

    def test_model_refused_without_any_connected_pair(self):
        isolated = WeightedGraph(4, [])
        with pytest.raises(ValueError, match="connected pair"):
            make_traffic_model("uniform", isolated)

    @pytest.mark.parametrize("name", TRAFFIC_MODEL_NAMES)
    def test_hot_destinations_contract(self, name):
        """Every model returns an int64 index array (possibly empty) — the
        uniform warm-cache contract the engine's hot-row cache relies on."""
        graph = random_geometric_graph(40, seed=906)
        model = make_traffic_model(name, graph, seed=4)
        hot = model.hot_destinations()
        assert isinstance(hot, np.ndarray)
        assert hot.dtype == np.int64 and hot.ndim == 1
        if hot.size:
            assert (hot >= 0).all() and (hot < graph.n).all()
            assert np.unique(hot).size == hot.size
        # skewed models advertise their head; uniform has none by definition
        if name in ("zipf", "hotspot", "gravity"):
            assert hot.size > 0
        if name == "uniform":
            assert hot.size == 0

    def test_zipf_hot_destinations_hottest_first(self):
        graph = random_geometric_graph(40, seed=906)
        model = ZipfTraffic(graph, seed=4, exponent=1.1, support=6)
        hot = model.hot_destinations()
        _, dst = model.batch(0, 30000)
        counts = np.bincount(dst, minlength=graph.n)[hot]
        assert (np.diff(counts) < 0).all()

    def test_gravity_hot_destinations_heaviest_first(self):
        graph = random_geometric_graph(40, seed=906)
        hot = GravityTraffic(graph, seed=5).hot_destinations()
        degrees = np.asarray([graph.degree(int(v)) for v in hot])
        assert (np.diff(degrees) <= 0).all()

    def test_flash_crowd_hot_destinations_lead_with_phase_heads(self):
        """The union of the phases' hot sets starts with each phase's most
        popular destination, so a capped cache keeps every phase's head."""
        graph = random_geometric_graph(40, seed=906)
        model = make_traffic_model("flash-crowd", graph, seed=4, support=8,
                                   batches_per_phase=2, num_phases=3)
        hot = model.hot_destinations()
        heads = set()
        for phase in range(3):
            _, dst = model.batch(2 * phase, 4000)
            heads.add(int(np.bincount(dst, minlength=graph.n).argmax()))
        assert len(heads) == 3
        assert set(hot[:3].tolist()) == heads

    def test_zipf_concentrates_and_support_truncates(self):
        graph = random_geometric_graph(60, seed=905)
        model = ZipfTraffic(graph, seed=9, exponent=1.2, support=10)
        _, dst = model.batch(0, 4000)
        assert len(set(dst.tolist())) <= 10
        counts = np.bincount(dst, minlength=graph.n)
        # the most popular destination dwarfs the uniform expectation
        assert counts.max() > 5 * 4000 / graph.n

    def test_hotspot_fraction_respected(self):
        graph = random_geometric_graph(60, seed=906)
        model = HotspotTraffic(graph, seed=4, hotspots=4, fraction=0.8,
                               placement="high-degree")
        _, dst = model.batch(1, 5000)
        hot = np.isin(dst, model.hotspots)
        assert 0.72 < hot.mean() < 0.88
        degrees = [graph.degree(int(v)) for v in model.hotspots]
        assert min(degrees) >= int(np.median([graph.degree(v)
                                              for v in range(graph.n)]))

    def test_gravity_locality_stays_in_neighborhood(self):
        graph = random_geometric_graph(60, seed=907)
        model = GravityTraffic(graph, seed=5, locality=1.0, hops=2)
        src, dst = model.batch(2, 2000)
        valid_pairs(graph, src, dst)
        oracle = DistanceOracle(graph)
        # every packet's endpoints are within 2 hops (unweighted) of each other
        for u, v in set(zip(src.tolist(), dst.tolist())):
            neighbors = {w for w, _ in graph.neighbors(u)}
            two_hop = set(neighbors)
            for w in neighbors:
                two_hop.update(x for x, _ in graph.neighbors(w))
            assert v in two_hop
        assert np.isfinite(oracle.pair_distances(src, dst)).all()

    def test_unknown_model_rejected(self):
        graph = random_geometric_graph(20, seed=908)
        with pytest.raises(ValueError, match="unknown traffic model"):
            make_traffic_model("carrier-pigeon", graph)


class TestPairTraffic:
    """The explicit-pairs model: a given list, in order, once per run."""

    def test_batches_partition_the_list_in_order(self):
        graph = random_geometric_graph(30, seed=920)
        src = np.arange(10) % graph.n
        dst = (np.arange(10) * 7 + 3) % graph.n
        model = PairTraffic(graph, src, dst, batch_size=4)
        got = [model.batch(b, size) for b, size in ((0, 4), (1, 4), (2, 2))]
        np.testing.assert_array_equal(np.concatenate([s for s, _ in got]), src)
        np.testing.assert_array_equal(np.concatenate([d for _, d in got]), dst)
        assert model.hot_destinations().size == 0
        assert PairTraffic.name not in TRAFFIC_MODELS

    def test_requests_outside_the_partition_refused(self):
        graph = random_geometric_graph(30, seed=921)
        model = PairTraffic(graph, np.arange(10), np.arange(10)[::-1],
                            batch_size=4)
        for batch_index, size in ((0, 3), (0, 5), (2, 4), (3, 1), (-1, 4)):
            with pytest.raises(ValueError):
                model.batch(batch_index, size)

    def test_out_of_range_or_unequal_pairs_refused(self):
        graph = random_geometric_graph(30, seed=922)
        for src, dst in (([0, -1], [1, 2]), ([0, 1], [2, graph.n]),
                         ([0, 1], [2])):
            with pytest.raises(ValueError):
                PairTraffic(graph, src, dst, batch_size=8)

    def test_run_routes_every_pair_once_under_any_shard_count(self):
        graph = random_geometric_graph(40, seed=923)
        oracle = DistanceOracle(graph)
        scheme = build_scheme("cowen", graph, k=2, seed=4, oracle=oracle)
        pairs = np.asarray(RoutingSimulator(graph).sample_pairs(300, seed=5))
        model = PairTraffic(graph, pairs[:, 0], pairs[:, 1], batch_size=64)
        single = run_traffic(scheme, model, len(pairs), batch_size=64,
                             oracle=oracle)
        sharded = run_traffic(scheme, model, len(pairs), shards=3,
                              batch_size=64, oracle=oracle, processes=False)
        assert single.stats.packets == len(pairs)
        assert single.summary() == sharded.summary()
        costs = [r.cost for r in RoutingSimulator(graph).route_batch(
            scheme, pairs.tolist())]
        stretch = np.asarray(costs) / oracle.pair_distances(pairs[:, 0],
                                                            pairs[:, 1])
        assert single.summary()["max_stretch"] == pytest.approx(
            stretch.max(), rel=1e-12)
        assert single.summary()["avg_stretch"] == pytest.approx(
            stretch.mean(), rel=1e-12)


# --------------------------------------------------------------------------- #
# streaming statistics
# --------------------------------------------------------------------------- #
class TestStreamingStats:
    def test_log_histogram_quantiles_within_documented_error(self):
        rng = np.random.default_rng(11)
        values = 1.0 + rng.exponential(scale=0.8, size=20000)
        hist = LogHistogram()
        hist.update(values)
        for q in (0.05, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            assert hist.quantile(q) == pytest.approx(
                exact, rel=4 * LOG_QUANTILE_RTOL + 1e-3)

    def test_int_histogram_is_exact(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 40, size=5000)
        hist = IntHistogram()
        hist.update(values)
        for q in (0.1, 0.5, 0.95):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            assert hist.quantile(q) == exact
        assert hist.count == 5000

    def test_merge_is_partition_independent(self):
        rng = np.random.default_rng(13)
        batches = [1.0 + rng.random(300) for _ in range(8)]
        hop_batches = [rng.integers(0, 20, size=300) for _ in range(8)]

        def fill(stats: TrafficStats, indices) -> TrafficStats:
            for b in indices:
                stats.update_batch(b, batches[b], hop_batches[b],
                                   packets=300, delivered=299, failures=1,
                                   unreachable=0)
            return stats

        whole = fill(TrafficStats(), range(8))
        evens = fill(TrafficStats(), range(0, 8, 2))
        odds = fill(TrafficStats(), range(1, 8, 2))
        merged = evens.merge(odds)
        assert merged.summary() == whole.summary()

    def test_duplicate_batch_rejected(self):
        stats = TrafficStats()
        stats.update_batch(0, np.asarray([1.0]), np.asarray([1]),
                           packets=1, delivered=1, failures=0, unreachable=0)
        with pytest.raises(ValueError, match="already folded"):
            stats.update_batch(0, np.asarray([1.0]), np.asarray([1]),
                               packets=1, delivered=1, failures=0,
                               unreachable=0)
        other = TrafficStats()
        other.update_batch(0, np.asarray([2.0]), np.asarray([2]),
                           packets=1, delivered=1, failures=0, unreachable=0)
        with pytest.raises(ValueError, match="overlapping"):
            stats.merge(other)

    def test_quantiles_stay_inside_the_observed_range(self):
        # a stretch-1 stream: the bucket midpoint 2**(0.5/128) lies above
        # every value, and the reported quantiles must not
        stats = TrafficStats()
        stats.update_batch(0, np.ones(64), np.ones(64, dtype=np.int64),
                           packets=64, delivered=64, failures=0,
                           unreachable=0)
        summary = stats.summary()
        for key in ("stretch_p50", "stretch_p95", "stretch_p99"):
            assert summary[key] == 1.0
        rng = np.random.default_rng(14)
        values = 1.0 + rng.exponential(scale=0.8, size=2000)
        stream = MetricStream("log")
        stream.update(0, values)
        out = stream.summary("x")
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            got = out[f"x_p{round(q * 100)}"]
            assert values.min() <= got <= values.max()
            assert got == pytest.approx(exact, rel=4 * LOG_QUANTILE_RTOL + 1e-3)

    def test_empty_stream_summary_is_defined(self):
        summary = TrafficStats().summary()
        assert summary["packets"] == 0
        assert np.isnan(summary["avg_stretch"])
        assert np.isnan(summary["stretch_p95"])


# --------------------------------------------------------------------------- #
# stretch certification (hypothesis): engines × schemes × families
# --------------------------------------------------------------------------- #
@st.composite
def certification_cases(draw):
    scheme = draw(st.sampled_from(sorted(SCHEME_BOUND_NAMES)))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    model = draw(st.sampled_from(TRAFFIC_MODEL_NAMES))
    return scheme, family, seed, model


SCHEME_BOUND_NAMES = tuple(STRETCH_BOUND)
assert set(SCHEME_BOUND_NAMES) == set(SCHEME_NAMES)


class TestStretchCertification:
    @SLOW
    @given(certification_cases())
    def test_streamed_stretch_within_advertised_bound(self, case):
        scheme_name, family, seed, model_name = case
        graph = FAMILIES[family](seed=seed % 97)
        fresh = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=seed % 13,
                              oracle=fresh)
        model = make_traffic_model(model_name, graph, seed=seed)
        # lockstep, single shard — scored against the fresh oracle
        single = run_traffic(scheme, model, packets=600, batch_size=256,
                             engine="lockstep", oracle=fresh)
        summary = single.summary()
        assert summary["delivered"] == 600
        assert summary["max_stretch"] <= STRETCH_BOUND[scheme_name]
        # sharded engine: identical official statistics, same bound
        sharded = run_traffic(scheme, model, packets=600, batch_size=256,
                              shards=3, processes=False, engine="lockstep",
                              oracle=fresh)
        assert sharded.summary() == single.summary()
        # fresh-oracle walk check: the exact reference recomputes every
        # walk cost hop by hop against the live graph; its per-packet
        # stretch must reduce to the streamed headline numbers
        exact = run_traffic_exact(scheme, model, packets=600, batch_size=256,
                                  engine="lockstep", oracle=fresh)
        assert float(exact["stretch"].max()) == summary["max_stretch"]
        assert float(exact["stretch"].max()) <= STRETCH_BOUND[scheme_name]
        assert bool(exact["found"].all())


# --------------------------------------------------------------------------- #
# determinism regression: shards × engines × processes
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def _scheme_and_model(self, scheme_name="cowen", seed=23):
        graph = random_geometric_graph(40, seed=802)
        oracle = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=7, oracle=oracle)
        model = make_traffic_model("zipf", graph, seed=seed)
        return scheme, model, oracle

    def test_same_seed_same_run(self):
        scheme, model, oracle = self._scheme_and_model()
        a = run_traffic(scheme, model, packets=3000, batch_size=512,
                        engine="lockstep", oracle=oracle)
        b = run_traffic(scheme, model, packets=3000, batch_size=512,
                        engine="lockstep", oracle=oracle)
        assert a.summary() == b.summary()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_official_stats_identical_across_shard_counts(self, shards):
        scheme, model, oracle = self._scheme_and_model()
        one = run_traffic(scheme, model, packets=3000, batch_size=512,
                          shards=1, engine="lockstep", oracle=oracle)
        many = run_traffic(scheme, model, packets=3000, batch_size=512,
                           shards=shards, processes=False, engine="lockstep",
                           oracle=oracle)
        assert one.summary() == many.summary()

    def test_engines_identical(self):
        scheme, model, oracle = self._scheme_and_model()
        scalar = run_traffic(scheme, model, packets=1500, batch_size=512,
                             engine="scalar", oracle=oracle)
        lockstep = run_traffic(scheme, model, packets=1500, batch_size=512,
                               engine="lockstep", oracle=oracle)
        assert scalar.summary() == lockstep.summary()

    def test_default_engine_is_lockstep(self):
        scheme, model, oracle = self._scheme_and_model()
        report = run_traffic(scheme, model, packets=800, batch_size=256,
                             oracle=oracle)
        assert report.engine == "lockstep"

    @pytest.mark.skipif(not processes_enabled(),
                        reason="fork-based worker processes unavailable")
    @pytest.mark.parametrize("shards", [2, 3])
    def test_forked_workers_match_inline_shards(self, shards):
        # shards=3 splits the 8 batches unevenly (3, 3, 2); forked, inline
        # and unsharded runs must still give one summary
        scheme, model, oracle = self._scheme_and_model()
        single = run_traffic(scheme, model, packets=4000, batch_size=512,
                             engine="lockstep", oracle=oracle)
        inline = run_traffic(scheme, model, packets=4000, batch_size=512,
                             shards=shards, processes=False, engine="lockstep",
                             oracle=oracle)
        forked = run_traffic(scheme, model, packets=4000, batch_size=512,
                             shards=shards, processes=True, engine="lockstep",
                             oracle=oracle)
        assert forked.processes
        assert forked.summary() == inline.summary() == single.summary()

    @pytest.mark.skipif(not processes_enabled(),
                        reason="fork-based worker processes unavailable")
    def test_forked_workers_report_agm_fallback_uses(self, small_geometric,
                                                     geometric_oracle):
        # the fallback counter grows inside the forked workers; the parent
        # must add their increments, not report zero
        uses = []
        for shards, processes in ((1, False), (2, True)):
            scheme = build_scheme("agm", small_geometric, k=3, seed=5,
                                  oracle=geometric_oracle,
                                  params=AGMParams.experiment(0.05))
            model = make_traffic_model("uniform", small_geometric, seed=1)
            run_traffic(scheme, model, packets=4000, shards=shards,
                        processes=processes, engine="lockstep",
                        oracle=geometric_oracle)
            uses.append(scheme.fallback_uses)
        assert uses[0] > 0
        assert uses[1] == uses[0]

    @pytest.mark.skipif(not processes_enabled(),
                        reason="fork-based worker processes unavailable")
    def test_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        # a worker killed by the kernel (OOM/segfault regime) never reports;
        # the parent must detect the dead process and raise, not block on
        # the result queue forever
        import os
        import signal

        import repro.traffic.engine as traffic_engine

        scheme, model, oracle = self._scheme_and_model()
        original = traffic_engine.stream_shard

        def sabotaged(scheme, model, packets, batch_size=512,
                      engine="lockstep", shard=0, shards=1, oracle=None):
            if shard == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(scheme, model, packets, batch_size=batch_size,
                            engine=engine, shard=shard, shards=shards,
                            oracle=oracle)

        monkeypatch.setattr(traffic_engine, "stream_shard", sabotaged)
        with pytest.raises(RuntimeError, match="exited without reporting"):
            run_traffic(scheme, model, packets=2000, batch_size=256,
                        shards=2, processes=True, engine="lockstep",
                        oracle=oracle)

    def test_batch_partition_arithmetic(self):
        assert num_batches(1000, 256) == 4
        assert [batch_size_of(b, 1000, 256) for b in range(4)] \
            == [256, 256, 256, 232]
        with pytest.raises(ValueError):
            num_batches(0, 256)


class TestThroughputModes:
    """The perf paths (fused kernels, forked shards, profiling, the hot-row
    cache) must never change an official statistic."""

    def _scheme_and_model(self, scheme_name="cowen", seed=23):
        graph = random_geometric_graph(40, seed=802)
        oracle = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=7, oracle=oracle)
        model = make_traffic_model("zipf", graph, seed=seed)
        return scheme, model, oracle

    def test_shards_engines_identical(self):
        """The acceptance grid: official streamed statistics bit-identical
        across shard counts × engines."""
        scheme, model, oracle = self._scheme_and_model()
        summaries = []
        for shards in (1, 2, 4):
            rep = run_traffic(scheme, model, packets=2000, batch_size=256,
                              shards=shards, processes=False,
                              engine="lockstep", oracle=oracle)
            summaries.append((f"shards={shards}", rep.summary()))
        scalar = run_traffic(scheme, model, packets=2000, batch_size=256,
                             engine="scalar", oracle=oracle)
        summaries.append(("scalar", scalar.summary()))
        baseline_label, baseline = summaries[0]
        for label, summary in summaries[1:]:
            assert summary == baseline, f"{label} != {baseline_label}"

    def test_profile_stages_cover_pipeline(self):
        scheme, model, oracle = self._scheme_and_model()
        rep = run_traffic(scheme, model, packets=2000, batch_size=256,
                          engine="lockstep", oracle=oracle, profile=True)
        assert rep.profile is not None
        assert set(rep.profile) >= {"plan", "step", "verify", "score",
                                    "reduce"}
        assert all(seconds >= 0 for seconds in rep.profile.values())
        plain = run_traffic(scheme, model, packets=2000, batch_size=256,
                            engine="lockstep", oracle=oracle)
        assert rep.summary() == plain.summary()
        assert plain.profile is None

    @pytest.mark.skipif(not processes_enabled(),
                        reason="fork-based worker processes unavailable")
    def test_forked_profile_matches_inline(self):
        scheme, model, oracle = self._scheme_and_model()
        inline = run_traffic(scheme, model, packets=3000, batch_size=256,
                             shards=2, processes=False, engine="lockstep",
                             oracle=oracle)
        forked = run_traffic(scheme, model, packets=3000, batch_size=256,
                             shards=2, processes=True, engine="lockstep",
                             oracle=oracle, profile=True)
        assert forked.processes
        assert forked.profile and forked.profile.get("step", 0) > 0
        assert forked.summary() == inline.summary()

    def test_exact_reference_unaffected_by_hot_cache(self):
        """run_traffic (hot-row cache active) and run_traffic_exact (no
        cache) certify identical per-packet quantities."""
        scheme, model, oracle = self._scheme_and_model()
        rep = run_traffic(scheme, model, packets=2000, batch_size=256,
                          engine="lockstep", oracle=oracle)
        exact = run_traffic_exact(scheme, model, packets=2000, batch_size=256,
                                  engine="lockstep", oracle=oracle)
        s = rep.summary()
        assert int(s["delivered"]) == int(exact["found"].sum())
        assert s["max_stretch"] == float(exact["stretch"].max())
        assert s["avg_stretch"] == pytest.approx(float(exact["stretch"].mean()),
                                                 rel=1e-12)

    def test_capped_hot_row_cache_pins_hottest_rows(self, monkeypatch):
        """Under its memory cap the cache keeps a prefix of the model's
        hottest-first hot array, not the lowest node ids."""
        import repro.traffic.engine as traffic_engine

        monkeypatch.setattr(traffic_engine, "HOT_ROW_CAP", 4)
        graph = random_geometric_graph(40, seed=802)
        oracle = DistanceOracle(graph)
        hot = ZipfTraffic(graph, seed=23, support=16).hot_destinations()
        cache = traffic_engine.hot_row_cache_for(oracle, hot, graph)
        assert set(np.flatnonzero(cache.rank >= 0).tolist()) \
            == set(hot[:4].tolist())
        np.testing.assert_array_equal(cache.rows[cache.rank[hot[:4]]],
                                      oracle.rows(hot[:4]))


# --------------------------------------------------------------------------- #
# harness integration
# --------------------------------------------------------------------------- #
class TestTrafficMatrix:
    def test_run_traffic_matrix_rows_mirror_run_matrix_fields(self):
        from repro.experiments.harness import run_traffic_matrix

        graph = random_geometric_graph(36, seed=811)
        result = run_traffic_matrix(
            "traffic-smoke", ["cowen", "shortest-path"],
            [("geo", graph)], ks=[2], model="hotspot", packets=2000,
            batch_size=512, seed=3)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["engine"] == "lockstep"
            assert row["packets"] == 2000
            assert row["delivered"] == 2000
            assert row["max_stretch"] <= STRETCH_BOUND[row["scheme"]]
            for field in ("avg_stretch", "median_stretch", "p95_stretch",
                          "failures", "pps", "avg_hops"):
                assert field in row

    def test_exact_traffic_row_schema(self):
        """The columns of an exact-scoring traffic row; a new or dropped
        column needs an edit here."""
        graph = random_geometric_graph(36, seed=811)
        oracle = DistanceOracle(graph)
        scheme = build_scheme("cowen", graph, k=2, seed=7, oracle=oracle)
        model = make_traffic_model("zipf", graph, seed=3)
        row = run_traffic(scheme, model, packets=600, batch_size=256,
                          oracle=oracle).as_row()
        assert set(row) == {
            "scheme", "model", "engine", "scoring", "packets", "shards",
            "processes", "seconds", "pps", "delivered", "failures",
            "unreachable", "avg_stretch", "max_stretch", "median_stretch",
            "p95_stretch", "p99_stretch", "avg_hops", "max_hops",
            "median_hops", "p95_hops",
        }
