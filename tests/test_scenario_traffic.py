"""Scenario x traffic composition: adversarial load under churn stays exact.

Satellite coverage for the experiment-matrix PR: churn scenarios that
compose a *non-uniform* traffic model (Zipf / hotspot / flash crowd) must
keep the live timeline's delivery and stale-window accounting exact even
when the churn detaches exactly the nodes the model ranked hot — and the
hot-row scoring cache pinned for those hot destinations must be rebuilt,
not reused, when the hot set migrates or the graph mutates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.scenario import (
    SCENARIO_NAMES,
    TrafficDirective,
    make_scenario,
)
from repro.factory import build_scheme
from repro.graphs.generators import make_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import LiveSimulator
from repro.traffic.engine import hot_row_cache_for
from repro.traffic.models import make_traffic_model


def _live(scheme_name, scenario, model, *, n=72, seed=6, epochs=3,
          model_kwargs=None, **kwargs):
    graph = make_graph("barabasi-albert", n=n, seed=seed)
    oracle = DistanceOracle(graph)
    scheme = build_scheme(scheme_name, graph, k=2, seed=1, oracle=oracle)
    simulator = LiveSimulator(
        scheme, scenario, oracle=oracle, model=model,
        model_kwargs=model_kwargs, epochs=epochs, epoch_packets=512,
        stale_packets=256, seed=seed, **kwargs)
    return simulator.run()


class TestAdversarialScenarioAccounting:
    """Delivery/stale counters stay exact under churn x non-uniform load."""

    @pytest.mark.parametrize("scenario,model", [
        ("partition-and-heal", "zipf"),
        ("partition-and-heal", "hotspot"),
        ("flap-heavy", "hotspot"),
    ])
    def test_per_epoch_counters_are_exact(self, scenario, model):
        timeline = _live("thorup-zwick", scenario, model)
        rows = timeline.rows()
        assert rows, "timeline produced no epochs"
        for row in rows:
            # every routed packet is accounted for, none double-counted —
            # including epochs where the partition detached hot targets
            assert row["delivered"] + row["unreachable"] == row["packets"]
            assert row["failures"] == 0  # unreachable is not a failure
            assert 0.0 <= row["delivery_rate"] <= 1.0
            assert row["stale_delivered"] <= row["stale_packets"]
            if row["stale_packets"]:
                expected_loss = 1.0 - row["stale_delivered"] / row["stale_packets"]
                assert row["stale_loss"] == pytest.approx(expected_loss, abs=1e-9)

    def test_partition_detaching_hot_nodes_shows_in_stale_window(self):
        """partition-under-load aims the hotspot model at the region it then
        detaches: the stale window (old tables, new graph) must lose packets
        while the fresh per-epoch model (which only samples connected pairs)
        still accounts exactly."""
        timeline = _live("thorup-zwick", "partition-under-load", "zipf",
                         n=96, epochs=4)
        rows = timeline.rows()
        for row in rows:
            assert row["delivered"] + row["unreachable"] == row["packets"]
        # at least one partition epoch must actually hurt the stale window
        assert max(row["stale_loss"] for row in rows) > 0.0

    @pytest.mark.parametrize("scenario", ["flash-crowd", "hotspot-storm"])
    def test_adversarial_scenarios_deterministic(self, scenario):
        """verify_determinism re-runs every epoch resharded and through the
        scalar reference engine; any drift in the scenario->directive->
        model->cache chain would trip it."""
        timeline = _live("cowen", scenario, "zipf", n=60, epochs=2,
                         model_kwargs={"support": 8},
                         verify_determinism=True)
        assert all(row["determinism_checked"] for row in timeline.rows())

    def test_identical_seeds_identical_timelines(self):
        a = _live("cowen", "partition-and-heal", "hotspot", seed=11)
        b = _live("cowen", "partition-and-heal", "hotspot", seed=11)
        drop = ("total_repair_seconds", "total_recompile_seconds")
        strip = lambda s: {k: v for k, v in s.items() if k not in drop}
        assert strip(a.summary()) == strip(b.summary())


class TestTrafficDirectives:
    def test_new_scenarios_registered(self):
        for name in ("flash-crowd", "hotspot-storm", "partition-under-load"):
            assert name in SCENARIO_NAMES
            assert make_scenario(name).name == name

    def test_flash_crowd_migrates_structure_key(self):
        graph = make_graph("barabasi-albert", n=48, seed=3)
        scenario = make_scenario("flash-crowd", migrate_every=2)
        keys = []
        for epoch in range(4):
            directive = scenario.traffic_for_epoch(graph, epoch, 4)
            assert isinstance(directive, TrafficDirective)
            keys.append(directive.structure_key)
        assert keys[0] == keys[1] and keys[2] == keys[3]  # pinned within phase
        assert keys[0] != keys[2]  # migrated across phases

    def test_partition_under_load_targets_planned_region(self):
        graph = make_graph("barabasi-albert", n=64, seed=5)
        scenario = make_scenario("partition-under-load")
        from repro.utils.rng import derive_rng

        # before any events are planned there is no region to aim at
        assert scenario.traffic_for_epoch(graph, 0, 4) is None
        scenario.events_for_epoch(graph, 0, 4, derive_rng(0, 1))
        directive = scenario.traffic_for_epoch(graph, 1, 4)
        assert directive is not None and directive.model == "hotspot"
        nodes = directive.model_kwargs["nodes"]
        assert nodes and all(0 <= v < graph.n for v in nodes)


class TestHotRowCacheInvalidation:
    def _oracle_and_hot(self, seed=2):
        graph = make_graph("barabasi-albert", n=56, seed=seed)
        oracle = DistanceOracle(graph)
        model = make_traffic_model("zipf", graph, seed=4, support=8)
        return graph, oracle, np.asarray(model.hot_destinations())

    def test_cache_reused_for_same_hot_set(self):
        graph, oracle, hot = self._oracle_and_hot()
        a = hot_row_cache_for(oracle, hot, graph)
        b = hot_row_cache_for(oracle, hot, graph)
        assert a is b

    def test_migrated_hot_set_rebuilds_cache(self):
        """The flash-crowd seam: when the directive re-keys the structure
        seed the hot set moves, and reusing the old pinned rows would score
        stretch against the wrong destinations."""
        graph, oracle, hot = self._oracle_and_hot()
        a = hot_row_cache_for(oracle, hot, graph)
        migrated = np.asarray(sorted(set(range(8)) - set(hot.tolist()))[:4])
        b = hot_row_cache_for(oracle, migrated, graph)
        assert a is not b
        c = hot_row_cache_for(oracle, hot, graph)
        assert c is not None  # and is a fresh build for the original set again

    def test_reordered_hot_set_reuses_cache(self):
        """A re-seeded epoch whose hot set is the same nodes in another
        order pins the same rows, so the cache is not rebuilt."""
        graph, oracle, hot = self._oracle_and_hot()
        a = hot_row_cache_for(oracle, hot, graph)
        b = hot_row_cache_for(oracle, hot[::-1].copy(), graph)
        assert a is b

    def test_capped_prefix_change_rebuilds_cache(self, monkeypatch):
        """Under the row cap the memo follows the pinned hottest prefix:
        reordering inside the prefix reuses the cache, a new node entering
        it rebuilds the cache with that node's row."""
        import repro.traffic.engine as traffic_engine

        monkeypatch.setattr(traffic_engine, "HOT_ROW_CAP", 4)
        graph, oracle, hot = self._oracle_and_hot()
        a = hot_row_cache_for(oracle, hot, graph)
        shuffled = np.concatenate((hot[:4][::-1], hot[4:][::-1]))
        assert hot_row_cache_for(oracle, shuffled, graph) is a
        rolled = np.roll(hot, 1)
        b = hot_row_cache_for(oracle, rolled, graph)
        assert b is not a
        assert b.rank[rolled[0]] >= 0 and b.rank[hot[3]] == -1

    def test_graph_mutation_rebuilds_cache(self):
        graph, oracle, hot = self._oracle_and_hot()
        a = hot_row_cache_for(oracle, hot, graph)
        (u, v, w) = next(iter(graph.edges()))
        graph.set_edge_weight(u, v, w * 2.0)  # bumps graph.version
        b = hot_row_cache_for(oracle, hot, graph)
        assert a is not b
