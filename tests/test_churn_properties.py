"""Churn property suite: every scheme survives failure/repair cycles.

Seeded randomized properties across graph families × seeds × schemes: after
an event batch is applied and ``maintain()`` runs, every scheme's routes must
be valid walks on the mutated graph (checked against a *freshly built*
oracle and simulator, not the repaired scheme's own state) with stretch
within the scheme's advertised bound, and the scalar and lockstep engines
must stay observationally identical.  Also covers the repair plumbing itself
(every scheme's repair equals a fresh build, an empty batch keeps the scheme
as it is) and the pair-sampler edge cases churn creates (disconnected
components, shortfalls, self-pairs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.events import (
    ChurnEvent,
    apply_events,
    edge_failures,
    edge_recoveries,
    node_detachments,
    random_event_batch,
    weight_perturbations,
)
from repro.dynamics.scenario import SCENARIO_NAMES, make_scenario
from repro.experiments.harness import run_live_matrix
from repro.experiments.workloads import workload_factory
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_of_cliques,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import stale_window_outcome
from repro.routing.forwarding import run_lockstep
from repro.routing.simulator import PairSamplingError, RoutingSimulator

#: advertised stretch bound per scheme at k=2 (mirrors the static suites)
STRETCH_BOUND = {
    "shortest-path": 1.0 + 1e-9,
    "cowen": 3.0 + 1e-6,
    "thorup-zwick": 3.0 + 1e-6,          # 4k - 5 at k = 2
    "agm": 16 * 2 + 8,                   # experiment-constant AGM bound
    "awerbuch-peleg": 16 * 2 + 8,
    "exponential": 16 * 2 ** 2 + 8,      # the O(2^k) family
}

FAMILIES = {
    "geometric": lambda seed: random_geometric_graph(40, seed=seed),
    "erdos-renyi": lambda seed: erdos_renyi_graph(36, seed=seed),
    "grid": lambda seed: grid_graph(6, 6, seed=seed),
    "ring-of-cliques": lambda seed: ring_of_cliques(5, 6, seed=seed),
}


def fresh_simulator(graph: WeightedGraph) -> RoutingSimulator:
    """A simulator over a *freshly built* oracle — the churn-agnostic referee."""
    return RoutingSimulator(graph, oracle=DistanceOracle(graph))


def churn_rounds(graph, scheme, seed, rounds=2, batch=5,
                 kinds=("fail", "perturb", "detach")):
    """Apply ``rounds`` random event batches, repairing after each."""
    for round_index in range(rounds):
        events = random_event_batch(graph, batch, seed=seed + round_index,
                                    kinds=kinds)
        delta = apply_events(graph, events)
        report = scheme.maintain(delta)
        assert report.seconds >= 0.0
        assert report.strategy in ("full-rebuild", "unchanged")
    return scheme


class TestPostRepairInvariants:
    """Walks valid against a fresh oracle; stretch within the advertised bound."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_valid_walks_and_stretch_bound_after_churn(self, family, scheme_name):
        for seed in (1, 2):
            graph = FAMILIES[family](600 + seed)
            scheme = build_scheme(scheme_name, graph, k=2, seed=seed,
                                  oracle=DistanceOracle(graph))
            churn_rounds(graph, scheme, seed=40 + seed)
            sim = fresh_simulator(graph)
            pairs = sim.sample_pairs(60, seed=seed, on_shortfall="warn")
            if not pairs:
                continue
            # evaluate_batch verifies every hop of every walk via the fresh
            # CSR gather; an invalid post-repair walk raises InvalidRouteError
            report = sim.evaluate_batch(scheme, pairs)
            assert report.failures == 0
            assert report.max_stretch <= STRETCH_BOUND[scheme_name]

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_failure_then_recovery_restores_baseline_stretch(self, scheme_name):
        graph = random_geometric_graph(40, seed=77)
        oracle = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=3, oracle=oracle)
        sim = RoutingSimulator(graph, oracle=oracle)
        pairs = sim.sample_pairs(50, seed=5)
        before = sim.evaluate_batch(scheme, pairs)

        failures = edge_failures(graph, 5, seed=11)
        delta = apply_events(graph, failures)
        scheme.maintain(delta)
        mid = sim.evaluate_batch(scheme, pairs)
        assert mid.failures == 0  # still delivers inside surviving components

        recoveries = edge_recoveries([c for rec in delta.applied
                                      for c in rec.changes])
        scheme.maintain(apply_events(graph, recoveries))
        after = sim.evaluate_batch(scheme, pairs)
        assert after.failures == 0
        assert after.max_stretch <= STRETCH_BOUND[scheme_name]
        # the healed topology is the original one: stretch is back in band
        assert after.avg_stretch <= max(before.avg_stretch,
                                        STRETCH_BOUND[scheme_name])


class TestRepairMatchesFreshBuild:
    """Every scheme's repair must equal a fresh build on the mutated graph."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_same_reports_as_scratch_instance(self, scheme_name):
        graph = random_geometric_graph(42, seed=88)
        oracle = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=9, oracle=oracle)
        events = (edge_failures(graph, 4, seed=21)
                  + weight_perturbations(graph, 4, seed=22)
                  + node_detachments(graph, 1, seed=23))
        delta = apply_events(graph, events)
        report = scheme.maintain(delta)
        assert report.strategy == "full-rebuild"

        scratch = build_scheme(scheme_name, graph, k=2, seed=9,
                               oracle=DistanceOracle(graph))
        # rebuild_spec() recovered every constructor parameter and the seed
        assert ([scheme.table_bits(u) for u in range(graph.n)]
                == [scratch.table_bits(u) for u in range(graph.n)])
        sim = fresh_simulator(graph)
        pairs = sim.sample_pairs(80, seed=13, on_shortfall="warn")
        repaired = sim.evaluate_batch(scheme, pairs).as_dict()
        rebuilt = sim.evaluate_batch(scratch, pairs).as_dict()
        # identical stretch distribution and space accounting — paths may
        # differ only between equal-cost shortest paths
        for key in ("max_stretch", "avg_stretch", "median_stretch",
                    "p95_stretch", "failures", "max_label_bits"):
            assert repaired[key] == pytest.approx(rebuilt[key], rel=1e-9), key

    def test_shortest_path_repairs_by_full_rebuild(self):
        graph = random_geometric_graph(36, seed=91)
        scheme = build_scheme("shortest-path", graph, k=2, seed=1,
                              oracle=DistanceOracle(graph))
        program = scheme.compiled_forwarding()
        events = (edge_failures(graph, 3, seed=2)
                  + weight_perturbations(graph, 3, seed=3))
        report = scheme.maintain(apply_events(graph, events))
        assert report.strategy == "full-rebuild"
        assert scheme.compiled_forwarding() is not program
        fresh = build_scheme("shortest-path", graph, k=2, seed=1,
                             oracle=DistanceOracle(graph))
        np.testing.assert_array_equal(scheme._next_hop, fresh._next_hop)

    def test_shortest_path_rebuild_recharges_tables(self):
        # a detached node leaves every other node one destination short:
        # the repaired tables must charge the fresh build's entries, not
        # the pre-churn ones
        graph = random_geometric_graph(36, seed=94)
        scheme = build_scheme("shortest-path", graph, k=2, seed=1,
                              oracle=DistanceOracle(graph))
        before = [scheme.tables.table_bits(u) for u in range(graph.n)]
        scheme.maintain(apply_events(graph, node_detachments(graph, 1, seed=6)))
        fresh = build_scheme("shortest-path", graph, k=2, seed=1,
                             oracle=DistanceOracle(graph))
        after = [scheme.tables.table_bits(u) for u in range(graph.n)]
        assert after == [fresh.tables.table_bits(u) for u in range(graph.n)]
        assert sum(after) < sum(before)
        for u in range(graph.n):
            assert scheme.tables[u].breakdown() == fresh.tables[u].breakdown()

    def test_shortest_path_empty_batch_keeps_tables(self):
        graph = random_geometric_graph(36, seed=95)
        scheme = build_scheme("shortest-path", graph, k=2, seed=1,
                              oracle=DistanceOracle(graph))
        next_hop = scheme._next_hop.copy()
        bits = [scheme.tables.table_bits(u) for u in range(graph.n)]
        keys, hops = scheme.compiled_forwarding().tables[0].entries()
        keys, hops = keys.copy(), hops.copy()
        report = scheme.maintain(apply_events(graph, []))
        assert report.scheme == "shortest-path"
        np.testing.assert_array_equal(scheme._next_hop, next_hop)
        assert [scheme.tables.table_bits(u) for u in range(graph.n)] == bits
        new_keys, new_hops = scheme.compiled_forwarding().tables[0].entries()
        np.testing.assert_array_equal(new_keys, keys)
        np.testing.assert_array_equal(new_hops, hops)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_empty_batch_keeps_scheme_and_program(self, scheme_name):
        graph = random_geometric_graph(36, seed=96)
        scheme = build_scheme(scheme_name, graph, k=2, seed=1,
                              oracle=DistanceOracle(graph))
        program = scheme.compiled_forwarding()
        report = scheme.maintain(apply_events(graph, []))
        assert report.strategy == "unchanged"
        assert report.seconds == 0.0
        assert scheme.compiled_forwarding() is program
        # without a delta there is nothing to compare against: rebuild
        assert scheme.maintain().strategy == "full-rebuild"
        assert scheme.compiled_forwarding() is not program


class TestScenarioMatrix:
    def test_all_named_scenarios_run_with_parity(self):
        rows = []
        for scenario in SCENARIO_NAMES:
            # verify_determinism re-routes every epoch through the scalar
            # reference engine and raises on any mismatch
            rows += run_live_matrix(
                "scenarios", ["shortest-path", "cowen"],
                workload_factory("erdos-renyi", 48, 5), scenario=scenario,
                epochs=3, epoch_packets=40, stale_packets=40, model="uniform",
                seed=2, verify_determinism=True).rows
        assert len(rows) == len(SCENARIO_NAMES) * 4 * 2
        for row in rows:
            assert row["determinism_checked"]
            assert row["delivery_rate"] == pytest.approx(1.0)
            assert 0.0 <= row["stale_delivery"] <= 1.0
            assert row["repair_seconds"] >= 0.0
        # the flap scenario must actually drop deliveries while stale
        flap = [r for r in rows
                if r["scenario"] == "flap-heavy" and r["epoch"] > 0]
        assert any(r["stale_delivery"] < 1.0 for r in flap)

    def test_partition_and_heal_round_trips_the_topology(self):
        graph = ring_of_cliques(5, 6, seed=31)
        edges_before = sorted(graph.edges())
        scenario = make_scenario("partition-and-heal")
        rng = np.random.default_rng(7)
        for epoch in range(1, 5):
            apply_events(graph,
                         scenario.events_for_epoch(graph, epoch, 4, rng))
        assert sorted(graph.edges()) == edges_before

    def test_stale_window_counts_broken_walks(self):
        graph = grid_graph(4, 4, seed=41)
        scheme = build_scheme("shortest-path", graph, k=2, seed=1,
                              oracle=DistanceOracle(graph))
        stale_program = scheme.compiled_forwarding()
        pairs = fresh_simulator(graph).sample_pairs(40, seed=2)
        src, dst = (np.asarray(side, dtype=np.int64) for side in zip(*pairs))

        def delivered():
            outcome = run_lockstep(stale_program, src, dst, materialize=False)
            return stale_window_outcome(graph, outcome, src.size, dst)

        assert delivered().all()
        apply_events(graph, edge_failures(graph, 6, seed=3))
        assert not delivered().all()


class TestSamplePairsUnderChurn:
    """Pair-sampler edge cases created by failures and partitions."""

    def test_shortfall_raise_and_warn_after_total_failure(self):
        graph = erdos_renyi_graph(16, seed=51)
        failures = [ChurnEvent("fail", u, v) for u, v, _ in graph.edges()]
        apply_events(graph, failures)
        assert graph.num_edges == 0
        sim = fresh_simulator(graph)
        with pytest.raises(PairSamplingError):
            sim.sample_pairs(5, seed=0)
        with pytest.warns(UserWarning, match="no connected pair"):
            assert sim.sample_pairs(5, seed=0, on_shortfall="warn") == []

    def test_distinct_false_still_samples_self_pairs_on_isolated_nodes(self):
        graph = erdos_renyi_graph(12, seed=52)
        apply_events(graph, [ChurnEvent("fail", u, v)
                             for u, v, _ in graph.edges()])
        sim = fresh_simulator(graph)
        pairs = sim.sample_pairs(30, seed=1, distinct=False)
        assert len(pairs) == 30
        assert all(u == v for u, v in pairs)

    def test_sampling_respects_surviving_components(self):
        graph = ring_of_cliques(4, 5, seed=53)
        scenario = make_scenario("partition-and-heal", region_fraction=0.3)
        rng = np.random.default_rng(3)
        apply_events(graph, scenario.events_for_epoch(graph, 1, 2, rng))
        sim = fresh_simulator(graph)
        comp = graph.component_ids()
        pairs = sim.sample_pairs(100, seed=4, on_shortfall="warn")
        assert pairs
        for u, v in pairs:
            assert u != v and comp[u] == comp[v]

    def test_single_component_fallback_after_detachments(self):
        # detach everything except one clique: sampling must fall back to the
        # single surviving multi-node component and still fill the request
        graph = ring_of_cliques(3, 4, seed=54)
        victims = [v for v in range(4, graph.n)]
        apply_events(graph, [ChurnEvent("detach", v) for v in victims])
        sim = fresh_simulator(graph)
        comp = graph.component_ids()
        pairs = sim.sample_pairs(50, seed=5)
        assert len(pairs) == 50
        survivors = {u for pair in pairs for u in pair}
        assert survivors <= set(range(4))
        assert all(comp[u] == comp[v] for u, v in pairs)
