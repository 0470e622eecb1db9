"""Live-network service tests: stale-state seams and repair invalidation.

Covers the seams a live timeline exposes and PR 8 fixed:

* churn -> ``maintain()`` -> route parity: lockstep walks must match the
  scalar ``route()`` reference *across a repair boundary* (a stale
  per-destination column cache or ``TreeBank`` slot matrix surviving a
  repair would silently diverge here);
* the cache-invalidation API itself (``invalidate_columns`` /
  ``invalidate_caches``);
* :func:`repro.live.stale_window_outcome` — delivery accounting for
  packets routed on stale tables over a mutated graph;
* :class:`repro.live.LiveSimulator` end to end, including its
  determinism cross-checks.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.dynamics.events import ChurnEvent, apply_events
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import make_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import LiveSimulator, stale_window_outcome
from repro.routing.forwarding import run_lockstep
from repro.routing.messages import RouteResult
from repro.traffic.models import make_traffic_model
from repro.utils.validation import ValidationError


def _build(scheme_name: str, n: int = 200, seed: int = 4):
    graph = make_graph("barabasi-albert", n=n, seed=seed)
    oracle = DistanceOracle(graph)
    scheme = build_scheme(scheme_name, graph, k=2, seed=1, oracle=oracle)
    return graph, oracle, scheme


def _flap_events(graph, count: int = 4):
    """Fail a handful of real edges (deterministic pick)."""
    picked = []
    for u, v, _ in graph.edges():
        picked.append(ChurnEvent("fail", u, v))
        if len(picked) == count:
            break
    return picked


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_repair_route_parity_with_scalar(scheme_name):
    """Lockstep walks match scalar ``route()`` after a repair."""
    graph, oracle, scheme = _build(scheme_name)
    # warm the live program (and any lazy caches) with a pre-churn batch
    program = scheme.compiled_forwarding()
    model = make_traffic_model("uniform", graph, seed=9)
    src, dst = model.batch(0, 512)
    run_lockstep(program, src, dst)

    delta = apply_events(graph, _flap_events(graph))
    scheme.maintain(delta)
    program = scheme.compiled_forwarding()

    model = make_traffic_model("uniform", graph, seed=10)
    src, dst = model.batch(0, 512)
    outcome = run_lockstep(program, src, dst)
    for u, v, walked in zip(src.tolist(), dst.tolist(), outcome.results):
        expected = scheme.route(u, graph.name_of(v))
        assert walked.path == expected.path
        assert walked.found == expected.found
    # the post-repair model only samples connected pairs: all delivered
    assert bool(outcome.found.all())
    np.testing.assert_array_equal(outcome.final_nodes, dst)


def test_invalidate_columns_drops_column_cache():
    # cowen compiles to a sorted NextHopTable — the variant that carries
    # the lazily-warmed per-destination column cache
    _, _, scheme = _build("cowen")
    program = scheme.compiled_forwarding()
    table = program.tables[0]
    table._cols = np.zeros((2, 3), dtype=np.int64)
    table._col_rank = np.zeros(4, dtype=np.int64)
    table.invalidate_columns()
    assert table._cols is None
    assert table._col_rank is None


def test_tree_bank_invalidate_caches():
    _, _, scheme = _build("thorup-zwick")
    bank = scheme.compiled_forwarding().bank
    bank._slot_matrix = np.zeros((2, 2), dtype=np.int64)
    bank._path_cache = {(0, 1): np.arange(3)}
    bank.invalidate_caches()
    assert bank._slot_matrix is None
    assert bank._path_cache == {}


def test_program_invalidation_cascades():
    _, _, scheme = _build("cowen")
    program = scheme.compiled_forwarding()
    program.bank._slot_matrix = np.zeros((1, 1), dtype=np.int64)
    for table in program.tables:
        table._cols = np.zeros((1, 1), dtype=np.int64)
    program.invalidate_caches()
    assert program.bank._slot_matrix is None
    assert all(table._cols is None for table in program.tables)


def test_incremental_maintain_invalidates_live_program():
    """An incremental repair must clear the replaced program's caches."""
    graph, _, scheme = _build("thorup-zwick")
    program = scheme.compiled_forwarding()
    program.bank._slot_matrix = np.zeros((3, 3), dtype=np.int64)
    u, v, w = next(graph.edges())
    delta = apply_events(graph, [ChurnEvent("perturb", u, v, weight=2 * w)])
    report = scheme.maintain(delta)
    assert report.strategy == "incremental"
    assert program.bank._slot_matrix is None
    assert scheme.compiled_forwarding() is not program


def test_stale_window_outcome_accounting():
    """Dead-link hops, wrong endpoints and not-found all count as loss."""
    graph = make_graph("barabasi-albert", n=30, seed=2)
    u, v, _ = next(graph.edges())
    apply_events(graph, [ChurnEvent("fail", u, v)])
    a, b, _ = next(graph.edges())  # still alive
    outcome = SimpleNamespace(
        found=np.array([True, True, True, False]),
        final_nodes=np.array([v, b, b, b], dtype=np.int64),
        # packet 0 crosses the failed link; packet 1 a live link; packet 2
        # only self-hops; packet 3 was never found
        hop_index=np.array([0, 1, 2], dtype=np.int64),
        hop_heads=np.array([u, a, b], dtype=np.int64),
        hop_tails=np.array([v, b, b], dtype=np.int64),
    )
    delivered = stale_window_outcome(
        graph, outcome, 4, np.array([v, b, b, b], dtype=np.int64))
    np.testing.assert_array_equal(delivered,
                                  np.array([False, True, True, False]))


def test_stale_window_outcome_wrong_destination():
    graph = make_graph("barabasi-albert", n=20, seed=3)
    outcome = SimpleNamespace(
        found=np.array([True]),
        final_nodes=np.array([5], dtype=np.int64),
        hop_index=np.zeros(0, dtype=np.int64),
        hop_heads=np.zeros(0, dtype=np.int64),
        hop_tails=np.zeros(0, dtype=np.int64),
    )
    delivered = stale_window_outcome(graph, outcome, 1,
                                     np.array([7], dtype=np.int64))
    assert not delivered[0]


@pytest.mark.parametrize("scheme_name", ["shortest-path", "thorup-zwick"])
def test_live_simulator_timeline(scheme_name):
    """Full timeline: window loss bounded, SLA restored, stats deterministic."""
    graph, oracle, scheme = _build(scheme_name, n=200, seed=6)
    simulator = LiveSimulator(scheme, "flap-heavy", oracle=oracle,
                              epochs=2, epoch_packets=1200, batch_size=256,
                              stale_packets=200, seed=13,
                              verify_determinism=True)
    timeline = simulator.run()
    assert len(timeline.epochs) == 3
    assert timeline.epochs[0].repair_strategy == "baseline"
    for record in timeline.epochs:
        # determinism cross-checks ran (shard split + scalar engine)
        assert record.determinism_checked
        # SLA: reachable traffic fully delivered within the repair epoch
        assert record.delivery_rate == 1.0
        assert 0.0 <= record.stale_delivery_rate <= 1.0
    for record in timeline.epochs[1:]:
        assert record.events > 0
        assert record.repair_strategy in ("incremental", "full-rebuild")
    merged = timeline.merged_stats()
    assert merged.packets == 3 * 1200
    assert merged.delivered == sum(r.report.stats.delivered
                                   for r in timeline.epochs)
    summary = timeline.summary()
    assert summary["min_delivery_rate"] == 1.0
    assert summary["epochs"] == 3


def test_cross_check_catches_scalar_reference_disagreement(monkeypatch):
    """The determinism cross-check re-runs each epoch through scalar
    ``route()``; a route that disagrees with the compiled program fails it."""
    graph, oracle, scheme = _build("shortest-path", n=120, seed=6)
    simulator = LiveSimulator(scheme, "flap-heavy", oracle=oracle,
                              epochs=1, epoch_packets=600, batch_size=256,
                              stale_packets=0, seed=13,
                              verify_determinism=True)
    honest = scheme.route

    def dropping_route(source, destination_name):
        result = honest(source, destination_name)
        if source % 2 or len(result.path) < 2:
            return result
        return RouteResult(found=False, path=[source], cost=0.0,
                           strategy=result.strategy,
                           max_header_bits=result.max_header_bits)

    monkeypatch.setattr(scheme, "route", dropping_route)
    with pytest.raises(ValidationError, match="scalar reference engine"):
        simulator.run()


def test_live_matrix_aligns_events_across_schemes():
    from repro.experiments.harness import run_live_matrix

    result = run_live_matrix(
        "live-test", ["shortest-path", "cowen"],
        lambda: make_graph("barabasi-albert", n=150, seed=5),
        scenario="flap-heavy", epochs=2, epoch_packets=600,
        batch_size=256, stale_packets=100, seed=21)
    per_epoch = {}
    for row in result.rows:
        per_epoch.setdefault(row["epoch"], set()).add(row["events"])
    # same seed => identical event sequence for every scheme
    assert all(len(counts) == 1 for counts in per_epoch.values())
    assert set(result.metadata["timelines"]) == {"shortest-path", "cowen"}


def test_live_matrix_builds_a_fresh_scenario_per_scheme():
    """Scenarios are stateful: one object shared across the schemes' timelines
    would leak the first scheme's plan into the next (cowen replaying
    shortest-path's pending flap recoveries, or finding the partition
    schedule already healed), so only a scenario name is accepted."""
    from repro.dynamics.scenario import make_scenario
    from repro.experiments.harness import run_live_matrix

    def run(scenario, **kwargs):
        return run_live_matrix(
            "live-test", ["shortest-path", "cowen"],
            lambda: make_graph("barabasi-albert", n=150, seed=5),
            scenario=scenario, epochs=2, epoch_packets=600, batch_size=256,
            stale_packets=100, seed=21, **kwargs)

    with pytest.raises(ValidationError, match="scenario name"):
        run(make_scenario("partition-and-heal"))
    result = run("partition-and-heal",
                 scenario_kwargs={"region_fraction": 0.25})
    events = {scheme: [r["events"] for r in result.rows
                       if r["scheme"] == scheme]
              for scheme in ("shortest-path", "cowen")}
    assert events["shortest-path"] == events["cowen"]
    assert sum(events["cowen"]) > 0
