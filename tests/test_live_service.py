"""Live-network service tests: stale-state seams, repair invalidation, shm.

Covers the seams a live timeline exposes and PR 8 fixed:

* churn -> ``maintain()`` -> route parity: lockstep walks must match the
  scalar ``route()`` reference *across a repair boundary* (a stale
  per-destination column cache or ``TreeBank`` slot matrix surviving an
  in-place patch would silently diverge here);
* the cache-invalidation API itself (``invalidate_columns`` /
  ``invalidate_caches``);
* :func:`repro.live.stale_window_outcome` — delivery accounting for
  packets routed on stale tables over a mutated graph;
* :class:`repro.live.LiveSimulator` end to end, including its
  determinism cross-checks;
* :class:`repro.traffic.shm.SharedArena` teardown when a forked worker
  dies mid-epoch: adopted attributes restored, every block unlinked.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
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
from repro.traffic.shm import SharedArena
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
    """Lockstep walks match scalar ``route()`` after an in-place repair."""
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
    """An in-place patch must clear the program's derived caches."""
    graph, _, scheme = _build("shortest-path")
    program = scheme.compiled_forwarding()
    # the dense table's ravel views stay coherent by construction; the
    # observable derived cache on this program is the bank's slot matrix
    program.bank._slot_matrix = np.zeros((3, 3), dtype=np.int64)
    # perturb one edge: small dirty set keeps the incremental path
    u, v, w = next(graph.edges())
    delta = apply_events(graph, [ChurnEvent("perturb", u, v, weight=2 * w)])
    report = scheme.maintain(delta)
    if report.strategy == "incremental":
        assert scheme.compiled_forwarding() is program
        assert program.bank._slot_matrix is None
    else:  # bailed to scratch: the old program must have been dropped
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


# -- SharedArena teardown under worker death -------------------------------- #

def _hang_after_read(keys, queue):  # pragma: no cover - runs in child
    queue.put(int(keys[0]))
    while True:
        time.sleep(1)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a POSIX shared-memory filesystem")
def test_shared_arena_close_survives_worker_sigkill():
    """Adopted attrs restored + every block unlinked even if a worker dies."""
    arena = SharedArena()
    holder = SimpleNamespace(_keys=np.arange(64, dtype=np.int64))
    original = holder._keys
    assert arena.adopt(holder, "_keys")
    assert holder._keys is not original
    block_names = list(arena.manifest)
    assert block_names
    for name in block_names:
        assert os.path.exists(f"/dev/shm/{name}")

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    worker = ctx.Process(target=_hang_after_read,
                         args=(holder._keys, queue), daemon=True)
    worker.start()
    try:
        # the worker is alive and holding the shared mapping mid-"epoch"
        assert queue.get(timeout=30) == 0
        os.kill(worker.pid, signal.SIGKILL)
    finally:
        worker.join(timeout=30)
    assert not worker.is_alive()

    arena.close()
    assert holder._keys is original
    assert arena.num_blocks == 0
    for name in block_names:
        assert not os.path.exists(f"/dev/shm/{name}")
    arena.close()  # idempotent
