"""Live-network service demo: traffic and churn on one clock.

Walks the live timeline on a small scale-free network:

1. drive one scheme through a flap-heavy timeline with
   ``LiveSimulator`` and print the per-epoch SLA ledger — staleness-window
   loss while routers hold stale tables, repair price, and delivery/stretch
   once the epoch's traffic runs on the repaired tables;
2. run ``run_live_matrix`` over several schemes on the *same* seeded event
   sequence and compare their timelines side by side.

Run with::

    PYTHONPATH=src python examples/live_demo.py
"""

from __future__ import annotations

from repro.experiments.harness import run_live_matrix
from repro.factory import build_scheme
from repro.graphs.generators import make_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import LiveSimulator


def single_timeline() -> None:
    print("=== one scheme, one timeline ===")
    graph = make_graph("barabasi-albert", n=400, seed=7)
    oracle = DistanceOracle(graph)
    scheme = build_scheme("thorup-zwick", graph, k=2, seed=1, oracle=oracle)
    simulator = LiveSimulator(scheme, "flap-heavy", oracle=oracle,
                              epochs=4, epoch_packets=20_000,
                              stale_packets=2048, seed=3,
                              verify_determinism=True)
    timeline = simulator.run()
    header = (f"{'ep':>3} {'events':>6} {'stale':>6} {'sla':>7} "
              f"{'repair':>12} {'ms':>8} {'avg stretch':>11}")
    print(header)
    print("-" * len(header))
    for rec in timeline.epochs:
        summary = rec.report.summary()
        prefix = rec.report.stats.stretch_prefix
        print(f"{rec.epoch:>3} {rec.events:>6} "
              f"{rec.stale_delivery_rate:>6.3f} {rec.delivery_rate:>7.4f} "
              f"{rec.repair_strategy:>12} {rec.repair_seconds * 1000:>8.1f} "
              f"{summary[f'avg_{prefix}']:>11.4f}")
    merged = timeline.summary()
    print(f"timeline: {merged['packets']} packets, "
          f"min SLA delivery {merged['min_delivery_rate']:.4f}, "
          f"worst window loss {merged['max_stale_loss']:.3f}, "
          f"total repair {merged['total_repair_seconds'] * 1000:.1f} ms\n")


def live_matrix() -> None:
    print("=== live matrix: same event sequence, three schemes ===")
    result = run_live_matrix(
        "live-demo",
        ["shortest-path", "cowen", "thorup-zwick"],
        lambda: make_graph("barabasi-albert", n=400, seed=7),
        scenario="partition-and-heal",
        epochs=3,
        epoch_packets=10_000,
        stale_packets=1024,
        seed=5,
    )
    header = (f"{'scheme':>14} {'ep':>3} {'events':>6} {'stale':>6} "
              f"{'sla':>7} {'repair':>12} {'ms':>8}")
    print(header)
    print("-" * len(header))
    for row in result.rows:
        print(f"{row['scheme']:>14} {row['epoch']:>3} {row['events']:>6} "
              f"{row['stale_delivery']:>6.3f} {row['delivery_rate']:>7.4f} "
              f"{row['repair_strategy']:>12} "
              f"{row['repair_seconds'] * 1000:>8.1f}")
    print("\ntimeline summaries:")
    for scheme, summary in result.metadata["timelines"].items():
        print(f"  {scheme:>14}: min delivery {summary['min_delivery_rate']:.4f}, "
              f"worst window loss {summary['max_stale_loss']:.3f}")


if __name__ == "__main__":
    single_timeline()
    live_matrix()
