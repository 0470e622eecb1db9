"""Dynamic-network churn demo: failures, repair, named scenarios.

Walks through the churn subsystem on a small ISP-like geometric network:

1. apply a hand-rolled event batch (a link failure, a congestion spike and a
   node outage) through ``apply_events`` and watch a live scheme break —
   its pairs, routed on the forwarding program captured before the batch,
   die at the failed links — then repair itself with ``maintain()`` (a
   full rebuild on the mutated graph);
2. run every named scenario over two schemes with ``run_live_matrix`` and
   print stretch drift, delivery under stale state, and repair cost per
   event batch.

Run with::

    PYTHONPATH=src python examples/churn_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.events import ChurnEvent, apply_events
from repro.dynamics.scenario import SCENARIO_NAMES
from repro.experiments.harness import run_live_matrix
from repro.experiments.workloads import workload_factory
from repro.factory import build_scheme
from repro.graphs.generators import random_geometric_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import stale_window_outcome
from repro.routing.forwarding import run_lockstep
from repro.routing.simulator import RoutingSimulator


def single_batch_walkthrough() -> None:
    print("=== one event batch, one scheme ===")
    graph = random_geometric_graph(120, seed=7)
    oracle = DistanceOracle(graph)
    simulator = RoutingSimulator(graph, oracle=oracle)
    scheme = build_scheme("thorup-zwick", graph, k=2, seed=1, oracle=oracle)
    pairs = simulator.sample_pairs(150, seed=2)
    print(f"baseline: avg stretch "
          f"{simulator.evaluate(scheme, pairs=pairs).avg_stretch:.3f}")
    # the program routers hold when the failure hits
    stale_program = scheme.compiled_forwarding()

    # fail the heaviest-traffic link, triple the weight of another, and take
    # one node down entirely
    u, v, w = max(graph.edges(), key=lambda e: e[2])
    a, b, wab = next(graph.edges())
    batch = [
        ChurnEvent("fail", u, v),
        ChurnEvent("perturb", a, b, weight=3 * wab) if (a, b) != (u, v) else
        ChurnEvent("detach", graph.n - 1),
        ChurnEvent("detach", graph.n // 2),
    ]
    delta = apply_events(graph, batch)
    print(f"applied {delta.num_events} events touching "
          f"{len(delta.changed_edges())} edges")
    src, dst = (np.asarray(side, dtype=np.int64) for side in zip(*pairs))
    outcome = run_lockstep(stale_program, src, dst, materialize=False)
    delivered = stale_window_outcome(graph, outcome, src.size, dst)
    print(f"stale delivery rate: {delivered.mean():.2f}")

    report = scheme.maintain(delta)
    print(f"repair: {report.strategy} in {report.seconds * 1000:.1f} ms")
    pairs = simulator.sample_pairs(150, seed=3, on_shortfall="warn")
    post = simulator.evaluate(scheme, pairs=pairs)
    print(f"post-repair: avg stretch {post.avg_stretch:.3f}, "
          f"failures {post.failures}/{post.num_pairs}\n")


def scenario_timelines() -> None:
    print("=== every named scenario, two schemes ===")
    header = (f"{'scenario':>20} {'ep':>3} {'scheme':>14} {'stale':>6} "
              f"{'deliv':>6} {'drift':>7} {'repair':>13} {'ms':>7}")
    print(header)
    print("-" * len(header))
    for scenario in SCENARIO_NAMES:
        result = run_live_matrix(
            "churn-demo",
            ["shortest-path", "thorup-zwick"],
            workload_factory("geometric", 150, seed=11),
            scenario=scenario,
            epochs=4,
            epoch_packets=120,
            stale_packets=120,
            model="uniform",
            seed=5,
        )
        baseline = {row["scheme"]: row["avg_stretch"]
                    for row in result.rows if row["epoch"] == 0}
        for row in result.rows:
            drift = row["avg_stretch"] - baseline[row["scheme"]]
            print(f"{row['scenario']:>20} {row['epoch']:>3} "
                  f"{row['scheme']:>14} {row['stale_delivery']:>6.2f} "
                  f"{row['delivery_rate']:>6.2f} {drift:>+7.3f} "
                  f"{row['repair_strategy']:>13} "
                  f"{row['repair_seconds'] * 1000:>7.1f}")


if __name__ == "__main__":
    single_batch_walkthrough()
    scenario_timelines()
