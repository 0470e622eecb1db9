"""Dynamic-network churn subsystem: events, repair, scenarios.

Real compact-routing deployments face link failures, weight churn and node
outages; this package opens that workload axis for the whole library.  It is
layered between ``routing/`` and ``experiments/``:

``events``
    Seeded churn-event streams (edge failure / recovery, weight
    perturbation, node detach) and :func:`apply_events`, which mutates a
    :class:`~repro.graphs.graph.WeightedGraph` in place and returns the
    :class:`~repro.dynamics.events.GraphDelta` that repair consumes.
``repair``
    :func:`full_rebuild` (the one repair behind every scheme's
    ``RoutingSchemeInstance.maintain``) and the :class:`RepairReport` cost
    record.
``scenario``
    Named churn scenarios (flap-heavy, degradation, partition-and-heal and
    the traffic-steering adversarial ones) composing any workload family.
    :class:`repro.live.LiveSimulator` drives a scheme through their epochs
    and prices delivery under stale state and repair cost.
"""

from repro.dynamics.events import (
    ChurnEvent,
    GraphDelta,
    apply_events,
    edge_failures,
    edge_recoveries,
    node_detachments,
    random_event_batch,
    weight_perturbations,
)
from repro.dynamics.repair import RepairReport, full_rebuild
from repro.dynamics.scenario import (
    SCENARIO_NAMES,
    ChurnScenario,
    make_scenario,
)

__all__ = [
    "ChurnEvent",
    "GraphDelta",
    "apply_events",
    "edge_failures",
    "edge_recoveries",
    "weight_perturbations",
    "node_detachments",
    "random_event_batch",
    "RepairReport",
    "full_rebuild",
    "ChurnScenario",
    "SCENARIO_NAMES",
    "make_scenario",
]
