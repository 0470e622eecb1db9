"""Routing framework: scheme interfaces, routing tables, and the simulator."""

from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.routing.table import RoutingTable
from repro.routing.forwarding import (ForwardingProgram, NextHopTable,
                                      PacketPlan, TreeBank, run_lockstep)
from repro.routing.simulator import RoutingSimulator, EvaluationReport

__all__ = [
    "RouteResult",
    "RoutingSchemeInstance",
    "RoutingTable",
    "RoutingSimulator",
    "EvaluationReport",
    "ForwardingProgram",
    "NextHopTable",
    "PacketPlan",
    "TreeBank",
    "run_lockstep",
]
