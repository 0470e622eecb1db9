"""Graph metrics used by the experiments: aspect ratio and a headline summary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle


def aspect_ratio(graph: WeightedGraph, oracle: Optional[DistanceOracle] = None) -> float:
    """Aspect ratio Δ = (max pairwise distance) / (min positive pairwise distance)."""
    oracle = oracle or DistanceOracle(graph)
    return oracle.aspect_ratio()


@dataclass
class GraphSummary:
    """Headline statistics of a workload graph (used in experiment reports)."""

    n: int
    m: int
    min_weight: float
    max_weight: float
    diameter: float
    aspect_ratio: float
    max_degree: int
    avg_degree: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "m": self.m,
            "min_weight": self.min_weight,
            "max_weight": self.max_weight,
            "diameter": self.diameter,
            "aspect_ratio": self.aspect_ratio,
            "max_degree": self.max_degree,
            "avg_degree": self.avg_degree,
        }


def graph_summary(graph: WeightedGraph, oracle: Optional[DistanceOracle] = None) -> GraphSummary:
    """Compute a :class:`GraphSummary` for reporting."""
    oracle = oracle or DistanceOracle(graph)
    degrees = [graph.degree(v) for v in range(graph.n)]
    return GraphSummary(
        n=graph.n,
        m=graph.num_edges,
        min_weight=graph.min_weight() if graph.num_edges else 0.0,
        max_weight=graph.max_weight(),
        diameter=oracle.diameter(),
        aspect_ratio=oracle.aspect_ratio(),
        max_degree=max(degrees) if degrees else 0,
        avg_degree=float(np.mean(degrees)) if degrees else 0.0,
    )
