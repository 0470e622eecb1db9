"""Graph substrate: weighted graphs, shortest paths, rooted trees, generators.

Everything in the routing library is expressed over :class:`WeightedGraph`
(an undirected, positively-weighted graph whose nodes additionally carry
*arbitrary names*, as required by the name-independent routing model) and
:class:`Tree` (a rooted spanning structure extracted from a graph).
"""

from repro.graphs.graph import WeightedGraph
from repro.graphs.trees import Tree
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.shortest_paths import (
    dijkstra,
    all_pairs_distances,
    shortest_path_tree,
    DistanceOracle,
)

__all__ = [
    "WeightedGraph",
    "Tree",
    "dijkstra",
    "all_pairs_distances",
    "shortest_path_tree",
    "DistanceOracle",
    "LazyDijkstraBackend",
]
