"""Shared fixtures.

Expensive objects (distance oracles, AGM scheme instances) are session-scoped
so the suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.core.params import AGMParams
from repro.core.scheme import AGMRoutingScheme
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
    random_tree_graph,
    ring_of_cliques,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.routing.simulator import RoutingSimulator


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long end-to-end run (an example script at full size)")


@pytest.fixture(scope="session")
def small_geometric() -> WeightedGraph:
    """A connected random geometric graph with ~48 nodes (metric weights)."""
    return random_geometric_graph(48, seed=101)


@pytest.fixture(scope="session")
def small_er() -> WeightedGraph:
    """A connected Erdős–Rényi graph with ~40 nodes and uniform weights."""
    return erdos_renyi_graph(40, seed=102)


@pytest.fixture(scope="session")
def small_grid() -> WeightedGraph:
    """A 6x6 grid with uniform random weights."""
    return grid_graph(6, 6, seed=103)


@pytest.fixture(scope="session")
def small_cliques() -> WeightedGraph:
    """A ring of cliques (locally dense, globally sparse)."""
    return ring_of_cliques(6, 6, seed=104)


@pytest.fixture(scope="session")
def tiny_path() -> WeightedGraph:
    """A 6-node path with unit weights."""
    return path_graph(6, seed=105)


@pytest.fixture(scope="session")
def small_tree_graph() -> WeightedGraph:
    """A random tree on 30 nodes."""
    return random_tree_graph(30, seed=106)


@pytest.fixture(scope="session")
def geometric_oracle(small_geometric) -> DistanceOracle:
    """Distance oracle of the geometric fixture."""
    return DistanceOracle(small_geometric)


@pytest.fixture(scope="session")
def er_oracle(small_er) -> DistanceOracle:
    """Distance oracle of the Erdős–Rényi fixture."""
    return DistanceOracle(small_er)


@pytest.fixture(scope="session")
def geometric_spt(small_geometric):
    """A shortest-path tree of the geometric fixture rooted at node 0."""
    return shortest_path_tree(small_geometric, 0)


@pytest.fixture(scope="session")
def agm_k2(small_geometric, geometric_oracle) -> AGMRoutingScheme:
    """An AGM scheme instance with k=2 on the geometric fixture."""
    return AGMRoutingScheme.build(small_geometric, k=2, params=AGMParams.experiment(),
                                  oracle=geometric_oracle, seed=7)


@pytest.fixture(scope="session")
def agm_k3(small_er, er_oracle) -> AGMRoutingScheme:
    """An AGM scheme instance with k=3 on the Erdős–Rényi fixture."""
    return AGMRoutingScheme.build(small_er, k=3, params=AGMParams.experiment(),
                                  oracle=er_oracle, seed=8)


@pytest.fixture(scope="session")
def geometric_simulator(small_geometric, geometric_oracle) -> RoutingSimulator:
    """Simulator bound to the geometric fixture."""
    return RoutingSimulator(small_geometric, oracle=geometric_oracle)


@pytest.fixture(scope="session")
def er_simulator(small_er, er_oracle) -> RoutingSimulator:
    """Simulator bound to the Erdős–Rényi fixture."""
    return RoutingSimulator(small_er, oracle=er_oracle)
