"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the experiment tables (README,
"Experiment matrix") and records the reproduced rows in
``benchmark.extra_info`` so that ``pytest benchmarks/ --benchmark-only`` both
times the operations and leaves the measured numbers in the report.

Sizes default to the *quick* workloads; set ``REPRO_BENCH_FULL=1`` for the
larger ones.
"""

from __future__ import annotations

import pytest

from repro.core.params import AGMParams
from repro.experiments.workloads import full_mode, make_workload
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.simulator import RoutingSimulator


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: benchmark reproducing a paper experiment")


@pytest.fixture(scope="session")
def quick() -> bool:
    """Whether to use the small workloads (default) or the full ones."""
    return not full_mode()


@pytest.fixture(scope="session")
def bench_graph(quick):
    """The common workload graph used by most benches (random geometric)."""
    return make_workload("geometric", 64 if quick else 192, seed=11)


@pytest.fixture(scope="session")
def bench_oracle(bench_graph):
    """Distance oracle of the common workload graph."""
    return DistanceOracle(bench_graph)


@pytest.fixture(scope="session")
def bench_simulator(bench_graph, bench_oracle):
    """Simulator bound to the common workload graph."""
    return RoutingSimulator(bench_graph, oracle=bench_oracle)


@pytest.fixture(scope="session")
def agm_params():
    """Scaled experiment constants (exponents untouched); see DESIGN.md §3 item 2."""
    return AGMParams.experiment()


def record(benchmark, **info) -> None:
    """Store reproduced numbers in the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
