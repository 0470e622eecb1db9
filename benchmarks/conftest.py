"""Shared fixtures for the pytest-benchmark files (E7–E10).

Each of those files times one of the paper's tree and cover lemmas and
records the measured numbers in ``benchmark.extra_info``, so a run both
times the operations and leaves the numbers in the report.  The files are
named ``bench_*``, so run each by path, e.g.
``python -m pytest benchmarks/bench_e9_lemma6_cover.py``.  The paper's
experiments E1–E5 and E12 run through the matrix runner instead
(``python -m repro.experiments.matrix configs/e1_tradeoff.json``).

Sizes default to the *quick* workloads; set ``REPRO_BENCH_FULL=1`` for the
larger ones.
"""

from __future__ import annotations

import pytest

from repro.experiments.workloads import full_mode, make_workload
from repro.graphs.shortest_paths import DistanceOracle


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: benchmark reproducing a paper experiment")


@pytest.fixture(scope="session")
def quick() -> bool:
    """Whether to use the small workloads (default) or the full ones."""
    return not full_mode()


@pytest.fixture(scope="session")
def bench_graph(quick):
    """The workload graph of the E9 and E10 benches (random geometric)."""
    return make_workload("geometric", 64 if quick else 192, seed=11)


@pytest.fixture(scope="session")
def bench_oracle(bench_graph):
    """Distance oracle of the common workload graph."""
    return DistanceOracle(bench_graph)


def record(benchmark, **info) -> None:
    """Store reproduced numbers in the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
