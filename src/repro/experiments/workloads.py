"""Workload definitions shared by experiments, benches and examples.

A workload is a named, seeded graph instance.  The standard suite mirrors the
graph families the experiment kinds run on (README, "Experiment matrix");
every entry has a ``quick`` size (used in CI / default bench runs) and a
``full`` size (used when the environment variable ``REPRO_BENCH_FULL`` is
set).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    rescale_aspect_ratio,
    ring_of_cliques,
)
from repro.graphs.graph import WeightedGraph


def full_mode() -> bool:
    """Whether the benches should use the larger workload sizes."""
    return bool(os.environ.get("REPRO_BENCH_FULL"))


@dataclass(frozen=True)
class WorkloadSpec:
    """A named recipe producing a workload graph."""

    name: str
    family: str
    quick_n: int
    full_n: int
    seed: int = 0

    def build(self, quick: bool = True, seed: Optional[int] = None,
              seed_offset: int = 0) -> WeightedGraph:
        """Materialize the workload graph.

        ``seed`` replaces the spec's pinned seed outright; ``seed_offset``
        shifts it instead.  Experiment entry points thread their run seed
        through as an offset, so ``run(seed=0)`` (the default) reproduces
        the historical pinned graphs bit for bit while ``run(seed=s)``
        honestly varies the graph draw — previously the run seed was
        silently dropped here and every "seed sweep" re-measured one graph.
        """
        n = self.quick_n if quick else self.full_n
        base = self.seed if seed is None else seed
        return make_workload(self.family, n, seed=base + int(seed_offset))


_BUILDERS: Dict[str, Callable[[int, Optional[int]], WeightedGraph]] = {
    "geometric": lambda n, seed: random_geometric_graph(n, seed=seed),
    "erdos-renyi": lambda n, seed: erdos_renyi_graph(n, seed=seed),
    "grid": lambda n, seed: grid_graph(max(int(round(n ** 0.5)), 2),
                                       max(int(round(n ** 0.5)), 2), seed=seed),
    "barabasi-albert": lambda n, seed: barabasi_albert_graph(n, seed=seed),
    "ring-of-cliques": lambda n, seed: ring_of_cliques(max(n // 8, 3), 8, seed=seed),
    "hyperbolic": lambda n, seed: _topologies().hyperbolic_graph(n, seed=seed),
    "powerlaw-cluster":
        lambda n, seed: _topologies().powerlaw_cluster_graph(n, seed=seed),
}


def _topologies():
    """Lazy import: the topology module pulls in hashing/manifest machinery."""
    from repro.graphs import topologies

    return topologies


def make_workload(family: str, n: int, seed: Optional[int] = None) -> WeightedGraph:
    """Build a workload graph of the named family with roughly ``n`` nodes.

    Families prefixed ``topology:`` load a pinned real-world snapshot by
    manifest name (``topology:caida-as-mini``); the snapshot has a fixed
    size and byte-pinned contents, so ``n`` and ``seed`` are ignored — the
    honest way to put a measured topology in a slot that sweeps seeds.
    """
    if family.startswith("topology:"):
        return _topologies().load_topology(family.split(":", 1)[1])
    if family not in _BUILDERS:
        raise ValueError(f"unknown workload family {family!r}; choose from "
                         f"{sorted(_BUILDERS)} or 'topology:<name>'")
    return _BUILDERS[family](n, seed)


def workload_factory(family: str, n: int,
                     seed: Optional[int] = None) -> Callable[[], WeightedGraph]:
    """A zero-arg callable producing a fresh workload graph on every call.

    Churn runs (:func:`repro.experiments.harness.run_live_matrix`, the E15
    bench) mutate their graph in place, so each timeline needs its own
    instance; this is the composition point between the workload families and
    the dynamic scenarios.
    """
    return lambda: make_workload(family, n, seed=seed)


def standard_suite(quick: bool = True) -> List[WorkloadSpec]:
    """The graph suite used by experiments E1, E2 and E4."""
    specs = [
        WorkloadSpec("geometric", "geometric", quick_n=96, full_n=300, seed=11),
        WorkloadSpec("erdos-renyi", "erdos-renyi", quick_n=96, full_n=300, seed=12),
        WorkloadSpec("grid", "grid", quick_n=100, full_n=256, seed=13),
        WorkloadSpec("barabasi-albert", "barabasi-albert", quick_n=96, full_n=300, seed=14),
    ]
    return specs


def aspect_ratio_suite(deltas: Optional[List[float]] = None, n: int = 72,
                       seed: int = 21) -> List[tuple]:
    """Graphs with a fixed topology and increasing aspect ratio (experiment E3).

    Returns a list of ``(target_delta, graph)`` pairs.
    """
    if deltas is None:
        deltas = [1e2, 1e4, 1e6, 1e9, 1e12]
    base = random_geometric_graph(n, weights="unit", seed=seed)
    out = []
    for i, delta in enumerate(deltas):
        out.append((delta, rescale_aspect_ratio(base, delta, seed=seed + i + 1)))
    return out
