"""Synthetic workload graphs.

The paper proves worst-case guarantees over *arbitrary* weighted graphs; the
reproduction exercises them on standard graph families (grids, random
geometric graphs, Erdős–Rényi, Barabási–Albert, ring-of-cliques, trees,
hypercubes) combined with several weight models:

``unit``
    every edge has weight 1 (the Peleg–Upfal setting);
``uniform``
    weights uniform in ``[wmin, wmax]``;
``exponential``
    weights ``10**U`` with ``U`` uniform — this is the model that produces
    the astronomically large aspect ratios (Δ up to ``2^n``) that motivate
    the paper's scale-free property.

Every generator returns a connected :class:`WeightedGraph` (taking the
largest component and, if necessary, stitching components together), with
adversarial random node names, and is fully deterministic given ``seed``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

import networkx as nx
import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.topologies import hyperbolic_graph, powerlaw_cluster_graph
from repro.utils.rng import make_rng
from repro.utils.validation import require

WeightModel = str


# --------------------------------------------------------------------------- #
# weight assignment
# --------------------------------------------------------------------------- #
def _draw_weight(rng: np.random.Generator, model: WeightModel,
                 wmin: float, wmax: float) -> float:
    if model == "unit":
        return 1.0
    if model == "uniform":
        return float(rng.uniform(wmin, wmax))
    if model == "exponential":
        lo, hi = math.log10(wmin), math.log10(wmax)
        return float(10.0 ** rng.uniform(lo, hi))
    raise ValueError(f"unknown weight model {model!r}")


def _finalize(
    nxg: nx.Graph,
    rng: np.random.Generator,
    weights: WeightModel,
    wmin: float,
    wmax: float,
    keep_existing_weights: bool = False,
) -> WeightedGraph:
    """Make connected, assign weights and adversarial names, convert."""
    require(nxg.number_of_nodes() >= 1, "generated graph is empty")
    nxg = nx.convert_node_labels_to_integers(nxg)
    if not nx.is_connected(nxg):
        components = [sorted(c) for c in nx.connected_components(nxg)]
        components.sort(key=len, reverse=True)
        # Stitch every smaller component to the largest one with a single edge
        # so no node is dropped (routing correctness tests need all n nodes).
        anchor = components[0][0]
        for comp in components[1:]:
            nxg.add_edge(anchor, comp[0])
    edges = []
    for u, v, data in nxg.edges(data=True):
        if keep_existing_weights and "weight" in data:
            w = float(data["weight"])
        else:
            w = _draw_weight(rng, weights, wmin, wmax)
        edges.append((u, v, max(w, 1e-9)))
    name_seed = int(rng.integers(0, 2**31 - 1))
    return WeightedGraph(nxg.number_of_nodes(), edges, seed=name_seed)


# --------------------------------------------------------------------------- #
# graph families
# --------------------------------------------------------------------------- #
def grid_graph(rows: int, cols: int, weights: WeightModel = "uniform",
               wmin: float = 1.0, wmax: float = 10.0,
               seed: Optional[int] = None) -> WeightedGraph:
    """2-D grid (``rows`` x ``cols``) with the given weight model."""
    rng = make_rng(seed)
    nxg = nx.grid_2d_graph(rows, cols)
    return _finalize(nxg, rng, weights, wmin, wmax)


def path_graph(n: int, weights: WeightModel = "unit",
               wmin: float = 1.0, wmax: float = 10.0,
               seed: Optional[int] = None) -> WeightedGraph:
    """Path on ``n`` nodes."""
    rng = make_rng(seed)
    return _finalize(nx.path_graph(n), rng, weights, wmin, wmax)


def cycle_graph(n: int, weights: WeightModel = "unit",
                wmin: float = 1.0, wmax: float = 10.0,
                seed: Optional[int] = None) -> WeightedGraph:
    """Cycle on ``n`` nodes."""
    rng = make_rng(seed)
    return _finalize(nx.cycle_graph(n), rng, weights, wmin, wmax)


def star_graph(n: int, weights: WeightModel = "unit",
               wmin: float = 1.0, wmax: float = 10.0,
               seed: Optional[int] = None) -> WeightedGraph:
    """Star with ``n`` leaves (n+1 nodes)."""
    rng = make_rng(seed)
    return _finalize(nx.star_graph(n), rng, weights, wmin, wmax)


def complete_graph(n: int, weights: WeightModel = "uniform",
                   wmin: float = 1.0, wmax: float = 10.0,
                   seed: Optional[int] = None) -> WeightedGraph:
    """Complete graph on ``n`` nodes."""
    rng = make_rng(seed)
    return _finalize(nx.complete_graph(n), rng, weights, wmin, wmax)


def hypercube_graph(dim: int, weights: WeightModel = "unit",
                    wmin: float = 1.0, wmax: float = 10.0,
                    seed: Optional[int] = None) -> WeightedGraph:
    """Hypercube of dimension ``dim`` (``2**dim`` nodes)."""
    rng = make_rng(seed)
    return _finalize(nx.hypercube_graph(dim), rng, weights, wmin, wmax)


def erdos_renyi_graph(n: int, p: Optional[float] = None,
                      weights: WeightModel = "uniform",
                      wmin: float = 1.0, wmax: float = 10.0,
                      seed: Optional[int] = None) -> WeightedGraph:
    """Erdős–Rényi ``G(n, p)`` (default ``p`` slightly above the connectivity threshold)."""
    rng = make_rng(seed)
    if p is None:
        p = min(1.0, 3.0 * math.log(max(n, 2)) / max(n, 2))
    nxg = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31 - 1)))
    return _finalize(nxg, rng, weights, wmin, wmax)


def random_geometric_graph(n: int, radius: Optional[float] = None,
                           weights: WeightModel = "euclidean",
                           wmin: float = 1.0, wmax: float = 10.0,
                           seed: Optional[int] = None) -> WeightedGraph:
    """Random geometric graph in the unit square.

    With the default ``weights="euclidean"`` the edge weight is the Euclidean
    distance between the endpoints (scaled by 100), giving a natural metric
    workload; any other weight model re-draws weights independently.
    """
    rng = make_rng(seed)
    if radius is None:
        radius = min(1.0, 1.8 * math.sqrt(math.log(max(n, 2)) / (math.pi * max(n, 2))))
    nxg = nx.random_geometric_graph(n, radius, seed=int(rng.integers(0, 2**31 - 1)))
    if weights == "euclidean":
        pos = nx.get_node_attributes(nxg, "pos")
        for u, v in nxg.edges():
            (x1, y1), (x2, y2) = pos[u], pos[v]
            nxg[u][v]["weight"] = max(100.0 * math.hypot(x1 - x2, y1 - y2), 1e-6)
        return _finalize(nxg, rng, "uniform", wmin, wmax, keep_existing_weights=True)
    return _finalize(nxg, rng, weights, wmin, wmax)


def barabasi_albert_graph(n: int, attach: int = 2,
                          weights: WeightModel = "uniform",
                          wmin: float = 1.0, wmax: float = 10.0,
                          seed: Optional[int] = None) -> WeightedGraph:
    """Barabási–Albert preferential-attachment graph (internet-like degrees)."""
    rng = make_rng(seed)
    attach = max(1, min(attach, n - 1))
    nxg = nx.barabasi_albert_graph(n, attach, seed=int(rng.integers(0, 2**31 - 1)))
    return _finalize(nxg, rng, weights, wmin, wmax)


def ring_of_cliques(num_cliques: int, clique_size: int,
                    weights: WeightModel = "uniform",
                    wmin: float = 1.0, wmax: float = 10.0,
                    seed: Optional[int] = None) -> WeightedGraph:
    """Ring of cliques — locally dense, globally sparse (stresses both strategies)."""
    rng = make_rng(seed)
    nxg = nx.ring_of_cliques(num_cliques, clique_size)
    return _finalize(nxg, rng, weights, wmin, wmax)


def random_tree_graph(n: int, weights: WeightModel = "uniform",
                      wmin: float = 1.0, wmax: float = 10.0,
                      seed: Optional[int] = None) -> WeightedGraph:
    """Uniformly random labelled tree on ``n`` nodes."""
    rng = make_rng(seed)
    nxg = nx.random_labeled_tree(n, seed=int(rng.integers(0, 2**31 - 1)))
    return _finalize(nxg, rng, weights, wmin, wmax)


def caterpillar_tree(spine: int, legs: int = 2,
                     weights: WeightModel = "uniform",
                     wmin: float = 1.0, wmax: float = 10.0,
                     seed: Optional[int] = None) -> WeightedGraph:
    """Caterpillar tree: a path of ``spine`` nodes, each with ``legs`` leaves."""
    rng = make_rng(seed)
    nxg = nx.Graph()
    for i in range(spine - 1):
        nxg.add_edge(i, i + 1)
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            nxg.add_edge(i, nxt)
            nxt += 1
    return _finalize(nxg, rng, weights, wmin, wmax)


def dumbbell_graph(side: int, bridge_weight: float = 1000.0,
                   weights: WeightModel = "uniform",
                   wmin: float = 1.0, wmax: float = 10.0,
                   seed: Optional[int] = None) -> WeightedGraph:
    """Two cliques of ``side`` nodes joined by a single heavy edge.

    A classic stress test for the decomposition: neighborhoods are dense
    inside a clique and abruptly sparse across the bridge.
    """
    rng = make_rng(seed)
    nxg = nx.Graph()
    for a, b in itertools.combinations(range(side), 2):
        nxg.add_edge(a, b)
    for a, b in itertools.combinations(range(side, 2 * side), 2):
        nxg.add_edge(a, b)
    nxg.add_edge(0, side, weight=bridge_weight)
    g = _finalize(nxg, rng, weights, wmin, wmax, keep_existing_weights=True)
    return g


# --------------------------------------------------------------------------- #
# aspect-ratio control
# --------------------------------------------------------------------------- #
def rescale_aspect_ratio(graph: WeightedGraph, target_delta: float,
                         seed: Optional[int] = None) -> WeightedGraph:
    """Return a copy of ``graph`` whose aspect ratio is roughly ``target_delta``.

    The topology is preserved; edge weights are re-drawn as ``10**U`` with
    ``U`` uniform in ``[0, log10(target_delta / n)]`` so that the shortest
    pairwise distance stays near 1 while the diameter approaches
    ``target_delta``.  The exact achieved Δ depends on the topology; callers
    that need the exact value should measure it with
    :func:`repro.graphs.metrics.aspect_ratio`.
    """
    require(target_delta >= 1.0, "target aspect ratio must be >= 1")
    rng = make_rng(seed)
    span = max(target_delta / max(graph.n, 2), 1.0)
    hi = math.log10(span) if span > 1 else 0.0

    def new_weight(u: int, v: int, w: float) -> float:
        return float(10.0 ** rng.uniform(0.0, hi)) if hi > 0 else 1.0

    return graph.copy_with_weights(new_weight)


# --------------------------------------------------------------------------- #
# registry: the one table of generated graph families (the two real-world
# style families come from repro.graphs.topologies)
# --------------------------------------------------------------------------- #
def _square_grid(n: int, seed: Optional[int] = None) -> WeightedGraph:
    """The ``s x s`` grid with ``s = max(isqrt(n), 2)``."""
    side = max(math.isqrt(n), 2)
    return grid_graph(side, side, seed=seed)


GENERATORS: dict[str, Callable[..., WeightedGraph]] = {
    "grid": _square_grid,
    "geometric": random_geometric_graph,
    "erdos-renyi": erdos_renyi_graph,
    "barabasi-albert": barabasi_albert_graph,
    "ring-of-cliques": lambda n, seed=None: ring_of_cliques(max(n // 8, 3), 8, seed=seed),
    "tree": random_tree_graph,
    "hyperbolic": hyperbolic_graph,
    "powerlaw-cluster": powerlaw_cluster_graph,
}


def make_graph(family: str, n: int, seed: Optional[int] = None) -> WeightedGraph:
    """Build a graph from the named family with roughly ``n`` nodes."""
    require(family in GENERATORS, f"unknown graph family {family!r}; "
                                  f"choose from {sorted(GENERATORS)}")
    return GENERATORS[family](n, seed=seed)
