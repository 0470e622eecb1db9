"""Pair-sampled evaluation of routing schemes.

The simulator samples (or receives) source / destination pairs and measures
how a scheme routes them.  It does no routing, verification or scoring of
its own: :meth:`RoutingSimulator.evaluate` runs the pairs through
:func:`repro.traffic.engine.run_traffic` as one
:class:`~repro.traffic.models.PairTraffic` stream and reads its
:class:`EvaluationReport` off the streamed
:class:`~repro.traffic.stats.TrafficStats`, so a sampled experiment scores
exactly the way every traffic run and benchmark row does: every hop of every
walk is checked against the graph, and stretch is measured against exact
shortest-path distances.

Two engines are available (``engine=`` on :meth:`RoutingSimulator.evaluate`
and :meth:`RoutingSimulator.route_batch`):

* ``"scalar"`` — per-pair ``scheme.route()`` calls, the reference engine;
* ``"lockstep"`` (default) — the scheme's :meth:`compile_forwarding`
  program executed by :func:`repro.routing.forwarding.run_lockstep`: all
  pending packets advance one hop per step through array gathers over
  compiled forwarding tables, producing walks identical to the scalar
  engine.  A scheme without a compiled form raises ``NotImplementedError``
  here and runs under ``"scalar"`` only.

:meth:`RoutingSimulator.route_batch` returns the verified walks themselves,
which is what the engine-parity tests compare.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import run_lockstep
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.traffic.engine import (  # noqa: F401 - InvalidRouteError re-exported
    DEFAULT_BATCH_SIZE,
    InvalidRouteError,
    resolve_engine_spec,
    run_traffic,
    verify_lockstep_walks,
    verify_scalar_walks,
)
from repro.traffic.models import PairTraffic
from repro.traffic.stats import TrafficStats
from repro.utils.rng import make_rng
from repro.utils.validation import require


class PairSamplingError(ValueError):
    """Raised when the requested number of connected pairs cannot be sampled."""


@dataclass
class EvaluationReport:
    """Routing quality over a set of pairs, read off one traffic run.

    ``failures`` counts packets the scheme did not deliver although a path
    exists; ``unreachable`` counts pairs with no path at all (never a
    sampled pair, which is always connected).  The stretch fields cover
    delivered packets only: ``max_stretch`` and ``avg_stretch`` are exact,
    ``median_stretch`` and ``p95_stretch`` are the streamed nearest-rank
    quantiles (within :data:`repro.traffic.stats.LOG_QUANTILE_RTOL`), and
    all four are NaN when no packet was delivered.
    """

    scheme: str
    n: int
    num_pairs: int
    max_stretch: float
    avg_stretch: float
    median_stretch: float
    p95_stretch: float
    max_header_bits: int
    failures: int
    unreachable: int
    max_table_bits: int
    avg_table_bits: float
    max_label_bits: int
    engine: str = "scalar"

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for tabular reporting."""
        return asdict(self)


class RoutingSimulator:
    """Evaluates scheme instances on a fixed graph."""

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None) -> None:
        self.graph = graph
        self.oracle = oracle or DistanceOracle(graph)

    # ------------------------------------------------------------------ #
    # pair sampling
    # ------------------------------------------------------------------ #
    def sample_pairs(self, num_pairs: int, seed=None, distinct: bool = True,
                     on_shortfall: str = "raise",
                     max_batches: int = 200) -> List[Tuple[int, int]]:
        """Sample source/destination pairs uniformly among connected pairs.

        Candidates are drawn in vectorized batches and rejected with one
        component-id comparison (two nodes are connected iff their component
        ids agree) — no per-candidate distance query.  If the graph admits no
        valid pair at all, or the defensive attempt cap trips, the shortfall
        is reported instead of silently returning fewer pairs:
        ``on_shortfall="raise"`` (default) raises :class:`PairSamplingError`,
        ``"warn"`` emits a warning and returns the partial list.

        ``max_batches`` caps the rejection rounds (each round's draw is
        itself capped at one million candidates, so a near-zero acceptance
        probability cannot demand an unbounded allocation).  The default is
        generous enough that a shortfall on a sane graph means something is
        wrong; lower it when a *partial* sample is acceptable and the caller
        handles the ``"warn"`` outcome.
        """
        require(on_shortfall in ("raise", "warn"),
                f"on_shortfall must be 'raise' or 'warn', got {on_shortfall!r}")
        require(max_batches >= 1, "need at least one sampling batch")
        n = self.graph.n
        require(n >= 2, "need at least two nodes to sample pairs")
        if num_pairs <= 0:
            return []
        comp = self.graph.component_ids()
        counts = np.bincount(comp)
        # a valid pair needs a component with >= 2 nodes (distinct) or any
        # node at all (self-pairs allowed)
        if distinct and not np.any(counts >= 2):
            message = (f"graph has no connected pair of distinct nodes "
                       f"({num_pairs} requested)")
            if on_shortfall == "raise":
                raise PairSamplingError(message)
            warnings.warn(message, stacklevel=2)
            return []

        rng = make_rng(seed)
        # acceptance probability of one uniform candidate pair, used to size
        # the rejection batches
        counts = counts.astype(float)
        if distinct:
            acceptance = float(np.sum(counts * (counts - 1.0))) / (n * n)
        else:
            acceptance = float(np.sum(counts ** 2)) / (n * n)
        acceptance = max(acceptance, 1e-9)

        pairs: List[Tuple[int, int]] = []
        for _ in range(max_batches):
            need = num_pairs - len(pairs)
            if need <= 0:
                break
            # cap the draw so near-zero acceptance cannot demand a huge
            # allocation; the outer loop keeps drawing batches as needed
            batch = min(max(int(need / acceptance * 1.2) + 8, need), 1_000_000)
            us = rng.integers(0, n, size=batch)
            vs = rng.integers(0, n, size=batch)
            keep = comp[us] == comp[vs]
            if distinct:
                keep &= us != vs
            us, vs = us[keep][:need], vs[keep][:need]
            pairs.extend(zip(us.tolist(), vs.tolist()))
        if len(pairs) < num_pairs:
            message = (f"sampled only {len(pairs)} of {num_pairs} requested "
                       f"connected pairs after {max_batches} batches")
            if on_shortfall == "raise":
                raise PairSamplingError(message)
            warnings.warn(message, stacklevel=2)
        return pairs

    def all_pairs(self) -> List[Tuple[int, int]]:
        """Every ordered connected pair (use only for small graphs)."""
        comp = self.graph.component_ids()
        out = []
        for u in range(self.graph.n):
            for v in range(self.graph.n):
                if u != v and comp[u] == comp[v]:
                    out.append((u, v))
        return out

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def verify_walk(self, result: RouteResult, source: int, destination: int) -> float:
        """Check one walk is feasible and return its true weighted cost."""
        costs, _ = verify_scalar_walks(self.graph, [result],
                                       np.asarray([source], dtype=np.int64),
                                       np.asarray([destination], dtype=np.int64))
        return float(costs[0])

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def route_batch(self, scheme: RoutingSchemeInstance,
                    pairs: Sequence[Tuple[int, int]],
                    engine: str = "lockstep") -> List[RouteResult]:
        """Route every pair and return the verified :class:`RouteResult` list.

        Each result's ``cost`` is the certified walk cost.  This keeps the
        walks themselves, so it is the engine-parity harness; measure
        routing quality with :meth:`evaluate`.
        """
        engine = resolve_engine_spec(engine)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        sources, destinations = pairs[:, 0], pairs[:, 1]
        if engine == "lockstep":
            outcome = run_lockstep(scheme.compiled_forwarding(), sources,
                                   destinations, materialize=True)
            costs = verify_lockstep_walks(self.graph, outcome, len(pairs),
                                          destinations)
            results = outcome.results
        else:
            names = self.graph.names_view()
            results = [scheme.route(u, names[v]) for u, v in pairs.tolist()]
            costs, _ = verify_scalar_walks(self.graph, results, sources,
                                           destinations)
        for result, cost in zip(results, costs.tolist()):
            result.cost = cost
        return results

    def evaluate(
        self,
        scheme: RoutingSchemeInstance,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        num_pairs: int = 200,
        seed=None,
        engine: str = "lockstep",
    ) -> EvaluationReport:
        """Route every pair through ``scheme`` and report stretch and space.

        ``pairs`` defaults to ``num_pairs`` connected pairs drawn by
        :meth:`sample_pairs` with ``seed``.  The pairs stream through
        :func:`~repro.traffic.engine.run_traffic` in one in-process shard,
        scored against this simulator's oracle.
        """
        engine = resolve_engine_spec(engine)
        if pairs is None:
            pairs = self.sample_pairs(num_pairs, seed=seed)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        stats = TrafficStats()
        if len(pairs):
            model = PairTraffic(self.graph, pairs[:, 0], pairs[:, 1],
                                DEFAULT_BATCH_SIZE)
            stats = run_traffic(scheme, model, len(pairs), shards=1,
                                batch_size=DEFAULT_BATCH_SIZE, engine=engine,
                                oracle=self.oracle, processes=False).stats
        summary = stats.summary()
        return EvaluationReport(
            scheme=scheme.scheme_name,
            n=self.graph.n,
            num_pairs=len(pairs),
            max_stretch=summary["max_stretch"],
            avg_stretch=summary["avg_stretch"],
            median_stretch=summary["stretch_p50"],
            p95_stretch=summary["stretch_p95"],
            max_header_bits=scheme.header_bits(),
            failures=summary["failures"],
            unreachable=summary["unreachable"],
            max_table_bits=scheme.max_table_bits(),
            avg_table_bits=scheme.avg_table_bits(),
            max_label_bits=scheme.max_label_bits(),
            engine=engine,
        )
