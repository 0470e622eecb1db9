"""Seeded churn-event streams and the graph-mutation delta they produce.

An event is a small immutable record (:class:`ChurnEvent`) that knows how to
apply itself to a :class:`~repro.graphs.graph.WeightedGraph` through the
graph's mutation API (``remove_edge`` / ``add_edge`` / ``set_edge_weight`` /
``detach_node``), each of which invalidates the CSR / component-id caches and
bumps the graph's mutation version so the live distance store self-heals.

Applying a *batch* of events through :func:`apply_events` yields a
:class:`GraphDelta` — the record scheme repair (``maintain(delta)``) reads
to decide whether anything changed.  Event batches are the unit of churn:
one batch is one epoch of a scenario, and schemes are repaired once per
batch, not once per event.

The stream builders at the bottom (:func:`edge_failures`,
:func:`weight_perturbations`, ...) sample events from the *live* graph with a
caller-provided generator, so scenarios stay reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import require

#: event kinds understood by :class:`ChurnEvent`
EVENT_KINDS = ("fail", "recover", "perturb", "detach")

#: one applied edge change: (u, v, old_weight_or_None, new_weight_or_None)
EdgeChange = Tuple[int, int, Optional[float], Optional[float]]


@dataclass(frozen=True)
class ChurnEvent:
    """One mutation of the network.

    ``kind`` is one of :data:`EVENT_KINDS`:

    * ``"fail"`` — remove edge ``{u, v}`` (link failure);
    * ``"recover"`` — (re-)insert edge ``{u, v}`` with ``weight``;
    * ``"perturb"`` — overwrite the weight of edge ``{u, v}`` with ``weight``
      (congestion / degradation; increases are applied verbatim);
    * ``"detach"`` — remove every edge incident to node ``u`` (node outage;
      the node keeps its name and index).
    """

    kind: str
    u: int
    v: int = -1
    weight: float = 0.0

    def apply(self, graph: WeightedGraph) -> "AppliedEvent":
        """Mutate ``graph`` and return the applied record (old/new weights)."""
        if self.kind == "fail":
            old = graph.remove_edge(self.u, self.v)
            return AppliedEvent(self, ((self.u, self.v, old, None),))
        if self.kind == "recover":
            old = graph.edge_weight(self.u, self.v) \
                if graph.has_edge(self.u, self.v) else None
            graph.add_edge(self.u, self.v, self.weight)
            return AppliedEvent(self, ((self.u, self.v, old, self.weight),))
        if self.kind == "perturb":
            old = graph.set_edge_weight(self.u, self.v, self.weight)
            return AppliedEvent(self, ((self.u, self.v, old, self.weight),))
        if self.kind == "detach":
            removed = graph.detach_node(self.u)
            return AppliedEvent(self, tuple((self.u, v, w, None)
                                            for v, w in removed))
        raise ValueError(f"unknown event kind {self.kind!r}; "
                         f"choose from {EVENT_KINDS}")


@dataclass(frozen=True)
class AppliedEvent:
    """A :class:`ChurnEvent` that has been applied, with the edges it changed."""

    event: ChurnEvent
    changes: Tuple[EdgeChange, ...]


@dataclass
class GraphDelta:
    """Everything one event batch changed — the input to ``maintain()``."""

    applied: List[AppliedEvent] = field(default_factory=list)

    @property
    def num_events(self) -> int:
        return len(self.applied)

    def changed_edges(self) -> List[Tuple[int, int]]:
        """Every edge some event touched, as ``(min(u,v), max(u,v))`` pairs."""
        seen: Set[Tuple[int, int]] = set()
        out: List[Tuple[int, int]] = []
        for record in self.applied:
            for u, v, _, _ in record.changes:
                key = (min(u, v), max(u, v))
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out


def apply_events(graph: WeightedGraph, events: Iterable[ChurnEvent]) -> GraphDelta:
    """Apply one event batch to ``graph`` in order; return the delta.

    This is the canonical churn entry point: mutate through here, then call
    ``scheme.maintain(delta)`` on every live scheme instance.  Cache
    invalidation (CSR, component ids, distance-backend rows) happens inside
    the graph's mutation primitives — nothing here needs to know about it.
    """
    return GraphDelta(applied=list(graph.apply_events(events)))


# --------------------------------------------------------------------------- #
# seeded stream builders
# --------------------------------------------------------------------------- #
def _sample_edges(graph: WeightedGraph, count: int,
                  rng: np.random.Generator) -> List[Tuple[int, int, float]]:
    edges = list(graph.edges())
    if not edges or count <= 0:
        return []
    count = min(int(count), len(edges))
    chosen = rng.choice(len(edges), size=count, replace=False)
    return [edges[int(i)] for i in chosen]


def edge_failures(graph: WeightedGraph, count: int,
                  seed: SeedLike = None) -> List[ChurnEvent]:
    """``count`` link failures sampled uniformly from the live edge set."""
    rng = make_rng(seed)
    return [ChurnEvent("fail", u, v) for u, v, _ in _sample_edges(graph, count, rng)]


def edge_recoveries(failed: Sequence[EdgeChange]) -> List[ChurnEvent]:
    """Recovery events re-inserting previously failed edges at their old weight.

    ``failed`` is a sequence of ``(u, v, old_weight, new_weight)`` change
    records (e.g. collected from a :class:`GraphDelta`); only records whose
    ``new_weight`` is ``None`` (true removals) produce a recovery.
    """
    out = []
    for u, v, old, new in failed:
        if new is None and old is not None:
            out.append(ChurnEvent("recover", u, v, weight=float(old)))
    return out


def weight_perturbations(graph: WeightedGraph, count: int, seed: SeedLike = None,
                         low: float = 1.5, high: float = 4.0) -> List[ChurnEvent]:
    """Multiply the weight of ``count`` random edges by ``U[low, high]``."""
    require(0 < low <= high, "perturbation factor range must satisfy 0 < low <= high")
    rng = make_rng(seed)
    out = []
    for u, v, w in _sample_edges(graph, count, rng):
        factor = float(rng.uniform(low, high))
        out.append(ChurnEvent("perturb", u, v, weight=w * factor))
    return out


def node_detachments(graph: WeightedGraph, count: int,
                     seed: SeedLike = None) -> List[ChurnEvent]:
    """Detach ``count`` random non-isolated nodes (node outages)."""
    rng = make_rng(seed)
    candidates = [v for v in range(graph.n) if graph.degree(v) > 0]
    if not candidates or count <= 0:
        return []
    count = min(int(count), len(candidates))
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return [ChurnEvent("detach", candidates[int(i)]) for i in chosen]


def random_event_batch(graph: WeightedGraph, size: int, seed: SeedLike = None,
                       kinds: Sequence[str] = ("fail", "perturb")) -> List[ChurnEvent]:
    """A mixed batch of ``size`` events over the live graph (property testing).

    Each event's kind is drawn uniformly from ``kinds``; events are generated
    against the graph state *as the batch is applied would leave it* is not
    simulated — duplicates targeting the same edge are skipped, so the batch
    is always applicable in order to the graph it was sampled from.
    """
    rng = make_rng(seed)
    out: List[ChurnEvent] = []
    used: Set[Tuple[int, int]] = set()
    detached: Set[int] = set()
    for _ in range(int(size)):
        kind = str(rng.choice(list(kinds)))
        if kind == "detach":
            for event in node_detachments(graph, 1, seed=rng):
                if event.u not in detached:
                    detached.add(event.u)
                    out.append(event)
            continue
        if kind == "recover":
            continue  # recoveries need a failure history; skip in mixed batches
        require(kind in ("fail", "perturb"),
                f"unknown event kind {kind!r}; choose from {EVENT_KINDS}")
        sampled = _sample_edges(graph, 1, rng)
        if not sampled:
            continue
        u, v, w = sampled[0]
        key = (min(u, v), max(u, v))
        if key in used or u in detached or v in detached:
            continue  # one event per edge keeps the batch applicable in order
        used.add(key)
        if kind == "fail":
            # a failed edge may disconnect the graph — that is a legitimate
            # scenario; schemes must keep routing inside surviving components
            out.append(ChurnEvent("fail", u, v))
        else:
            out.append(ChurnEvent("perturb", u, v,
                                  weight=w * float(rng.uniform(1.5, 4.0))))
    return out
