"""Named churn scenarios: one event batch (and traffic directive) per epoch.

A :class:`ChurnScenario` turns a live graph into one event batch per epoch
(state such as which links are currently down lives on the scenario object,
so flapping and heal phases compose correctly).  Three production-shaped
scenarios ship by default:

* ``flap-heavy`` — every epoch recovers the links downed last epoch and
  fails a fresh random sample: constant link flapping.
* ``degradation`` — every epoch multiplies the weight of a random edge
  sample by a congestion factor: monotone quality decay, no topology change.
* ``partition-and-heal`` — the first half of the run progressively fails the
  boundary of a region until it partitions off, the second half re-adds the
  links in reverse order.

Three adversarial scenarios (``flash-crowd``, ``hotspot-storm``,
``partition-under-load``) also steer the traffic model through a
:class:`TrafficDirective`.  The epoch driver is
:class:`repro.live.LiveSimulator` (one scheme) and
:func:`repro.experiments.harness.run_live_matrix` (one timeline per scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dynamics.events import (
    ChurnEvent,
    EdgeChange,
    edge_failures,
    edge_recoveries,
    weight_perturbations,
)
from repro.graphs.graph import WeightedGraph
from repro.utils.validation import require

#: scenario names accepted by :func:`make_scenario`
SCENARIO_NAMES = ("flap-heavy", "degradation", "partition-and-heal",
                  "flash-crowd", "hotspot-storm", "partition-under-load")

#: structure-seed derivation namespace used by drivers honouring directives
STRUCTURE_KEY_NS = 9104


@dataclass(frozen=True)
class TrafficDirective:
    """A scenario's per-epoch steering of the traffic model.

    Adversarial scenarios couple *what fails* with *who is talking*: a flash
    crowd migrates the popular destination set mid-run, a storm re-aims the
    hotspot model at specific victims, a partition keeps load pointed at the
    region being cut off.  The live timeline asks its scenario for a
    directive each epoch and applies it when building that epoch's traffic
    model:

    * ``model`` — override the model family for this epoch (``None`` keeps
      the run's base model);
    * ``model_kwargs`` — merged over the run's base model kwargs (e.g.
      explicit hotspot ``nodes``);
    * ``structure_key`` — pins the model's *structure seed* (popularity
      permutation, hotspot placement) to a value derived from
      ``(run seed, STRUCTURE_KEY_NS, structure_key)``.  Epochs sharing a
      key share a hot set even though their packet streams are re-seeded
      per epoch; changing the key **is** the hot-set migration — and what
      forces the pinned hot-row scoring cache to invalidate.
    """

    model: Optional[str] = None
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    structure_key: Optional[int] = None


class ChurnScenario:
    """Stateful generator of one event batch per epoch.

    The contract with the runner: ``events_for_epoch`` is called once per
    epoch with the *live* (already-mutated) graph, and the returned batch is
    applied exactly once, in order, before the next call.

    ``traffic_for_epoch`` is the traffic half of the contract: a *pure*
    query (given the scenario's planned state) that may be called any number
    of times, in any order — the timeline asks for epoch ``e``'s directive
    when building epoch ``e``'s traffic and for epoch ``e - 1``'s when
    building the staleness-window probe (the packets in flight when the
    failure hits belong to the previous epoch's regime).
    """

    name: str = "abstract"

    def events_for_epoch(self, graph: WeightedGraph, epoch: int,
                         num_epochs: int,
                         rng: np.random.Generator) -> List[ChurnEvent]:
        raise NotImplementedError

    def traffic_for_epoch(self, graph: WeightedGraph, epoch: int,
                          num_epochs: int) -> Optional[TrafficDirective]:
        """The traffic directive for ``epoch`` (``None``: no steering)."""
        return None


class FlapHeavyScenario(ChurnScenario):
    """Links flap: recover last epoch's failures, fail a fresh sample."""

    name = "flap-heavy"

    def __init__(self, rate: float = 0.03) -> None:
        require(0 < rate <= 1, "flap rate must be in (0, 1]")
        self.rate = float(rate)
        self._down: List[EdgeChange] = []

    def events_for_epoch(self, graph, epoch, num_epochs, rng):
        events: List[ChurnEvent] = list(edge_recoveries(self._down))
        count = max(1, int(round(self.rate * graph.num_edges)))
        failures = edge_failures(graph, count, seed=rng)
        # remember what goes down so the next epoch can flap it back up
        self._down = [(e.u, e.v, graph.edge_weight(e.u, e.v), None)
                      for e in failures]
        events.extend(failures)
        return events


class DegradationScenario(ChurnScenario):
    """Congestion creep: random edges get heavier every epoch."""

    name = "degradation"

    def __init__(self, rate: float = 0.05, low: float = 1.5,
                 high: float = 4.0) -> None:
        require(0 < rate <= 1, "degradation rate must be in (0, 1]")
        self.rate = float(rate)
        self.low = float(low)
        self.high = float(high)

    def events_for_epoch(self, graph, epoch, num_epochs, rng):
        count = max(1, int(round(self.rate * graph.num_edges)))
        return weight_perturbations(graph, count, seed=rng,
                                    low=self.low, high=self.high)


class PartitionAndHealScenario(ChurnScenario):
    """Fail a region's boundary until it partitions off, then heal it.

    The region is the ~``region_fraction``-of-n nodes closest (by hop BFS) to
    a random seed node; its boundary edges are split across the first half of
    the epochs (so the cut tightens progressively and finally separates) and
    re-added in reverse order during the second half.
    """

    name = "partition-and-heal"

    def __init__(self, region_fraction: float = 0.25) -> None:
        require(0 < region_fraction < 1, "region_fraction must be in (0, 1)")
        self.region_fraction = float(region_fraction)
        self._schedule: Optional[List[List[Tuple[int, int, float]]]] = None
        self._region: Optional[List[int]] = None

    def _plan(self, graph: WeightedGraph, num_epochs: int,
              rng: np.random.Generator) -> None:
        target = max(2, int(round(self.region_fraction * graph.n)))
        seed_node = int(rng.integers(0, graph.n))
        region = {seed_node}
        frontier = [seed_node]
        while frontier and len(region) < target:
            nxt: List[int] = []
            for u in frontier:
                for v in graph.neighbor_indices(u):
                    if v not in region and len(region) < target:
                        region.add(v)
                        nxt.append(v)
            frontier = nxt
        self._region = sorted(region)
        boundary = [(u, v, w) for u, v, w in graph.edges()
                    if (u in region) != (v in region)]
        rng.shuffle(boundary)
        fail_epochs = max(1, num_epochs // 2)
        self._schedule = [[] for _ in range(fail_epochs)]
        for index, edge in enumerate(boundary):
            self._schedule[index % fail_epochs].append(edge)

    def events_for_epoch(self, graph, epoch, num_epochs, rng):
        if self._schedule is None:
            self._plan(graph, num_epochs, rng)
        fail_epochs = len(self._schedule)
        if epoch <= fail_epochs:
            return [ChurnEvent("fail", u, v)
                    for u, v, _ in self._schedule[epoch - 1]]
        heal_index = fail_epochs - 1 - (epoch - fail_epochs - 1) % fail_epochs
        batch = self._schedule[heal_index]
        self._schedule[heal_index] = []  # heal each chunk once
        return [ChurnEvent("recover", u, v, weight=w) for u, v, w in batch]


class FlashCrowdScenario(FlapHeavyScenario):
    """Light background flapping while the Zipf crowd migrates mid-run.

    Churn is ordinary low-rate link flapping; the adversarial part is the
    *traffic*: every ``migrate_every`` epochs the directive's
    ``structure_key`` advances, migrating the Zipf popularity permutation —
    yesterday's hot destinations go cold and a fresh set lights up.  The
    epoch-spanning caches this invalidates (pinned hot distance rows,
    warmed next-hop columns) are exactly what the scenario exists to
    stress: a driver that kept scoring against the old crowd's rows would
    be wrong, and the cache memoization key makes that impossible.
    """

    name = "flash-crowd"

    def __init__(self, rate: float = 0.01, migrate_every: int = 2,
                 support: int = 16, exponent: float = 1.1) -> None:
        super().__init__(rate=rate)
        require(migrate_every >= 1, "migrate_every must be at least 1")
        self.migrate_every = int(migrate_every)
        self.support = int(support)
        self.exponent = float(exponent)

    def traffic_for_epoch(self, graph, epoch, num_epochs):
        return TrafficDirective(
            model="zipf",
            model_kwargs={"support": self.support,
                          "exponent": self.exponent},
            structure_key=int(epoch) // self.migrate_every)


class HotspotStormScenario(ChurnScenario):
    """Periodic DDoS-style storms: victims absorb the load *and* congest.

    The victim set (top-degree hubs — chosen once, on the pre-churn graph)
    is hammered on storm epochs from two sides at once: the traffic model
    becomes a hotspot model aimed explicitly at the victims with
    ``storm_fraction`` of all packets, and the churn batch multiplies the
    weight of the victims' incident links (congestion under load).  Quiet
    epochs carry the run's base traffic and no events — the recovery the
    SLA rows should show.
    """

    name = "hotspot-storm"

    def __init__(self, victims: int = 4, storm_period: int = 2,
                 storm_fraction: float = 0.9, congestion: float = 3.0) -> None:
        require(victims >= 1, "need at least one victim")
        require(storm_period >= 1, "storm_period must be at least 1")
        require(0.0 < storm_fraction <= 1.0,
                "storm_fraction must be in (0, 1]")
        require(congestion > 1.0, "congestion factor must exceed 1")
        self.victims = int(victims)
        self.storm_period = int(storm_period)
        self.storm_fraction = float(storm_fraction)
        self.congestion = float(congestion)
        self._targets: Optional[List[int]] = None

    def _storm_epoch(self, epoch: int) -> bool:
        return epoch >= 1 and (epoch - 1) % self.storm_period == 0

    def _plan(self, graph: WeightedGraph) -> None:
        degrees = [(graph.degree(v), v) for v in range(graph.n)]
        degrees.sort(key=lambda t: (-t[0], t[1]))
        self._targets = [v for _, v in degrees[:self.victims]]

    def events_for_epoch(self, graph, epoch, num_epochs, rng):
        if self._targets is None:
            self._plan(graph)
        if not self._storm_epoch(epoch):
            return []
        events: List[ChurnEvent] = []
        seen = set()
        for u in self._targets:
            for v, w in sorted(graph.neighbors(u)):
                key = (u, v) if u < v else (v, u)
                if key not in seen:
                    seen.add(key)
                    events.append(ChurnEvent("perturb", key[0], key[1],
                                             weight=w * self.congestion))
        return events

    def traffic_for_epoch(self, graph, epoch, num_epochs):
        if self._targets is None or not self._storm_epoch(epoch):
            return None
        return TrafficDirective(
            model="hotspot",
            model_kwargs={"nodes": list(self._targets),
                          "fraction": self.storm_fraction})


class PartitionUnderLoadScenario(PartitionAndHealScenario):
    """Partition-and-heal while traffic keeps hammering the doomed region.

    The churn schedule is the parent's (progressively cut the region's
    boundary, then heal it in reverse); the directive aims a hotspot model
    at the region's own nodes for the whole run.  As the cut tightens, an
    increasing share of the load is destined for nodes about to become
    unreachable from outside — worst case for the staleness window, and the
    honest test that delivery accounting separates *can't-route* (packets
    across the cut, excluded via ``unreachable``) from *won't-route*
    (scheme failures, which stay zero).
    """

    name = "partition-under-load"

    def __init__(self, region_fraction: float = 0.25,
                 load_fraction: float = 0.7) -> None:
        super().__init__(region_fraction=region_fraction)
        require(0.0 < load_fraction <= 1.0, "load_fraction must be in (0, 1]")
        self.load_fraction = float(load_fraction)

    def traffic_for_epoch(self, graph, epoch, num_epochs):
        if self._region is None:
            return None  # pre-plan baseline epoch: base traffic
        return TrafficDirective(
            model="hotspot",
            model_kwargs={"nodes": list(self._region),
                          "fraction": self.load_fraction})


def make_scenario(name: str, **kwargs) -> ChurnScenario:
    """Build a named scenario (``kwargs`` forwarded to its constructor)."""
    key = str(name).lower()
    if key == "flap-heavy":
        return FlapHeavyScenario(**kwargs)
    if key == "degradation":
        return DegradationScenario(**kwargs)
    if key == "partition-and-heal":
        return PartitionAndHealScenario(**kwargs)
    if key == "flash-crowd":
        return FlashCrowdScenario(**kwargs)
    if key == "hotspot-storm":
        return HotspotStormScenario(**kwargs)
    if key == "partition-under-load":
        return PartitionUnderLoadScenario(**kwargs)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
