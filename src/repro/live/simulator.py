"""One clock for traffic and churn: the live-network timeline.

:class:`LiveSimulator` owns a single seeded timeline over one scheme:

* **Epoch 0** is the pre-churn baseline — one traffic epoch through the
  streaming engine, nothing else.
* **Every later epoch** replays the live-network cycle: capture the
  compiled forwarding program (the tables routers are *actually* holding),
  apply the scenario's churn batch to the graph, route a probe batch on the
  **stale** program over the mutated graph (the staleness window — packets
  in flight between failure and repair), repair the scheme
  (``maintain(delta)``, priced by its
  :class:`~repro.dynamics.repair.RepairReport`), recompile forwarding, and
  run the epoch's traffic through :func:`~repro.traffic.engine.run_traffic`.

Staleness-window accounting: a window packet is **delivered** iff the stale
walk claims ``found``, actually ends at the destination, and every non-self
hop traverses an edge that still exists in the mutated graph; everything
else — including walks over failed links — is window loss.  The probe
traffic is drawn from a model built *before* the event batch, so pairs that
churn just disconnected are sampled with their pre-churn likelihood
(exactly the packets that were in flight).

SLA delivery rate: ``delivered / (packets - unreachable)``.  Packets whose
destination is in another component can be delivered by no scheme — they
are reported separately (``unreachable``) and excluded from the SLA
denominator, so "delivery back at 100% within one epoch of repair" is a
statement about the scheme, not about the scenario's partition schedule.

Every per-epoch statistic is mergeable and partition-independent (PR 5's
stats layer); ``verify_determinism=True`` re-runs each epoch's traffic
across a different shard split and through the scalar ``route()`` reference
engine and requires the official summaries to be **bit-identical** — the
claim the E19 bench commits to.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.dynamics.events import apply_events
from repro.dynamics.scenario import (
    STRUCTURE_KEY_NS,
    ChurnScenario,
    TrafficDirective,
    make_scenario,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import ForwardingProgram, run_lockstep
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.traffic.engine import (
    DEFAULT_BATCH_SIZE,
    TrafficReport,
    num_batches,
    run_traffic,
)
from repro.traffic.models import make_traffic_model
from repro.traffic.scoring import make_scorer
from repro.traffic.stats import TrafficStats
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import require

#: seed-derivation namespaces (disjoint from the traffic/scoring keys)
_EVENT_KEY = 9101
_MODEL_KEY = 9102
_STALE_KEY = 9103


def stale_window_outcome(graph: WeightedGraph, outcome, num_packets: int,
                         destinations: np.ndarray) -> np.ndarray:
    """Per-packet delivery of a stale-program run over a mutated graph.

    The tolerant sibling of
    :func:`repro.traffic.engine.gather_hop_costs`: a hop over a
    now-missing edge is not a scheme bug here — it is a packet dying at a
    failed link — so instead of raising, every packet whose walk uses a
    dead or out-of-range hop is marked undelivered.  A packet is delivered
    iff it claims ``found``, its walk ends at its destination, and every
    non-self hop is alive in ``graph``.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    delivered = outcome.found & (outcome.final_nodes == destinations)
    heads = outcome.hop_heads
    tails = outcome.hop_tails
    packet_idx = outcome.hop_index
    real = heads != tails
    heads, tails, packet_idx = heads[real], tails[real], packet_idx[real]
    if packet_idx.size == 0:
        return delivered
    alive = np.zeros(heads.size, dtype=bool)
    in_range = ((heads >= 0) & (heads < graph.n)
                & (tails >= 0) & (tails < graph.n))
    if in_range.any() and graph.num_edges:
        csr = graph.to_scipy_csr()
        weights = np.asarray(csr[heads[in_range], tails[in_range]]).ravel()
        alive[in_range] = weights > 0.0
    dead_packets = np.unique(packet_idx[~alive])
    delivered[dead_packets] = False
    return delivered


@dataclass
class EpochRecord:
    """One epoch of the timeline: window loss, repair price, traffic SLA."""

    epoch: int
    events: int
    stale_packets: int
    stale_delivered: int
    repair_strategy: str
    repair_seconds: float
    recompile_seconds: float
    report: TrafficReport
    #: True when this epoch's official stats were re-derived under a
    #: different shard split and through the scalar reference engine and
    #: matched bit for bit
    determinism_checked: bool = False

    @property
    def stale_delivery_rate(self) -> float:
        """Delivered fraction of the staleness-window probe packets."""
        if self.stale_packets == 0:
            return 1.0
        return self.stale_delivered / self.stale_packets

    @property
    def stale_loss_rate(self) -> float:
        """Window packet loss: ``1 - stale_delivery_rate``."""
        return 1.0 - self.stale_delivery_rate

    @property
    def delivery_rate(self) -> float:
        """SLA delivery: delivered / (packets - unreachable), post-repair."""
        stats = self.report.stats
        eligible = stats.packets - stats.unreachable
        return stats.delivered / eligible if eligible else 1.0

    def as_row(self) -> Dict[str, object]:
        """Flat row for the experiment harness (one row per epoch)."""
        row: Dict[str, object] = {
            "epoch": self.epoch,
            "events": self.events,
            "stale_packets": self.stale_packets,
            "stale_delivered": self.stale_delivered,
            "stale_delivery": self.stale_delivery_rate,
            "stale_loss": self.stale_loss_rate,
            "repair_strategy": self.repair_strategy,
            "repair_seconds": round(self.repair_seconds, 4),
            "recompile_seconds": round(self.recompile_seconds, 4),
            "delivery_rate": self.delivery_rate,
            "determinism_checked": self.determinism_checked,
        }
        row.update(self.report.as_row())
        return row


@dataclass
class LiveTimeline:
    """A full timeline run: per-epoch records plus exact cross-epoch merges."""

    scheme: str
    scenario: str
    model: str
    seed: SeedLike
    epochs: List[EpochRecord] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [record.as_row() for record in self.epochs]

    def merged_stats(self) -> TrafficStats:
        """All epochs' traffic statistics merged into one exact stream.

        Each epoch numbered its batches from zero; shifting every epoch's
        batch keys past its predecessors' makes the index sets disjoint, so
        the merge keeps the stats layer's exactness guarantees (the records'
        own per-epoch stats are left untouched — merging works on copies).
        """
        merged = TrafficStats()
        offset = 0
        for record in self.epochs:
            shard = copy.deepcopy(record.report.stats)
            shard.shift_batches(offset)
            offset += num_batches(record.report.packets,
                                  record.report.batch_size)
            merged.merge(shard)
        return merged

    def summary(self) -> Dict[str, object]:
        """Timeline-level SLA headline: merged stats + worst-epoch figures."""
        out: Dict[str, object] = dict(self.merged_stats().summary())
        post_repair = [r for r in self.epochs if r.epoch > 0]
        out.update({
            "epochs": len(self.epochs),
            "min_delivery_rate": min((r.delivery_rate for r in self.epochs),
                                     default=1.0),
            "max_stale_loss": max((r.stale_loss_rate for r in post_repair),
                                  default=0.0),
            "total_repair_seconds": sum(r.repair_seconds
                                        for r in post_repair),
            "total_recompile_seconds": sum(r.recompile_seconds
                                           for r in post_repair),
        })
        return out


def _summaries_identical(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Exact dict equality where NaN == NaN (empty-stream fields)."""
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, float) and isinstance(y, float) \
                and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


class LiveSimulator:
    """Drive one scheme through a seeded churn+traffic timeline.

    Parameters
    ----------
    scheme:
        A built routing scheme; mutated in place by repair, exactly like a
        long-running router process.
    scenario:
        A scenario name (see :data:`repro.dynamics.scenario.SCENARIO_NAMES`)
        or a fresh :class:`ChurnScenario` object (scenarios are stateful —
        never share one across simulators).
    model / model_kwargs:
        Traffic model family; a fresh model is instantiated per epoch with
        a seed derived from ``(seed, epoch)``, so epoch streams are
        independent and each epoch's pair eligibility reflects the graph
        it actually routes on.
    stale_packets:
        Probe packets routed on the stale program inside each staleness
        window (0 disables the window measurement).
    scoring:
        ``"exact"`` / ``"sampled"`` / ``"landmark"``; approximate scorers
        are rebuilt per epoch (their landmark rows snapshot the graph).
    repair:
        Only ``"maintain"``: every scheme repairs through its own
        ``maintain(delta)``, a full rebuild unless the batch changed nothing.
    verify_determinism:
        Re-run every epoch's traffic under a different shard split and
        through the scalar ``route()`` reference engine, requiring
        bit-identical official summaries (this re-routes each epoch twice
        more — honest but not free).
    """

    def __init__(self, scheme: RoutingSchemeInstance,
                 scenario: Union[str, ChurnScenario],
                 *,
                 oracle: Optional[DistanceOracle] = None,
                 model: str = "zipf",
                 model_kwargs: Optional[dict] = None,
                 epochs: int = 5,
                 epoch_packets: int = 100_000,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 stale_packets: int = 4096,
                 shards: int = 1,
                 processes: Optional[bool] = None,
                 engine: str = "lockstep",
                 scoring: str = "exact",
                 sample_per_batch: int = 8,
                 num_landmarks: int = 16,
                 repair: str = "maintain",
                 seed: SeedLike = 0,
                 verify_determinism: bool = False) -> None:
        require(epochs >= 1, "need at least one churn epoch")
        require(epoch_packets >= 1, "need at least one packet per epoch")
        require(stale_packets >= 0, "stale_packets must be non-negative")
        require(repair == "maintain",
                f"repair must be 'maintain', got {repair!r}")
        self.scheme = scheme
        self.graph: WeightedGraph = scheme.graph
        self.oracle = oracle or DistanceOracle(self.graph)
        self.scenario = make_scenario(scenario) \
            if isinstance(scenario, str) else scenario
        self.model_name = model
        self.model_kwargs = dict(model_kwargs or {})
        self.epochs = int(epochs)
        self.epoch_packets = int(epoch_packets)
        self.batch_size = int(batch_size)
        self.stale_packets = int(stale_packets)
        self.shards = int(shards)
        self.processes = processes
        self.engine = engine
        self.scoring = scoring
        self.sample_per_batch = int(sample_per_batch)
        self.num_landmarks = int(num_landmarks)
        self.seed = seed
        self.verify_determinism = bool(verify_determinism)
        self._event_rng = derive_rng(seed, _EVENT_KEY)

    # -- seed plumbing ---------------------------------------------------- #
    def _derived_seed(self, key: int, epoch: int) -> int:
        return int(derive_rng(self.seed, key, epoch).integers(0, 2**31 - 1))

    def _make_model(self, seed: int, epoch: int):
        """Build the traffic model for ``epoch``, honouring the scenario.

        Adversarial scenarios steer traffic through
        :class:`~repro.dynamics.scenario.TrafficDirective`: the directive
        may swap the model family for the epoch (a storm turning zipf
        traffic into targeted hotspot load), merge extra model kwargs
        (explicit victim nodes), and pin the model's *structure seed* via
        ``structure_key`` — epochs sharing a key share a hot set even
        though their packet streams are re-seeded per epoch, and a key
        change migrates the hot set (invalidating the pinned hot-row
        scoring cache through its fingerprint).
        """
        directive: Optional[TrafficDirective] = None
        if epoch >= 0:
            directive = self.scenario.traffic_for_epoch(
                self.graph, epoch, self.epochs)
        name = self.model_name
        kwargs = dict(self.model_kwargs)
        if directive is not None:
            if directive.model is not None and directive.model != name:
                # a family swap abandons the base kwargs too — they belong
                # to the base family (a zipf `support` means nothing to the
                # storm's hotspot model)
                name = directive.model
                kwargs = {}
            kwargs.update(directive.model_kwargs)
            if directive.structure_key is not None:
                kwargs["structure_seed"] = int(derive_rng(
                    self.seed, STRUCTURE_KEY_NS,
                    directive.structure_key).integers(0, 2**31 - 1))
        return make_traffic_model(name, self.graph, seed=seed, **kwargs)

    # -- timeline --------------------------------------------------------- #
    def run(self) -> LiveTimeline:
        """Execute the full timeline and return its per-epoch records."""
        timeline = LiveTimeline(scheme=self.scheme.scheme_name,
                                scenario=self.scenario.name,
                                model=self.model_name, seed=self.seed)
        # epoch 0: pre-churn baseline traffic epoch
        report, checked = self._run_epoch_traffic(0)
        timeline.epochs.append(EpochRecord(
            epoch=0, events=0, stale_packets=0, stale_delivered=0,
            repair_strategy="baseline", repair_seconds=0.0,
            recompile_seconds=0.0, report=report,
            determinism_checked=checked))

        for epoch in range(1, self.epochs + 1):
            # the program routers hold when the failure hits — captured
            # before the events so the window routes on genuinely stale state
            stale_program = self.scheme.compiled_forwarding()
            # the probe model is built pre-churn too: its pair eligibility
            # must reflect the traffic that was already in flight — which
            # belongs to the *previous* epoch's regime, so the directive
            # consulted is epoch - 1's (a storm starting this epoch must
            # not retroactively shape the packets already in the air)
            stale_model = self._make_model(
                self._derived_seed(_STALE_KEY, epoch), epoch - 1)
            events = self.scenario.events_for_epoch(
                self.graph, epoch, self.epochs, self._event_rng)
            delta = apply_events(self.graph, events)

            stale_delivered = self._stale_window(stale_program, stale_model)

            repair_report = self.scheme.maintain(delta)
            start = time.perf_counter()
            self.scheme.compiled_forwarding()
            recompile_seconds = time.perf_counter() - start

            report, checked = self._run_epoch_traffic(epoch)
            timeline.epochs.append(EpochRecord(
                epoch=epoch, events=len(events),
                stale_packets=self.stale_packets,
                stale_delivered=stale_delivered,
                repair_strategy=repair_report.strategy,
                repair_seconds=repair_report.seconds,
                recompile_seconds=recompile_seconds, report=report,
                determinism_checked=checked))
        return timeline

    # -- staleness window -------------------------------------------------- #
    def _stale_window(self, program: ForwardingProgram, model) -> int:
        """Route the window probe on the stale program; count deliveries."""
        if self.stale_packets == 0:
            return 0
        src, dst = model.batch(0, self.stale_packets)
        outcome = run_lockstep(program, src, dst, materialize=False)
        delivered = stale_window_outcome(self.graph, outcome, src.size, dst)
        return int(np.count_nonzero(delivered))

    # -- traffic epochs ---------------------------------------------------- #
    def _traffic_once(self, model, scorer, *, shards: int,
                      processes: Optional[bool],
                      engine: Optional[str] = None) -> TrafficReport:
        return run_traffic(
            self.scheme, model, self.epoch_packets, shards=shards,
            batch_size=self.batch_size, engine=engine or self.engine,
            oracle=self.oracle, processes=processes,
            scoring=scorer if scorer is not None else "exact")

    def _run_epoch_traffic(self, epoch: int):
        model = self._make_model(self._derived_seed(_MODEL_KEY, epoch), epoch)
        # approximate scorers snapshot graph state (landmark rows,
        # component ids) — always rebuild on the post-repair graph
        scorer = make_scorer(self.scoring, self.graph, self.oracle,
                             seed=model.seed,
                             sample_per_batch=self.sample_per_batch,
                             num_landmarks=self.num_landmarks)
        report = self._traffic_once(model, scorer, shards=self.shards,
                                    processes=self.processes)
        checked = False
        if self.verify_determinism:
            self._cross_check(epoch, model, scorer, report)
            checked = True
        return report, checked

    def _cross_check(self, epoch: int, model, scorer,
                     report: TrafficReport) -> None:
        """Re-derive the epoch summary two independent ways; require identity.

        (a) a different shard split, in process — partition independence;
        (b) the scalar ``route()`` reference engine — the compiled program
        and its kernels agree with the protocol.  Scoring is pure in
        ``(seed, batch_index)``, so the scorer can be reused.
        """
        official = report.summary()
        other_shards = 2 if self.shards == 1 else 1
        resharded = self._traffic_once(model, scorer, shards=other_shards,
                                       processes=False)
        require(_summaries_identical(official, resharded.summary()),
                f"epoch {epoch}: official stats changed across shard counts")
        scalar = self._traffic_once(model, scorer, shards=1, processes=False,
                                    engine="scalar")
        require(_summaries_identical(official, scalar.summary()),
                f"epoch {epoch}: official stats changed under the scalar "
                "reference engine")
