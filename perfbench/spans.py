"""Per-layer spans recorded from outside the library, for the traced run.

:func:`install` wraps the library's public entry points where their callers
look them up -- constructors and methods at class level, module functions
on the module that calls them -- so nothing under ``src/`` changes.  Each
wrapper records a span in memory: its name, start and end, the span open
when it started (its parent), and the repetition, churn epoch and traffic
batch it belongs to.  :func:`layer_metrics` derives the per-layer metrics
from one repetition's spans after it has ended; a layer's self time is its
spans' duration minus that of their direct children.

Two residuals make the layers add up to the measured phases:
``core.scheme.self_s`` is the AGM build minus its wrapped sub-builds
(landmark hierarchy, fallback dictionaries, base tables), and
``traffic.other.s`` is the traffic engine's timed seconds minus its five
profiled stages and batch generation.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

import numpy as np

#: the traffic engine's ``profile=True`` stages and their layer metrics
PROFILE_STAGES = {"plan": "routing.plan.s", "step": "routing.step.s",
                  "verify": "traffic.verify.s", "score": "traffic.score.s",
                  "reduce": "traffic.reduce.s"}

#: AGM levels whose found-at shares are reported (``k + 1 <= 4`` here)
LEVELS = (1, 2, 3, 4)

#: unit of every metric :func:`layer_metrics` derives, in report order
UNITS = {
    "core.scheme.s": "s",
    "core.scheme.self_s": "s",
    "core.decomposition.s": "s",
    "core.sparse_strategy.s": "s",
    "core.sparse_strategy.self_s": "s",
    "core.sparse_strategy.rss_mb": "MiB",
    "core.dense_strategy.s": "s",
    "covers.tree_cover.s": "s",
    "construction.spt_trees.s": "s",
    "construction.spt_trees.trees": "count",
    "construction.ball_csr.s": "s",
    "core.resident_over_accounted": "ratio",
    "routing.compile.s": "s",
    "routing.compile.tree_slots": "count",
    "baselines.shortest_path.build.s": "s",
    "traffic.run.s": "s",
    "routing.plan.s": "s",
    "routing.plan.us_per_packet": "us",
    "routing.step.s": "s",
    "traffic.verify.s": "s",
    "traffic.score.s": "s",
    "traffic.reduce.s": "s",
    "traffic.batch_gen.s": "s",
    "traffic.other.s": "s",
    "traffic.hot_rows.s": "s",
    "routing.hops_per_packet": "hops",
    **{f"core.found_level.{level}_share": "fraction" for level in LEVELS},
    "core.strategy.sparse_share": "fraction",
    "core.strategy.dense_share": "fraction",
    "core.strategy.fallback_share": "fraction",
    "graphs.oracle.row_misses": "count",
    "graphs.oracle.hit_ratio": "fraction",
    "storage.rowstore.spills": "count",
    "storage.rowstore.restores": "count",
    "graphs.oracle.pair_distances.s": "s",
    "dynamics.repair.s": "s",
    "dynamics.repair.reported_s": "s",
    "dynamics.repair.unreported_s": "s",
    "dynamics.repair.incremental_share": "fraction",
    "dynamics.repair.dirty_destinations": "count",
    "dynamics.apply_events.s": "s",
    "live.stale_window.s": "s",
    "live.stale_loss_frac": "fraction",
    "live.recompile.s": "s",
}


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Span recorder for one repetition, kept in memory until it ends."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.epoch = 0
        self.batch = -1
        self.spans: List[dict] = []
        self._open: List[int] = []
        #: routed packets per ``LockstepOutcome.phases`` value (found level)
        self.levels: Counter = Counter()
        #: routed packets per strategy name
        self.strategies: Counter = Counter()

    def _start(self, name: str, start: float, attrs: dict) -> dict:
        span = {"name": name, "start": start, "end": start,
                "parent": self._open[-1] if self._open else None,
                "run": self.run, "epoch": self.epoch, "batch": self.batch,
                "attrs": attrs}
        self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a span the caller timed itself."""
        self._start(name, start, attrs)["end"] = end

    def wrapper(self, fn: Callable, name: str, before=None, after=None,
                rss: bool = False) -> Callable:
        """``fn``, recording a ``name`` span around every call.

        ``before(args, kwargs)`` runs ahead of the span and may edit
        ``kwargs``; ``after(span, result)`` runs once the span has ended;
        ``rss`` adds the resident set size at both ends to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            attrs = {"rss_before_mb": current_rss_mb()} if rss else {}
            span = tracer._start(name, time.perf_counter(), attrs)
            tracer._open.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._open.pop()
            if rss:
                attrs["rss_after_mb"] = current_rss_mb()
            if after is not None:
                after(span, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        setattr(owner, attr, self.wrapper(getattr(owner, attr), name, **options))

    def count_outcome(self, span: dict, outcome) -> None:
        """Fold one batch's ``LockstepOutcome`` into the paper's observables."""
        levels, counts = np.unique(outcome.phases, return_counts=True)
        self.levels.update(dict(zip(levels.tolist(), counts.tolist())))
        codes, counts = np.unique(outcome.strategy_codes, return_counts=True)
        names = outcome.strategy_names
        self.strategies.update({(names[c] if c >= 0 else "none"): count
                                for c, count in zip(codes.tolist(),
                                                    counts.tolist())})


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point for ``tracer``, in this process only."""
    from repro.baselines.shortest_path import ShortestPathRouting
    from repro.construction.context import BuildContext
    from repro.core import dense_strategy
    from repro.core.decomposition import NeighborhoodDecomposition
    from repro.core.scheme import AGMRoutingScheme
    from repro.core.sparse_strategy import SparseStrategy
    from repro.graphs.shortest_paths import DistanceOracle
    from repro.live import simulator
    from repro.traffic import engine
    from repro.traffic.models import TrafficModel

    def next_epoch(args, kwargs) -> None:
        tracer.epoch += 1

    def set_batch(args, kwargs) -> None:
        tracer.batch = int(args[1] if len(args) > 1 else kwargs["batch_index"])

    def profile_on(args, kwargs) -> None:
        kwargs["profile"] = True

    def traffic_done(span, report) -> None:
        span["attrs"].update(seconds=report.seconds, packets=report.packets,
                             profile=dict(report.profile or {}))
        tracer.batch = -1

    def count_trees(span, trees) -> None:
        span["attrs"]["trees"] = len(trees)

    wrap = tracer.wrap
    wrap(AGMRoutingScheme, "__init__", "core.scheme", rss=True)
    wrap(NeighborhoodDecomposition, "__init__", "core.decomposition")
    wrap(SparseStrategy, "__init__", "core.sparse_strategy", rss=True)
    wrap(dense_strategy.DenseStrategy, "__init__", "core.dense_strategy")
    wrap(dense_strategy, "build_tree_cover", "covers.tree_cover")
    wrap(BuildContext, "spt_trees", "construction.spt_trees",
         after=count_trees)
    wrap(BuildContext, "ball_csr", "construction.ball_csr")
    wrap(ShortestPathRouting, "__init__", "baselines.shortest_path.build")
    wrap(DistanceOracle, "pair_distances", "graphs.oracle.pair_distances")
    wrap(TrafficModel, "batch", "traffic.batch_gen", before=set_batch)
    wrap(engine, "hot_row_cache_for", "traffic.hot_rows")
    wrap(engine, "run_lockstep", "routing.lockstep",
         after=tracer.count_outcome)
    run_traffic = tracer.wrapper(engine.run_traffic, "traffic.run",
                                 before=profile_on, after=traffic_done)
    engine.run_traffic = simulator.run_traffic = run_traffic
    wrap(simulator, "apply_events", "dynamics.apply_events", before=next_epoch)
    wrap(simulator, "run_lockstep", "live.stale_window")
    wrap(simulator, "stale_window_outcome", "live.stale_window")


def layer_metrics(tracer: Tracer, rep: dict) -> Dict[str, dict]:
    """Per-layer metrics of one finished repetition (``rep``: its result)."""
    spans = tracer.spans
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, child_time):
        total[span["name"]] += span["end"] - span["start"]
        own[span["name"]] += span["end"] - span["start"] - children

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0.0) for s in spans if s["name"] == name)

    def grown(name: str) -> float:
        return attr_sum(name, "rss_after_mb") - attr_sum(name, "rss_before_mb")

    def inside_traffic(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == "traffic.run":
                return True
            parent = spans[parent]["parent"]
        return False

    profile: Counter = Counter()
    for span in spans:
        if span["name"] == "traffic.run":
            profile.update(span["attrs"]["profile"])
    traffic_s = attr_sum("traffic.run", "seconds")
    packets = attr_sum("traffic.run", "packets")
    batch_gen = sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "traffic.batch_gen" and inside_traffic(s))
    routed = sum(tracer.levels.values())
    repairs = rep["repairs"]
    repair_s = sum(r["wall_s"] for r in repairs)
    reported_s = sum(r["reported_s"] for r in repairs)
    cache = rep["row_cache"]
    lookups = cache["hits"] + cache["misses"]
    outputs = rep["outputs"]
    sent = outputs.get("stale_sent", 0)
    accounted_mb = rep["total_bits"] / 8 / 2**20

    values = {
        "core.scheme.s": total["core.scheme"],
        "core.scheme.self_s": own["core.scheme"],
        "core.decomposition.s": total["core.decomposition"],
        "core.sparse_strategy.s": total["core.sparse_strategy"],
        "core.sparse_strategy.self_s": own["core.sparse_strategy"],
        "core.sparse_strategy.rss_mb": grown("core.sparse_strategy"),
        "core.dense_strategy.s": total["core.dense_strategy"],
        "covers.tree_cover.s": total["covers.tree_cover"],
        "construction.spt_trees.s": total["construction.spt_trees"],
        "construction.spt_trees.trees": attr_sum("construction.spt_trees",
                                                 "trees"),
        "construction.ball_csr.s": total["construction.ball_csr"],
        "core.resident_over_accounted": grown("core.scheme") / accounted_mb
        if total["core.scheme"] and accounted_mb else 0.0,
        "routing.compile.s": total["routing.compile"],
        "routing.compile.tree_slots": attr_sum("routing.compile",
                                               "tree_slots"),
        "baselines.shortest_path.build.s":
            total["baselines.shortest_path.build"],
        "traffic.run.s": traffic_s,
        **{metric: profile[stage] for stage, metric in PROFILE_STAGES.items()},
        "routing.plan.us_per_packet": 1e6 * profile["plan"] / packets,
        "traffic.batch_gen.s": batch_gen,
        "traffic.other.s": traffic_s - batch_gen
        - sum(profile[stage] for stage in PROFILE_STAGES),
        "traffic.hot_rows.s": total["traffic.hot_rows"],
        "routing.hops_per_packet": outputs["summary"]["avg_hops"],
        **{f"core.found_level.{level}_share": tracer.levels[level] / routed
           for level in LEVELS},
        **{f"core.strategy.{name}_share": tracer.strategies[name] / routed
           for name in ("sparse", "dense", "fallback")},
        "graphs.oracle.row_misses": cache["misses"],
        "graphs.oracle.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "storage.rowstore.spills": cache["row_spills"],
        "storage.rowstore.restores": cache["row_restores"],
        "graphs.oracle.pair_distances.s":
            total["graphs.oracle.pair_distances"],
        "dynamics.repair.s": repair_s,
        "dynamics.repair.reported_s": reported_s,
        "dynamics.repair.unreported_s": repair_s - reported_s,
        "dynamics.repair.incremental_share":
            sum(r["strategy"] == "incremental" for r in repairs) / len(repairs)
            if repairs else 0.0,
        "dynamics.repair.dirty_destinations":
            sum(r["dirty_destinations"] for r in repairs),
        "dynamics.apply_events.s": total["dynamics.apply_events"],
        "live.stale_window.s": total["live.stale_window"],
        "live.stale_loss_frac":
            (sent - outputs["stale_delivered"]) / sent if sent else 0.0,
        "live.recompile.s": rep["recompile_s"],
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in UNITS.items()}
