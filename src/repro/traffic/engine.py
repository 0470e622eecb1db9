"""The sharded traffic engine: millions of packets over compiled forwarding.

This is the layer that turns the lockstep batch engine
(:func:`repro.routing.forwarding.run_lockstep`) into a traffic system.  A run
is a stream of batch-indexed packet batches from a
:class:`~repro.traffic.models.TrafficModel`; each batch is routed, its walks
verified hop-by-hop against the live graph (one CSR gather), scored against
exact shortest-path distances, and reduced into
:class:`~repro.traffic.stats.TrafficStats`.  Nothing per-packet survives a
batch — memory is O(batch + shards · digests), not O(packets).

Sharding
--------
Batches are partitioned round-robin by index: shard ``i`` of ``S`` streams
batches ``i, i + S, i + 2S, ...``.  Because traffic models regenerate any
batch from ``(seed, batch_index)`` alone, workers receive **no packet data**
— each regenerates exactly its own batches.  With ``processes=True`` the
shards run as forked worker processes sharing the parent's compiled
:class:`ForwardingProgram`, graph CSR and distance-oracle pages copy-on-write
(the program is built **once**, before the fork); each worker returns one
small :class:`TrafficStats` which the parent merges.  With
``processes=False`` the same shard partition runs sequentially in-process —
the merge path is identical, which is what the determinism suite exercises.

Every merged statistic is bit-identical for any shard count and either
engine (see ``traffic.stats``); a coverage check asserts the merged shards
streamed exactly the batch set ``0..B-1``.

This is the one code path that routes, verifies and scores packets:
:meth:`repro.routing.simulator.RoutingSimulator.evaluate` (and through it
the paper's experiment kinds) runs an explicit pair list through
:func:`run_traffic` as a :class:`~repro.traffic.models.PairTraffic` model.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import run_lockstep
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.traffic.models import TrafficModel
from repro.traffic.stats import TrafficStats
from repro.utils.validation import require

#: engine names accepted by run_traffic and the simulator
ENGINE_NAMES = ("scalar", "lockstep")

#: default packets per batch (the streaming granularity)
DEFAULT_BATCH_SIZE = 8192

#: memory budget for pinned hot-destination distance rows (bytes)
HOT_ROW_BYTES = 256 << 20

#: hard cap on pinned hot rows regardless of graph size
HOT_ROW_CAP = 4096

#: run-scoped extras inherited by forked shard workers (fork copies parent
#: memory, so anything placed here before the fork is visible in every
#: worker without widening :func:`stream_shard`'s public signature)
_RUN_CONTEXT: Dict[str, object] = {}


class InvalidRouteError(RuntimeError):
    """Raised when a scheme returns a walk that does not exist in the graph."""


def resolve_engine_spec(engine: str) -> str:
    """Validate an engine name (one of :data:`ENGINE_NAMES`) and return it."""
    require(engine in ENGINE_NAMES,
            f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    return engine


def gather_hop_costs(graph: WeightedGraph, packet_idx: np.ndarray,
                     heads: np.ndarray, tails: np.ndarray,
                     num_packets: int) -> np.ndarray:
    """Validate flattened hop arrays and accumulate per-packet walk costs.

    Both engines certify walks here: the lockstep hop arrays come out of the
    run in packet-major chronological order, and :func:`verify_scalar_walks`
    flattens materialized paths in the same order, so the accumulated sums
    are bit-identical between engines.  Self-hops (``head == tail``) are
    ignored, everything else must be a graph edge or
    :class:`InvalidRouteError` is raised.
    """
    costs = np.zeros(num_packets)
    if packet_idx.size == 0:
        return costs
    real = heads != tails
    heads, tails, packet_idx = heads[real], tails[real], packet_idx[real]
    if packet_idx.size == 0:
        return costs
    # bounds-check before the gather: CSR fancy indexing would wrap
    # negative ids onto real nodes and certify a non-existent walk
    out_of_range = ((heads < 0) | (heads >= graph.n)
                    | (tails < 0) | (tails >= graph.n))
    if out_of_range.any():
        bad = int(np.where(out_of_range)[0][0])
        raise InvalidRouteError(
            f"walk step ({heads[bad]}, {tails[bad]}) is outside the graph")
    csr = graph.to_scipy_csr()
    weights = np.asarray(csr[heads, tails]).ravel()
    missing = np.where(weights <= 0.0)[0]
    if missing.size:
        bad = int(missing[0])
        raise InvalidRouteError(
            f"walk uses non-existent edge ({heads[bad]}, {tails[bad]})")
    np.add.at(costs, packet_idx, weights)
    return costs


def verify_lockstep_walks(graph: WeightedGraph, outcome, num_packets: int,
                          destinations: np.ndarray) -> np.ndarray:
    """Validate a lockstep run's hop arrays and endpoint claims; return costs.

    Every hop must be a graph edge (:func:`gather_hop_costs`) and every
    packet claiming ``found`` must have ended at its destination.
    """
    costs = gather_hop_costs(graph, outcome.hop_index, outcome.hop_heads,
                             outcome.hop_tails, num_packets)
    bad = outcome.found & (outcome.final_nodes != destinations)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InvalidRouteError(
            f"scheme reports 'found' but walk ends at "
            f"{int(outcome.final_nodes[i])}, destination is "
            f"{int(destinations[i])}")
    return costs


def verify_scalar_walks(graph: WeightedGraph, results: Sequence[RouteResult],
                        sources: np.ndarray, destinations: np.ndarray,
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Certify materialized walks; return per-walk ``(costs, hops)``.

    The scalar engine's counterpart of :func:`verify_lockstep_walks`: each
    walk must start at its source and, when it claims ``found``, end at its
    destination, or :class:`InvalidRouteError` is raised.  The paths are
    flattened into hop arrays and every hop is certified by
    :func:`gather_hop_costs`; ``hops`` counts the non-self hops.
    """
    idx_parts: List[int] = []
    head_parts: List[int] = []
    tail_parts: List[int] = []
    for i, (result, u, v) in enumerate(zip(results, sources.tolist(),
                                           destinations.tolist())):
        path = result.path
        if not path or path[0] != u:
            raise InvalidRouteError(
                f"walk starts at {path[0] if path else None}, "
                f"expected source {u}")
        if result.found and path[-1] != v:
            raise InvalidRouteError(
                f"scheme reports 'found' but walk ends at {path[-1]}, "
                f"destination is {v}")
        for a, b in zip(path, path[1:]):
            idx_parts.append(i)
            head_parts.append(a)
            tail_parts.append(b)
    idx = np.asarray(idx_parts, dtype=np.int64)
    heads = np.asarray(head_parts, dtype=np.int64)
    tails = np.asarray(tail_parts, dtype=np.int64)
    costs = gather_hop_costs(graph, idx, heads, tails, len(results))
    hops = np.bincount(idx[heads != tails], minlength=len(results))
    return costs, hops


class _HotRowCache:
    """Pinned distance rows for the traffic model's hot destinations.

    Under skewed traffic most packets score against a small destination
    head (``model.hot_destinations()``).  This cache pins those rows as one
    contiguous ``(k, n)`` matrix, so per-batch scoring is a single fancy
    gather ``rows[rank[dst], src]`` instead of a per-source group-and-read
    through the oracle.  Distances come from :meth:`DistanceOracle.rows` —
    the exact arrays the oracle would serve, computed by the oracle or
    taken from the all-pairs matrix it kept from a shortest-path build —
    so scores are bit-identical with and without the cache.  Rows are
    capped by a memory budget; misses (and every row past the cap) fall
    back to the oracle unchanged.
    """

    __slots__ = ("rank", "rows")

    def __init__(self, oracle: DistanceOracle, pinned: np.ndarray,
                 n: int) -> None:
        self.rank = np.full(n, -1, dtype=np.int64)
        self.rank[pinned] = np.arange(pinned.size, dtype=np.int64)
        self.rows = np.ascontiguousarray(oracle.rows(pinned))

    def pair_distances(self, oracle: DistanceOracle, dst: np.ndarray,
                       src: np.ndarray) -> np.ndarray:
        """``d(dst[i], src[i])`` with hot rows served from the pinned matrix."""
        rank = self.rank[dst]
        hit = rank >= 0
        if hit.all():
            return self.rows[rank, src]
        out = np.empty(dst.size)
        out[hit] = self.rows[rank[hit], src[hit]]
        miss = ~hit
        oracle.prefetch(np.unique(dst[miss]))
        out[miss] = oracle.pair_distances(dst[miss], src[miss])
        return out


def hot_row_cache_for(oracle: DistanceOracle, hot: np.ndarray,
                      graph: WeightedGraph) -> _HotRowCache:
    """The pinned hot-row cache for ``(oracle, hot set)``, memoized per oracle.

    Epoch-structured drivers (the live timeline, scenario runners) call
    :func:`run_traffic` once per epoch with a freshly seeded model whose hot
    set usually has not moved; rebuilding the pinned ``(k, n)`` matrix every
    epoch re-gathers megabytes of rows for nothing.  The cache pins the
    first ``cap`` distinct nodes of the hottest-first ``hot`` array, where
    ``cap`` is set by :data:`HOT_ROW_BYTES` and :data:`HOT_ROW_CAP`.  It is
    memoized on the oracle itself, keyed by ``(graph.version, pinned
    nodes)``:

    * **churn invalidates** — any graph mutation bumps ``graph.version``,
      so stale distance rows can never score a post-repair epoch;
    * **hot-set migration invalidates** — a flash crowd moving the Zipf
      head (or a storm re-aiming its hotspots) changes the fingerprint, so
      rows pinned for the *old* crowd are dropped, not silently reused for
      destinations they never covered.

    After a one-block shortest-path build on this graph version the oracle
    already holds every row, so filling the cache runs no Dijkstra.
    """
    hot = np.asarray(hot, dtype=np.int64)
    _, first = np.unique(hot, return_index=True)
    cap = min(HOT_ROW_CAP, max(int(HOT_ROW_BYTES // max(8 * graph.n, 1)), 1))
    pinned = np.sort(hot[np.sort(first)[:cap]])
    key = (graph.version, pinned.tobytes())
    memo = getattr(oracle, "_traffic_hot_memo", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    oracle.prefetch(hot)
    cache = _HotRowCache(oracle, pinned, graph.n)
    oracle._traffic_hot_memo = (key, cache)
    return cache


def num_batches(packets: int, batch_size: int) -> int:
    """Number of batches a run of ``packets`` splits into."""
    require(packets > 0, "need at least one packet")
    require(batch_size > 0, "batch size must be positive")
    return int(math.ceil(packets / batch_size))


def batch_size_of(batch_index: int, packets: int, batch_size: int) -> int:
    """Size of batch ``batch_index`` (the last batch may be partial).

    Depends only on ``(packets, batch_size, batch_index)`` so every shard —
    and every shard *count* — agrees on the exact packet set.
    """
    return int(min(batch_size, packets - batch_index * batch_size))


def _tick(timings: Optional[Dict[str, float]]) -> float:
    """Stage-timer read (0.0 when profiling is off — avoids clock calls)."""
    return time.perf_counter() if timings is not None else 0.0


def _lap(timings: Optional[Dict[str, float]], stage: str, t0: float) -> None:
    """Accumulate wall seconds since ``t0`` under ``stage``."""
    if timings is not None:
        timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - t0)


def _route_batch_lockstep(program, graph: WeightedGraph, src: np.ndarray,
                          dst: np.ndarray,
                          timings: Optional[Dict[str, float]] = None,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route one batch through the lockstep engine; verify; reduce.

    Returns ``(found, costs, hops)`` — the walks themselves are dropped once
    the CSR gather has certified every hop and accumulated the true costs.
    ``timings`` accumulates per-stage seconds (``plan``/``step`` from the
    engine, ``verify`` here).
    """
    outcome = run_lockstep(program, src, dst, materialize=False,
                           timings=timings)
    t0 = _tick(timings)
    costs = verify_lockstep_walks(graph, outcome, src.size, dst)
    real = outcome.hop_heads != outcome.hop_tails
    hops = np.bincount(outcome.hop_index[real], minlength=src.size)
    _lap(timings, "verify", t0)
    return outcome.found, costs, hops


def _route_batch_scalar(scheme, graph: WeightedGraph, src: np.ndarray,
                        dst: np.ndarray,
                        timings: Optional[Dict[str, float]] = None,
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference engine: per-packet ``route()``, identical reductions."""
    t0 = _tick(timings)
    names = graph.names_view()
    results = [scheme.route(u, names[v])
               for u, v in zip(src.tolist(), dst.tolist())]
    found = np.fromiter((r.found for r in results), dtype=bool,
                        count=len(results))
    _lap(timings, "step", t0)
    t0 = _tick(timings)
    costs, hops = verify_scalar_walks(graph, results, src, dst)
    _lap(timings, "verify", t0)
    return found, costs, hops


def _route_and_score(scheme, program, oracle: DistanceOracle, engine: str,
                     src: np.ndarray, dst: np.ndarray,
                     cache: Optional[_HotRowCache] = None,
                     timings: Optional[Dict[str, float]] = None,
                     scorer=None, batch_index: int = 0):
    """Route one batch, verify it, and score it.

    The shared per-batch body of :func:`stream_shard` and
    :func:`run_traffic_exact` — one place owns the scoring rule, so the
    exact reference always certifies the same quantity the streaming engine
    reduces.  Returns ``(found, hops, finite, measured, stretch, errors)``
    where ``stretch`` is 1.0 outside the ``measured`` mask and for
    zero-distance trivial pairs, and ``errors`` is the approximate modes'
    per-batch certificate sample (``None`` under exact scoring).

    Under exact scoring (``scorer=None``) every delivered reachable packet
    is measured against an exact distance row; ``cache`` serves hot
    destination rows without touching the oracle.  A
    :mod:`repro.traffic.scoring` scorer replaces the distance-row scoring
    with its own rule (component reachability + sampled / landmark-bounded
    stretch) — delivery accounting stays exact either way.
    """
    graph = scheme.graph
    if engine == "lockstep":
        found, costs, hops = _route_batch_lockstep(program, graph, src, dst,
                                                   timings=timings)
    else:
        found, costs, hops = _route_batch_scalar(scheme, graph, src, dst,
                                                 timings=timings)
    t0 = _tick(timings)
    if scorer is not None:
        score = scorer.score(batch_index, src, dst, costs, found)
        _lap(timings, "score", t0)
        return (found, hops, score.finite, score.measured, score.stretch,
                score.error_values)
    if cache is not None:
        shortest = cache.pair_distances(oracle, dst, src)
    else:
        oracle.prefetch(np.unique(dst))
        shortest = oracle.pair_distances(dst, src)   # symmetric: dst rows reused
    finite = np.isfinite(shortest)
    measured = found & finite
    stretch = np.ones(src.size)
    np.divide(costs, shortest, out=stretch, where=measured & (shortest > 0))
    _lap(timings, "score", t0)
    return found, hops, finite, measured, stretch, None


def stream_shard(scheme: RoutingSchemeInstance, model: TrafficModel,
                 packets: int, batch_size: int = DEFAULT_BATCH_SIZE,
                 engine: str = "lockstep", shard: int = 0, shards: int = 1,
                 oracle: Optional[DistanceOracle] = None,
                 profile_out: Optional[Dict[str, float]] = None,
                 ) -> TrafficStats:
    """Stream one shard's batches (``shard, shard + shards, ...``) to stats.

    This is the worker body of the sharded driver and the whole driver when
    ``shards == 1``.  Per batch: regenerate the packets, route them, verify
    every hop, score stretch against exact distances (hot destination rows
    served from the run's pinned cache; the rest prefetched per batch), and
    fold the reductions into the stats.  ``profile_out``, when given, is
    filled with accumulated per-stage wall seconds
    (plan/step/verify/score/reduce).
    """
    graph = scheme.graph
    oracle = oracle or DistanceOracle(graph)
    engine = resolve_engine_spec(engine)
    program = scheme.compiled_forwarding() if engine == "lockstep" else None
    cache = _RUN_CONTEXT.get("hot_cache")
    scorer = _RUN_CONTEXT.get("scorer")
    timings: Optional[Dict[str, float]] = {} if profile_out is not None else None
    stats = TrafficStats(bounded=bool(getattr(scorer, "bounded", False)))
    for b in range(shard, num_batches(packets, batch_size), shards):
        size = batch_size_of(b, packets, batch_size)
        src, dst = model.batch(b, size)
        found, hops, finite, measured, stretch, errors = _route_and_score(
            scheme, program, oracle, engine, src, dst,
            cache=cache, timings=timings, scorer=scorer, batch_index=b)
        t0 = _tick(timings)
        stats.update_batch(
            b,
            stretch_values=stretch[measured],
            hop_values=hops,
            packets=size,
            delivered=int(np.count_nonzero(found)),
            failures=int(np.count_nonzero(~found & finite)),
            unreachable=int(np.count_nonzero(~finite)),
            error_values=errors,
        )
        _lap(timings, "reduce", t0)
    if profile_out is not None and timings:
        for stage, seconds in timings.items():
            profile_out[stage] = profile_out.get(stage, 0.0) + seconds
    return stats


@dataclass
class TrafficReport:
    """Outcome of one traffic run: throughput facts + streamed statistics."""

    scheme: str
    model: str
    engine: str
    packets: int
    shards: int
    batch_size: int
    processes: bool
    seconds: float
    stats: TrafficStats
    #: per-stage wall seconds (plan/step/verify/score/reduce) summed across
    #: shards; only filled when the run requested ``profile=True``
    profile: Optional[Dict[str, float]] = None
    #: stretch scoring mode ("exact" / "sampled" / "landmark")
    scoring: str = "exact"

    @property
    def pps(self) -> float:
        """End-to-end routed packets per second (including verification)."""
        return self.packets / self.seconds if self.seconds > 0 else float("inf")

    def summary(self, include_p2: bool = False) -> Dict[str, float]:
        """The streamed statistics (see :meth:`TrafficStats.summary`).

        ``include_p2`` is accepted and ignored, as on
        :meth:`TrafficStats.summary`.
        """
        return self.stats.summary()

    def as_row(self) -> Dict[str, object]:
        """Flat row for :class:`~repro.experiments.harness.ExperimentResult`.

        Field names mirror ``run_matrix`` rows where the quantities coincide
        (``avg_stretch``, ``max_stretch``, ``median_stretch``,
        ``p95_stretch``, ``failures``, ``engine``) so traffic rows drop into
        the existing reporting/table helpers unchanged.  Under a *bounding*
        scorer (landmark mode) the stretch columns instead carry the
        ``stretch_upper`` prefix — ``avg_stretch_upper``,
        ``stretch_upper_p99``, ... — plus the ``avg/max_score_error``
        certificate-slack fields, so a certified bound can never be read as
        an exact measurement.
        """
        s = self.summary()
        p = self.stats.stretch_prefix
        row: Dict[str, object] = {
            "scheme": self.scheme,
            "model": self.model,
            "engine": self.engine,
            "scoring": self.scoring,
            "packets": self.packets,
            "shards": self.shards,
            "processes": self.processes,
            "seconds": round(self.seconds, 4),
            "pps": round(self.pps, 1),
            "delivered": int(s["delivered"]),
            "failures": int(s["failures"]),
            "unreachable": int(s["unreachable"]),
        }
        if self.stats.bounded:
            row.update({
                f"avg_{p}": s[f"avg_{p}"],
                f"max_{p}": s[f"max_{p}"],
                f"{p}_p50": s[f"{p}_p50"],
                f"{p}_p95": s[f"{p}_p95"],
                f"{p}_p99": s[f"{p}_p99"],
            })
        else:
            row.update({
                "avg_stretch": s["avg_stretch"],
                "max_stretch": s["max_stretch"],
                "median_stretch": s["stretch_p50"],
                "p95_stretch": s["stretch_p95"],
                "p99_stretch": s["stretch_p99"],
            })
        for key in ("avg_score_error", "max_score_error", f"{p}_stderr"):
            if key in s:
                row[key] = s[key]
        row.update({
            "avg_hops": s["avg_hops"],
            "max_hops": s["max_hops"],
            "median_hops": s["hops_p50"],
            "p95_hops": s["hops_p95"],
        })
        return row


def processes_enabled() -> bool:
    """Whether this platform can fork worker processes."""
    if not hasattr(os, "fork"):
        return False
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork start method
        return False
    return True


def _run_sharded_processes(scheme, model, packets, batch_size, engine, shards,
                           oracle, profile: bool = False,
                           ) -> Tuple[TrafficStats, Optional[Dict[str, float]]]:
    """Fork one worker per shard; merge their stats (and stage profiles).

    The compiled program / CSR / oracle pages are shared copy-on-write with
    the parent (fork start method — no pickling of the program, ever).  A
    scheme's ``fallback_uses`` counter grows in the workers' memory, so each
    worker reports its increment and the parent adds the sum.  A worker
    failure surfaces as a raised :class:`RuntimeError` with the worker's
    traceback text.
    """
    import multiprocessing
    import queue as queue_module

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def worker(shard_id: int) -> None:
        try:
            # profile_out is forwarded only when profiling, so tests stubbing
            # stream_shard without it keep working
            prof: Optional[Dict[str, float]] = {} if profile else None
            extra = {} if prof is None else {"profile_out": prof}
            before = getattr(scheme, "fallback_uses", 0)
            stats = stream_shard(scheme, model, packets, batch_size=batch_size,
                                 engine=engine, shard=shard_id, shards=shards,
                                 oracle=oracle, **extra)
            fallbacks = getattr(scheme, "fallback_uses", 0) - before
            queue.put((shard_id, stats, None, prof, fallbacks))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            import traceback

            queue.put((shard_id, None, traceback.format_exc() or repr(exc),
                       None, 0))

    procs = [ctx.Process(target=worker, args=(shard_id,), daemon=True)
             for shard_id in range(shards)]
    for proc in procs:
        proc.start()
    per_shard: Dict[int, TrafficStats] = {}
    per_shard_prof: Dict[int, Optional[Dict[str, float]]] = {}
    failures: List[str] = []
    fallbacks = 0
    while len(per_shard) + len(failures) < shards:
        try:
            shard_id, stats, error, prof, used = queue.get(timeout=1.0)
        except queue_module.Empty:
            # a worker killed by the kernel (OOM, segfault) never reaches
            # queue.put — without this liveness check the parent would block
            # on the queue forever
            if all(proc.exitcode is not None for proc in procs):
                try:
                    shard_id, stats, error, prof, used = queue.get(timeout=2.0)  # last flush
                except queue_module.Empty:
                    exits = [(proc.pid, proc.exitcode) for proc in procs]
                    raise RuntimeError(
                        f"traffic worker(s) exited without reporting "
                        f"(pid, exitcode): {exits}") from None
            else:
                continue
        fallbacks += used
        if error is not None:
            failures.append(f"shard {shard_id}:\n{error}")
        else:
            per_shard[shard_id] = stats
            per_shard_prof[shard_id] = prof
    for proc in procs:
        proc.join()
    if fallbacks:
        scheme.fallback_uses += fallbacks
    if failures:
        raise RuntimeError("traffic worker(s) failed:\n" + "\n".join(failures))
    merged: Optional[TrafficStats] = None
    for shard_id in sorted(per_shard):
        if merged is None:
            merged = per_shard[shard_id]
        else:
            merged.merge(per_shard[shard_id])
    assert merged is not None
    merged_prof: Optional[Dict[str, float]] = None
    if profile:
        merged_prof = {}
        for shard_id in sorted(per_shard_prof):
            for stage, seconds in (per_shard_prof[shard_id] or {}).items():
                merged_prof[stage] = merged_prof.get(stage, 0.0) + seconds
    return merged, merged_prof


def run_traffic(scheme: RoutingSchemeInstance, model: TrafficModel,
                packets: int, shards: int = 1,
                batch_size: int = DEFAULT_BATCH_SIZE, engine: str = "lockstep",
                oracle: Optional[DistanceOracle] = None,
                processes: Optional[bool] = None, profile: bool = False,
                scoring: object = "exact") -> TrafficReport:
    """Route ``packets`` packets of ``model`` traffic through ``scheme``.

    Parameters
    ----------
    shards:
        Number of round-robin batch shards.  With ``processes=True`` (the
        default when ``shards > 1`` and fork is available) each shard is a
        forked worker sharing the compiled program copy-on-write; with
        ``processes=False`` the shards stream sequentially in-process —
        identical partition and merge, no concurrency (testing/debug).
    engine:
        ``"lockstep"`` / ``"scalar"`` — same meaning as the simulator's
        evaluation engines; the streamed statistics are identical under
        either engine.
    oracle:
        Shared distance oracle for exact stretch scoring (defaults to a
        fresh lazy-backend oracle).
    profile:
        Collect per-stage wall seconds (plan/step/verify/score/reduce),
        summed across shards, into ``report.profile``.
    scoring:
        Stretch scoring mode: ``"exact"`` (the default — every delivered
        packet scored against an exact distance row), ``"sampled"`` or
        ``"landmark"`` (see :mod:`repro.traffic.scoring`), or a prebuilt
        scorer instance.  The approximate modes never materialize exact
        rows beyond their seeded per-batch sample — this is what makes
        million-packet evaluation possible at n=100k — and keep the
        delivery/failure/unreachable counters exact.

    Returns a :class:`TrafficReport`; raises if any routed walk fails hop
    verification or the merged shards did not cover every batch exactly once.
    """
    require(shards >= 1, "need at least one shard")
    graph = scheme.graph
    oracle = oracle or DistanceOracle(graph)
    engine = resolve_engine_spec(engine)
    program = scheme.compiled_forwarding() if engine == "lockstep" else None
    graph.to_scipy_csr()               # warm the shared CSR cache, pre-fork
    graph.component_ids()
    if isinstance(scoring, str):
        from repro.traffic.scoring import make_scorer

        scorer = make_scorer(scoring, graph, oracle,
                             seed=getattr(model, "seed", 0))
    else:
        scorer = scoring
    scoring_mode = "exact" if scorer is None else scorer.mode
    hot = model.hot_destinations()
    hot_cache: Optional[_HotRowCache] = None
    if hot is not None and np.asarray(hot).size:
        if scorer is None:
            # fill the hot destinations' distance rows once, pre-fork: under
            # a lazy backend every shard scores against the same concentrated
            # destination set, and pages filled after the fork are per-worker
            # (copy-on-write has diverged), so a cold oracle would re-run the
            # identical Dijkstras in every worker.  Then pin the rows as one
            # contiguous matrix so hot-batch scoring is a single gather —
            # memoized per oracle and invalidated by churn (graph.version)
            # or hot-set migration (fingerprint), so epoch drivers reuse it.
            # Approximate scoring modes skip this: one exact Dijkstra per hot
            # destination is the exact cost those modes exist to avoid.
            hot_cache = hot_row_cache_for(oracle, np.asarray(hot), graph)
        if program is not None:
            # warm each sorted table's per-destination column cache on the
            # hot set pre-fork so forked shards inherit the dense columns
            # instead of building them once per worker
            for table in program.tables:
                table.batch_view(np.asarray(hot, dtype=np.int64))
    use_processes = processes if processes is not None else shards > 1
    use_processes = bool(use_processes) and shards > 1 and processes_enabled()

    prof: Optional[Dict[str, float]] = {} if profile else None
    _RUN_CONTEXT["hot_cache"] = hot_cache
    _RUN_CONTEXT["scorer"] = scorer
    start = time.perf_counter()
    try:
        if use_processes:
            stats, worker_prof = _run_sharded_processes(
                scheme, model, packets, batch_size, engine, shards, oracle,
                profile=profile)
            if prof is not None and worker_prof:
                prof.update(worker_prof)
        else:
            stats = stream_shard(scheme, model, packets, batch_size=batch_size,
                                 engine=engine, shard=0, shards=shards,
                                 oracle=oracle, profile_out=prof)
            for shard in range(1, shards):
                stats.merge(stream_shard(scheme, model, packets,
                                         batch_size=batch_size, engine=engine,
                                         shard=shard, shards=shards,
                                         oracle=oracle, profile_out=prof))
    finally:
        _RUN_CONTEXT.pop("hot_cache", None)
        _RUN_CONTEXT.pop("scorer", None)
    seconds = time.perf_counter() - start

    expected = set(range(num_batches(packets, batch_size)))
    require(stats.batches == expected,
            f"shard merge did not cover every batch exactly once "
            f"(missing {sorted(expected - stats.batches)[:4]})")
    require(stats.packets == packets, "merged packet count mismatch")
    return TrafficReport(
        scheme=scheme.scheme_name, model=model.name, engine=engine,
        packets=packets, shards=shards, batch_size=batch_size,
        processes=use_processes, seconds=seconds, stats=stats,
        profile=prof, scoring=scoring_mode)


def run_traffic_exact(scheme: RoutingSchemeInstance, model: TrafficModel,
                      packets: int, batch_size: int = DEFAULT_BATCH_SIZE,
                      engine: str = "lockstep",
                      oracle: Optional[DistanceOracle] = None) -> Dict[str, np.ndarray]:
    """Exact per-packet reference for sketch-accuracy checks (O(packets) memory).

    Routes the same batch stream as :func:`run_traffic` but **keeps** the
    per-packet stretch and hop arrays, so tests and the E16 parity stage can
    compare streamed quantiles against ground truth.  Never use this at
    traffic scale — that is the whole point of the streaming engine.
    """
    graph = scheme.graph
    oracle = oracle or DistanceOracle(graph)
    engine = resolve_engine_spec(engine)
    program = scheme.compiled_forwarding() if engine == "lockstep" else None
    stretch_parts: List[np.ndarray] = []
    hop_parts: List[np.ndarray] = []
    found_parts: List[np.ndarray] = []
    finite_parts: List[np.ndarray] = []
    for b in range(num_batches(packets, batch_size)):
        size = batch_size_of(b, packets, batch_size)
        src, dst = model.batch(b, size)
        found, hops, finite, measured, stretch, _ = _route_and_score(
            scheme, program, oracle, engine, src, dst)
        stretch_parts.append(stretch[measured])
        hop_parts.append(hops)
        found_parts.append(found)
        finite_parts.append(finite)
    return {
        "stretch": np.concatenate(stretch_parts),
        "hops": np.concatenate(hop_parts),
        "found": np.concatenate(found_parts),
        "finite": np.concatenate(finite_parts),
    }
