"""Experiment runner: schemes x graphs x k, with stretch and space measurements.

``run_matrix`` can fan the (scheme, graph, k) cells out over a thread pool
(``parallel=``): every cell of one graph shares that graph's distance oracle
(and therefore its backend's row cache), scheme construction and evaluation
are per-cell and independent, and the result rows come back in the same
deterministic order as the serial loop.

``run_traffic_matrix`` is the traffic sibling: every cell streams a seeded
traffic-model workload (uniform / Zipf / gravity / hotspot) through the
sharded engine in ``repro.traffic`` — millions of packets reduced to
streaming statistics instead of a few thousand stored walks.

``build_matrix`` is the construction sibling: it builds every (scheme, graph,
k) cell — no routing evaluation — timing preprocessing only.  Cells fan out
over worker threads and, inside each cell, the scheme's
:class:`~repro.construction.context.BuildContext` fans independent build
units (scales, cluster-tree chunks, cover exponents) over the same worker
budget.  Unit seeds always derive from unit indices, so parallel builds are
bit-identical to serial ones (asserted by ``tests/test_build_pipeline.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.construction.context import BuildContext
from repro.dynamics.scenario import make_scenario
from repro.factory import build_scheme
from repro.graphs.graph import WeightedGraph
from repro.graphs.metrics import graph_summary
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import LiveSimulator
from repro.routing.simulator import RoutingSimulator
from repro.traffic.engine import DEFAULT_BATCH_SIZE, run_traffic
from repro.traffic.models import make_traffic_model
from repro.utils.validation import require


@dataclass
class ExperimentResult:
    """A flat table of measurement rows plus free-form metadata."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **fields) -> None:
        """Append one measurement row."""
        self.rows.append(dict(fields))

    def column(self, key: str) -> List[object]:
        """Extract one column across all rows."""
        return [row.get(key) for row in self.rows]

    def filter(self, **criteria) -> List[Dict[str, object]]:
        """Rows matching all the given field values."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out


def evaluate_scheme_on_graph(
    scheme_name: str,
    graph: WeightedGraph,
    k: int,
    num_pairs: int = 150,
    seed: int = 0,
    oracle: Optional[DistanceOracle] = None,
    scheme_kwargs: Optional[dict] = None,
    engine: str = "lockstep",
) -> Dict[str, object]:
    """Build one scheme on one graph and measure stretch, space and build time."""
    oracle = oracle or DistanceOracle(graph)
    simulator = RoutingSimulator(graph, oracle=oracle)
    start = time.perf_counter()
    scheme = build_scheme(scheme_name, graph, k=k, seed=seed, oracle=oracle,
                          **(scheme_kwargs or {}))
    build_seconds = time.perf_counter() - start
    report = simulator.evaluate(scheme, num_pairs=num_pairs, seed=seed + 1,
                                engine=engine)
    row: Dict[str, object] = {
        "scheme": scheme_name,
        "engine": report.engine,
        "k": k,
        "n": graph.n,
        "m": graph.num_edges,
        "max_stretch": report.max_stretch,
        "avg_stretch": report.avg_stretch,
        "median_stretch": report.median_stretch,
        "p95_stretch": report.p95_stretch,
        "failures": report.failures,
        "max_table_bits": report.max_table_bits,
        "avg_table_bits": report.avg_table_bits,
        "max_label_bits": report.max_label_bits,
        "header_bits": report.max_header_bits,
        "build_seconds": build_seconds,
    }
    if hasattr(scheme, "fallback_uses"):
        row["fallback_uses"] = scheme.fallback_uses
    return row


def run_matrix(
    name: str,
    schemes: Sequence[str],
    graphs: Sequence[tuple],
    ks: Sequence[int],
    num_pairs: int = 150,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    parallel: Optional[int] = None,
    engine: str = "lockstep",
) -> ExperimentResult:
    """Run every (scheme, graph, k) combination.

    Parameters
    ----------
    graphs:
        Sequence of ``(graph_label, WeightedGraph)`` pairs.
    scheme_kwargs:
        Optional per-scheme extra constructor arguments.
    parallel:
        If given and > 1, fan the cells out over this many worker threads.
        Cells of the same graph share one distance oracle/backend; rows are
        returned in the same order as the serial loop and each cell keeps its
        own seed, so results are identical either way.
    engine:
        Evaluation engine per cell: ``"lockstep"`` (compiled forwarding
        tables) or ``"scalar"`` (per-pair ``route()``).  Routes and stretch
        are identical under either engine.
    """
    result = ExperimentResult(name=name)
    graphs = list(graphs)  # may be a one-shot iterable; iterated per mode below

    def run_cell(graph_label, graph, k, scheme_name, oracle, summary):
        kwargs = (scheme_kwargs or {}).get(scheme_name, {})
        row = evaluate_scheme_on_graph(
            scheme_name, graph, k, num_pairs=num_pairs, seed=seed,
            oracle=oracle, scheme_kwargs=kwargs, engine=engine)
        row["graph"] = graph_label
        row["aspect_ratio"] = summary.aspect_ratio
        return row

    if parallel and parallel > 1 and len(graphs) * len(ks) * len(schemes) > 1:
        # interleaved cells need every graph's shared oracle alive at once
        oracles = [DistanceOracle(graph) for _, graph in graphs]
        summaries = [graph_summary(graph, oracle)
                     for (_, graph), oracle in zip(graphs, oracles)]
        cells = [(label, graph, k, scheme_name, oracles[index], summaries[index])
                 for index, (label, graph) in enumerate(graphs)
                 for k in ks
                 for scheme_name in schemes]
        with ThreadPoolExecutor(max_workers=int(parallel)) as pool:
            rows = list(pool.map(lambda cell: run_cell(*cell), cells))
    else:
        # serial: scope one oracle per graph so its distance store is
        # released before the next graph starts
        rows = []
        for graph_label, graph in graphs:
            oracle = DistanceOracle(graph)
            summary = graph_summary(graph, oracle)
            for k in ks:
                for scheme_name in schemes:
                    rows.append(run_cell(graph_label, graph, k, scheme_name,
                                         oracle, summary))
    for row in rows:
        result.add_row(**row)
    return result


def run_traffic_matrix(
    name: str,
    schemes: Sequence[str],
    graphs: Sequence[tuple],
    ks: Sequence[int],
    model: str = "zipf",
    packets: int = 100_000,
    shards: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    model_kwargs: Optional[dict] = None,
    engine: str = "lockstep",
    processes: Optional[bool] = None,
    profile: bool = False,
) -> ExperimentResult:
    """Route ``packets`` packets of model traffic through every (scheme, graph, k).

    The traffic sibling of :func:`run_matrix`: instead of a few thousand
    uniformly sampled pairs evaluated with per-pair bookkeeping, each cell
    streams a seeded :mod:`repro.traffic.models` workload — millions of
    packets if asked — through :func:`repro.traffic.engine.run_traffic`,
    reducing every batch into streaming statistics (count/sum/max and
    exactly mergeable quantile histograms) so memory stays O(shards), not
    O(packets).

    Parameters
    ----------
    model:
        Traffic model name (``"uniform"``, ``"zipf"``, ``"gravity"``,
        ``"hotspot"``); ``model_kwargs`` are forwarded to its constructor.
        One model instance is built per graph with a per-graph derived seed,
        so batches are reproducible cell to cell.
    packets / shards / batch_size:
        Stream volume, round-robin shard count (``shards > 1`` forks worker
        processes that share the compiled forwarding program copy-on-write
        unless ``processes=False``), and streaming granularity.
    engine:
        ``"lockstep"`` / ``"scalar"`` — identical streamed statistics
        either way (the determinism suite asserts it).
    profile:
        Forwarded to :func:`repro.traffic.engine.run_traffic` — per-stage
        wall-time breakdown (lands in each row as ``profile_<stage>``
        columns).

    Returns an :class:`ExperimentResult` whose rows mirror :func:`run_matrix`
    field names where the quantities coincide (``avg_stretch``,
    ``max_stretch``, ``median_stretch``, ``p95_stretch``, ``failures``,
    ``engine``) plus throughput (``pps``), delivery counters and the
    hop-count quantiles.
    """
    result = ExperimentResult(name=name)
    result.metadata.update(model=model, packets=packets, shards=shards,
                           batch_size=batch_size, engine=engine)
    for graph_index, (graph_label, graph) in enumerate(graphs):
        oracle = DistanceOracle(graph)
        traffic = make_traffic_model(model, graph, seed=seed * 1000 + graph_index,
                                     **(model_kwargs or {}))
        for k in ks:
            for scheme_name in schemes:
                kwargs = (scheme_kwargs or {}).get(scheme_name, {})
                start = time.perf_counter()
                scheme = build_scheme(scheme_name, graph, k=k, seed=seed,
                                      oracle=oracle, **kwargs)
                build_seconds = time.perf_counter() - start
                report = run_traffic(scheme, traffic, packets, shards=shards,
                                     batch_size=batch_size, engine=engine,
                                     oracle=oracle, processes=processes,
                                     profile=profile)
                row = report.as_row()
                row.update(graph=graph_label, k=k, n=graph.n,
                           m=graph.num_edges,
                           build_seconds=build_seconds)
                if report.profile:
                    row.update({f"profile_{stage}": round(seconds, 4)
                                for stage, seconds in sorted(report.profile.items())})
                result.add_row(**row)
    return result


def build_matrix(
    name: str,
    schemes: Sequence[str],
    graphs: Sequence[tuple],
    ks: Sequence[int],
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    parallel: Optional[int] = None,
    keep_instances: bool = False,
) -> ExperimentResult:
    """Build every (scheme, graph, k) combination, timing construction only.

    The construction sibling of :func:`run_matrix`.  Cells of one graph share
    that graph's distance oracle; each cell builds through a
    :class:`BuildContext` carrying the ``parallel`` worker budget, so
    independent scales / cluster chunks / cover exponents inside one scheme
    fan out too.  Per-unit seeds derive from unit indices, never from
    execution order — parallel builds are bit-identical to serial ones.

    Parameters
    ----------
    graphs:
        Sequence of ``(graph_label, WeightedGraph)`` pairs.
    scheme_kwargs:
        Optional per-scheme extra constructor arguments.
    parallel:
        Worker threads for the cell fan-out and the within-cell unit fan-out
        (``None``/``0``/``1`` = fully serial).
    keep_instances:
        When true, the built scheme instances are returned in
        ``result.metadata["instances"]`` keyed by ``(graph_label, scheme, k)``.

    Returns
    -------
    ExperimentResult with one row per cell: ``build_seconds`` plus the
    instance's headline space/header facts.
    """
    result = ExperimentResult(name=name)
    graphs = list(graphs)
    instances: Dict[tuple, object] = {}
    # one worker budget: when the cells themselves fan out, each cell builds
    # serially inside (otherwise parallel cells × parallel units would spawn
    # up to parallel² threads)
    fan_cells = bool(parallel and parallel > 1
                     and len(graphs) * len(ks) * len(schemes) > 1)
    inner_parallel = None if fan_cells else parallel

    def build_cell(cell):
        graph_label, graph, k, scheme_name, oracle = cell
        kwargs = dict((scheme_kwargs or {}).get(scheme_name, {}))
        context = BuildContext(graph, oracle=oracle, parallel=inner_parallel)
        start = time.perf_counter()
        scheme = build_scheme(scheme_name, graph, k=k, seed=seed, oracle=oracle,
                              context=context, **kwargs)
        build_seconds = time.perf_counter() - start
        row = {
            "graph": graph_label,
            "scheme": scheme_name,
            "k": k,
            "n": graph.n,
            "m": graph.num_edges,
            "build_seconds": build_seconds,
            "max_table_bits": scheme.max_table_bits(),
            "avg_table_bits": scheme.avg_table_bits(),
            "header_bits": scheme.header_bits(),
        }
        return row, scheme

    oracles = {id(graph): DistanceOracle(graph) for _, graph in graphs}
    cells = [(label, graph, k, scheme_name, oracles[id(graph)])
             for label, graph in graphs
             for k in ks
             for scheme_name in schemes]
    if fan_cells:
        with ThreadPoolExecutor(max_workers=int(parallel)) as pool:
            built = list(pool.map(build_cell, cells))
    else:
        built = [build_cell(cell) for cell in cells]
    for cell, (row, scheme) in zip(cells, built):
        result.add_row(**row)
        if keep_instances:
            instances[(cell[0], cell[3], cell[2])] = scheme
    if keep_instances:
        result.metadata["instances"] = instances
    return result


def run_live_matrix(
    name: str,
    schemes: Sequence[str],
    graph_factory,
    scenario: str = "flap-heavy",
    k: int = 2,
    epochs: int = 5,
    epoch_packets: int = 100_000,
    stale_packets: int = 4096,
    model: str = "zipf",
    batch_size: int = DEFAULT_BATCH_SIZE,
    shards: int = 1,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    model_kwargs: Optional[dict] = None,
    scenario_kwargs: Optional[dict] = None,
    engine: str = "lockstep",
    processes: Optional[bool] = None,
    scoring: str = "exact",
    sample_per_batch: int = 8,
    num_landmarks: int = 16,
    verify_determinism: bool = False,
) -> ExperimentResult:
    """Run the live-network timeline for every scheme; one row per epoch.

    The live sibling of :func:`run_traffic_matrix`: each scheme gets its own
    fresh copy of the graph (``graph_factory()`` — churn mutates it in
    place), its own fresh scenario instance made from the *name*
    ``scenario`` (scenario objects are stateful, so an object is rejected;
    ``scenario_kwargs`` are forwarded to the named scenario's constructor),
    and the *same* ``seed`` — so every scheme sees
    the identical event sequence, staleness-window probes and traffic
    batches, and the per-epoch rows are directly comparable across schemes.

    Rows carry the union of :meth:`repro.live.EpochRecord.as_row` fields:
    the epoch number, churn/repair accounting (``events``,
    ``repair_strategy``, ``repair_seconds``, ``recompile_seconds``),
    staleness-window loss (``stale_delivery``, ``stale_loss``), the SLA
    delivery rate and the traffic engine's streamed delivery/stretch/hop
    statistics.  Timeline-level summaries (exact cross-epoch merges plus
    worst-epoch figures) land in ``result.metadata["timelines"]``.
    """
    require(isinstance(scenario, str),
            f"scenario must be a scenario name, got {type(scenario).__name__}")
    result = ExperimentResult(name=name)
    result.metadata.update(scenario=scenario, model=model, k=k,
                           epochs=epochs, epoch_packets=epoch_packets,
                           stale_packets=stale_packets, seed=seed,
                           engine=engine, scoring=scoring)
    timelines: Dict[str, dict] = {}
    for scheme_name in schemes:
        graph = graph_factory()
        oracle = DistanceOracle(graph)
        kwargs = (scheme_kwargs or {}).get(scheme_name, {})
        start = time.perf_counter()
        scheme = build_scheme(scheme_name, graph, k=k, seed=seed,
                              oracle=oracle, **kwargs)
        build_seconds = time.perf_counter() - start
        # a fresh scenario per scheme: scenario objects carry plan state
        # (partition regions, flap schedules), so sharing one across
        # timelines would leak one scheme's plan into the next
        simulator = LiveSimulator(
            scheme, make_scenario(scenario, **(scenario_kwargs or {})),
            oracle=oracle, model=model,
            model_kwargs=model_kwargs, epochs=epochs,
            epoch_packets=epoch_packets, batch_size=batch_size,
            stale_packets=stale_packets, shards=shards,
            processes=processes, engine=engine, scoring=scoring,
            sample_per_batch=sample_per_batch, num_landmarks=num_landmarks,
            seed=seed, verify_determinism=verify_determinism)
        timeline = simulator.run()
        for row in timeline.rows():
            row.update(scenario=timeline.scenario, n=graph.n, k=k,
                       build_seconds=round(build_seconds, 4))
            result.add_row(**row)
        timelines[scheme_name] = timeline.summary()
    result.metadata["timelines"] = timelines
    return result
