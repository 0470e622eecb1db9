"""The experiment bodies the matrix runner can execute, keyed by kind name.

The paper's experiments are kinds here, one function each: ``tradeoff``
(E1), ``comparison`` (E2), ``scale-free`` (E3), ``stretch-growth`` (E4),
``lemma-properties`` (E5/E6) and ``ablation`` (E12).  The pair-sampled ones
score through :meth:`~repro.routing.simulator.RoutingSimulator.evaluate`,
that is through :func:`repro.traffic.engine.run_traffic`, like every
traffic run.  Three general kinds join them:

``grid``
    schemes x graphs x k through :func:`repro.experiments.harness.run_matrix`
    — pair-sampled stretch/space measurement on any graph source, including
    the pinned real-topology snapshots.
``traffic``
    The same grid streamed under a seeded traffic model
    (:func:`run_traffic_matrix`) with a packet budget.
``live``
    The live-network timeline (:func:`run_live_matrix`): churn scenario +
    traffic model + repair on one clock, one row per epoch — the kind the
    adversarial scenario configs (flash crowd, hotspot storm,
    partition-under-load) run through.

Every kind has the same shape: ``fn(quick=..., seed=..., **params) ->
ExperimentResult``.  ``params`` arrive straight from a config file, so the
helpers below also translate the JSON-friendly spellings — graph sources,
``{"quick": a, "full": b}`` size pairs, ``"50k"`` counts, and AGM parameter
presets by name (``{"agm": {"params": "experiment"}}``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.analysis import growth_ratio, lemma11_table_bits, theorem1_table_bits
from repro.core.params import AGMParams
from repro.experiments.harness import (
    ExperimentResult,
    evaluate_scheme_on_graph,
    run_live_matrix,
    run_matrix,
    run_traffic_matrix,
)
from repro.experiments.matrix.spec import parse_count, pick_size
from repro.experiments.workloads import (
    aspect_ratio_suite,
    make_workload,
    standard_suite,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle

__all__ = [
    "KINDS",
    "KIND_NAMES",
    "resolve_graph_sources",
    "graph_factory_from_source",
    "resolve_scheme_kwargs",
    "run_tradeoff",
    "run_comparison",
    "run_scale_free",
    "run_stretch_growth",
    "run_ablation",
    "run_lemma_properties",
    "run_grid",
    "run_traffic_grid",
    "run_live_timeline",
    "check_lemma2",
    "check_lemma3",
    "ALL_SCHEMES",
]

ALL_SCHEMES = ["shortest-path", "cowen", "thorup-zwick", "awerbuch-peleg",
               "exponential", "agm"]


# ---------------------------------------------------------------------------
# config-value resolution helpers


def _resolve_params_value(value: Any) -> AGMParams:
    """An ``AGMParams`` from a preset name, override mapping, or instance."""
    if isinstance(value, AGMParams):
        return value
    if isinstance(value, str):
        preset = getattr(AGMParams, value, None)
        if preset is None or not callable(preset):
            raise ValueError(f"unknown AGMParams preset {value!r} "
                             "(use 'experiment' or 'paper')")
        return preset()
    if isinstance(value, Mapping):
        overrides = dict(value)
        base_name = overrides.pop("base", "experiment")
        base = _resolve_params_value(base_name)
        return base.with_overrides(**overrides) if overrides else base
    raise ValueError(f"cannot resolve AGMParams from {value!r}")


def resolve_scheme_kwargs(
        raw: Optional[Mapping[str, Mapping[str, Any]]]) -> Dict[str, dict]:
    """Per-scheme constructor kwargs with config spellings expanded.

    The only translated key is ``params``: a preset name string
    (``"experiment"``, ``"paper"``) or an override mapping
    (``{"base": "experiment", "dense_gap": 5}``) becomes the
    :class:`AGMParams` instance the factory expects.
    """
    resolved: Dict[str, dict] = {}
    for scheme, kwargs in (raw or {}).items():
        kwargs = dict(kwargs)
        if "params" in kwargs:
            kwargs["params"] = _resolve_params_value(kwargs["params"])
        resolved[scheme] = kwargs
    return resolved


def _build_source(source: Any, quick: bool,
                  seed_offset: int) -> List[Tuple[str, WeightedGraph]]:
    """One graph source entry → ``(label, graph)`` pairs.

    Accepted spellings::

        "topology:caida-as-mini"                  # pinned snapshot, verbatim
        "suite:standard"                          # the standard workload suite
        {"suite": "standard", "limit": 2}
        {"topology": "road-mini", "label": "road"}
        {"family": "hyperbolic", "n": {"quick": 300, "full": 3000}, "seed": 7}

    Generated families honour ``seed_offset`` (the run seed), so a seed
    sweep re-draws them; topology snapshots are byte-pinned and ignore it.
    """
    if isinstance(source, str):
        if source.startswith("topology:"):
            source = {"topology": source.split(":", 1)[1]}
        elif source.startswith("suite:"):
            source = {"suite": source.split(":", 1)[1]}
        else:
            raise ValueError(f"string graph source {source!r} must be "
                             "'topology:<name>' or 'suite:<name>'")
    if not isinstance(source, Mapping):
        raise ValueError(f"graph source must be a string or mapping, got {source!r}")
    source = dict(source)
    if "suite" in source:
        suite_name = source.pop("suite")
        limit = source.pop("limit", None)
        if source:
            raise ValueError(f"suite source: unknown keys {sorted(source)}")
        if suite_name != "standard":
            raise ValueError(f"unknown suite {suite_name!r} (only 'standard')")
        specs = standard_suite(quick)
        if limit is not None:
            specs = specs[:int(limit)]
        return [(spec.name, spec.build(quick=quick, seed_offset=seed_offset))
                for spec in specs]
    if "topology" in source:
        name = source.pop("topology")
        label = source.pop("label", name)
        if source:
            raise ValueError(f"topology source: unknown keys {sorted(source)}")
        return [(label, make_workload(f"topology:{name}", 0))]
    if "family" in source:
        family = source.pop("family")
        n = pick_size(source.pop("n", None), quick, where=f"{family}: n")
        if n is None:
            raise ValueError(f"family source {family!r} needs 'n'")
        seed = int(source.pop("seed", 0)) + int(seed_offset)
        label = source.pop("label", family)
        if source:
            raise ValueError(f"family source: unknown keys {sorted(source)}")
        return [(label, make_workload(family, int(n), seed=seed))]
    raise ValueError(f"graph source needs 'suite', 'topology' or 'family': {source!r}")


def resolve_graph_sources(sources: Any, quick: bool,
                          seed_offset: int = 0) -> List[Tuple[str, WeightedGraph]]:
    """A config's graph list → the ``(label, graph)`` pairs the harness takes."""
    if isinstance(sources, (str, Mapping)):
        sources = [sources]
    out: List[Tuple[str, WeightedGraph]] = []
    for source in sources:
        out.extend(_build_source(source, quick, seed_offset))
    if not out:
        raise ValueError("graph sources resolved to an empty list")
    return out


def graph_factory_from_source(source: Any, quick: bool,
                              seed_offset: int = 0) -> Callable[[], WeightedGraph]:
    """A zero-arg factory for kinds that mutate their graph (live churn).

    Each call re-resolves the source, so every scheme's timeline gets its
    own instance — topology snapshots re-parse from the pinned file,
    generated families re-draw from the same seed.
    """
    def factory() -> WeightedGraph:
        built = _build_source(source, quick, seed_offset)
        if len(built) != 1:
            raise ValueError(f"live graph source must resolve to one graph, "
                             f"got {len(built)}")
        return built[0][1]
    return factory


# ---------------------------------------------------------------------------
# the paper's experiments (E1, E2, E3, E4, E12, E5/E6)


def run_tradeoff(quick: bool = True, seed: int = 0,
                 ks: Optional[Sequence[int]] = None,
                 num_pairs: Optional[int] = None) -> ExperimentResult:
    """E1 — Theorem 1's space–stretch trade-off for the AGM scheme.

    Per (graph, k): measured stretch, and table bits next to Theorem 1's and
    Lemma 11's bit bounds.
    """
    ks = list(ks) if ks is not None else ([1, 2, 3] if quick else [1, 2, 3, 4, 5])
    num_pairs = num_pairs or (60 if quick else 300)
    graphs = [(spec.name, spec.build(quick=quick, seed_offset=seed))
              for spec in standard_suite(quick)]
    params = AGMParams.experiment()
    result = run_matrix(
        "E1-theorem1-tradeoff",
        schemes=["agm"],
        graphs=graphs,
        ks=ks,
        num_pairs=num_pairs,
        seed=seed,
        scheme_kwargs={"agm": {"params": params}},
    )
    for row in result.rows:
        n, k = int(row["n"]), int(row["k"])
        row["bits_bound_thm1"] = theorem1_table_bits(n, k)
        row["bits_bound_lemma11"] = lemma11_table_bits(n, k)
    result.metadata["params"] = "AGMParams.experiment()"
    result.metadata["columns"] = [
        "graph", "n", "k", "max_stretch", "avg_stretch", "max_table_bits",
        "bits_bound_thm1", "failures", "fallback_uses"]
    return result


def run_comparison(quick: bool = True, seed: int = 0, k: int = 3,
                   schemes: Optional[Sequence[str]] = None,
                   num_pairs: Optional[int] = None) -> ExperimentResult:
    """E2 — the Section 1.3 comparison of all six routing schemes.

    One row per (graph, scheme) at a common ``k``: stretch, table, label
    and header bits.  ``configs/e2_comparison.json`` reproduces it through
    the matrix runner row for row.
    """
    schemes = list(schemes) if schemes is not None else list(ALL_SCHEMES)
    num_pairs = num_pairs or (60 if quick else 300)
    suite = standard_suite(quick)[:2] if quick else standard_suite(quick)
    graphs = [(spec.name, spec.build(quick=quick, seed_offset=seed))
              for spec in suite]
    result = run_matrix(
        "E2-scheme-comparison",
        schemes=schemes,
        graphs=graphs,
        ks=[k],
        num_pairs=num_pairs,
        seed=seed,
        scheme_kwargs={"agm": {"params": AGMParams.experiment()}},
    )
    result.metadata["columns"] = [
        "graph", "scheme", "k", "max_stretch", "avg_stretch",
        "max_table_bits", "avg_table_bits", "max_label_bits", "failures"]
    return result


def run_scale_free(quick: bool = True, seed: int = 0, k: int = 2,
                   deltas: Optional[Sequence[float]] = None,
                   num_pairs: Optional[int] = None) -> ExperimentResult:
    """E3 — table size vs aspect ratio (the scale-free claim).

    One topology with its weights rescaled to each target Δ: AGM's tables
    should stay flat while Awerbuch–Peleg's grow with ``log Δ``.
    """
    if deltas is None:
        deltas = [1e2, 1e4, 1e6] if quick else [1e2, 1e4, 1e6, 1e9, 1e12]
    n = 48 if quick else 96
    num_pairs = num_pairs or (40 if quick else 200)
    result = ExperimentResult(name="E3-scale-free")
    for target_delta, graph in aspect_ratio_suite(list(deltas), n=n, seed=seed + 21):
        oracle = DistanceOracle(graph)
        measured_delta = oracle.aspect_ratio()
        for scheme in ("agm", "awerbuch-peleg"):
            kwargs = {"params": AGMParams.experiment()} if scheme == "agm" else {}
            row = evaluate_scheme_on_graph(scheme, graph, k, num_pairs=num_pairs,
                                           seed=seed, oracle=oracle, scheme_kwargs=kwargs)
            row["target_delta"] = target_delta
            row["measured_delta"] = measured_delta
            result.add_row(**row)
    result.metadata["columns"] = [
        "scheme", "target_delta", "measured_delta", "max_table_bits",
        "avg_table_bits", "max_stretch", "failures"]
    return result


def run_stretch_growth(quick: bool = True, seed: int = 0,
                       ks: Optional[Sequence[int]] = None,
                       num_pairs: Optional[int] = None) -> ExperimentResult:
    """E4 — stretch growth in k: linear (AGM) vs exponential (prior family).

    The metadata records each scheme's successive avg-stretch ratios: a
    linear curve has ratios tending to 1, an exponential one stays near 2.
    """
    ks = list(ks) if ks is not None else ([1, 2, 3] if quick else [1, 2, 3, 4, 5, 6])
    num_pairs = num_pairs or (50 if quick else 250)
    spec = standard_suite(quick)[0]
    graphs = [(spec.name, spec.build(quick=quick, seed_offset=seed))]
    result = run_matrix(
        "E4-stretch-growth",
        schemes=["agm", "exponential"],
        graphs=graphs,
        ks=ks,
        num_pairs=num_pairs,
        seed=seed,
        scheme_kwargs={"agm": {"params": AGMParams.experiment()}},
    )
    for scheme in ("agm", "exponential"):
        rows = sorted(result.filter(scheme=scheme), key=lambda r: r["k"])
        ratios = growth_ratio([float(r["avg_stretch"]) for r in rows])
        result.metadata[f"{scheme}_avg_stretch_growth_ratios"] = ratios
    result.metadata["columns"] = [
        "scheme", "k", "max_stretch", "avg_stretch", "max_table_bits", "failures"]
    return result


def run_ablation(quick: bool = True, seed: int = 0, k: int = 2,
                 dense_gaps: Optional[Sequence[int]] = None,
                 sparse_shrinks: Optional[Sequence[float]] = None,
                 num_pairs: Optional[int] = None) -> ExperimentResult:
    """E12 — ablation of the dense-gap and sparse-shrink constants.

    Sweeps Definition 2's dense gap (3) and Lemma 3's sparse shrink (6)
    around the paper's values; failures should stay at zero throughout.
    """
    dense_gaps = list(dense_gaps) if dense_gaps is not None else [1, 3, 5]
    sparse_shrinks = list(sparse_shrinks) if sparse_shrinks is not None else [3.0, 6.0, 12.0]
    num_pairs = num_pairs or (40 if quick else 200)
    spec = standard_suite(quick)[0]
    graph = spec.build(quick=quick, seed_offset=seed)
    oracle = DistanceOracle(graph)
    result = ExperimentResult(name="E12-ablation")
    for gap in dense_gaps:
        for shrink in sparse_shrinks:
            params = AGMParams.experiment().with_overrides(dense_gap=gap,
                                                           sparse_shrink=shrink)
            row = evaluate_scheme_on_graph("agm", graph, k, num_pairs=num_pairs,
                                           seed=seed, oracle=oracle,
                                           scheme_kwargs={"params": params})
            row["dense_gap"] = gap
            row["sparse_shrink"] = shrink
            row["graph"] = spec.name
            result.add_row(**row)
    result.metadata["columns"] = [
        "dense_gap", "sparse_shrink", "max_stretch", "avg_stretch",
        "max_table_bits", "failures", "fallback_uses"]
    return result


def check_lemma2(decomposition) -> dict:
    """Count (u, i, v) triples violating Lemma 2."""
    checked = 0
    violations = 0
    for u in range(decomposition.n):
        for i in range(decomposition.k + 1):
            if not decomposition.is_dense(u, i):
                continue
            a_ui = decomposition.range(u, i)
            for v in decomposition.f_ball(u, i):
                checked += 1
                if a_ui not in decomposition.extended_range_set(v):
                    violations += 1
    return {"checked": checked, "violations": violations}


def check_lemma3(decomposition, landmarks) -> dict:
    """Count (u, i, v) triples violating Lemma 3."""
    checked = 0
    violations = 0
    for u in range(decomposition.n):
        for i in range(decomposition.k + 1):
            if decomposition.is_dense(u, i):
                continue
            center = landmarks.center(u, i)
            for v in decomposition.e_ball(u, i):
                checked += 1
                if center not in landmarks.nearby_union(v):
                    violations += 1
    return {"checked": checked, "violations": violations}


def run_lemma_properties(quick: bool = True, seed: int = 0, k: int = 3,
                         params: Optional[AGMParams] = None) -> ExperimentResult:
    """E5/E6 — empirical verification of Lemmas 2–3 and Claims 1–2."""
    from repro.core.decomposition import NeighborhoodDecomposition
    from repro.core.landmarks import LandmarkHierarchy

    params = _resolve_params_value(params) if params is not None else AGMParams.paper()
    suite = standard_suite(quick)[:2] if quick else standard_suite(quick)
    result = ExperimentResult(name="E5-E6-lemma-properties")
    for spec in suite:
        graph = spec.build(quick=quick, seed_offset=seed)
        oracle = DistanceOracle(graph)
        decomposition = NeighborhoodDecomposition(graph, k, oracle=oracle, params=params)
        landmarks = LandmarkHierarchy(graph, k, oracle=oracle,
                                      decomposition=decomposition, params=params,
                                      seed=seed)
        lemma2 = check_lemma2(decomposition)
        lemma3 = check_lemma3(decomposition, landmarks)
        claims = landmarks.verify_claims(sample_nodes=range(0, graph.n, max(graph.n // 16, 1)))
        result.add_row(
            graph=spec.name, n=graph.n, k=k,
            lemma2_checked=lemma2["checked"], lemma2_violations=lemma2["violations"],
            lemma3_checked=lemma3["checked"], lemma3_violations=lemma3["violations"],
            claim1_holds=claims["claim1"], claim2_holds=claims["claim2"],
        )
    return result


# ---------------------------------------------------------------------------
# the general matrix kinds (graph source x scheme grid x traffic x scenario)


def run_grid(quick: bool = True, seed: int = 0, *,
             graphs: Any, schemes: Sequence[str], ks: Sequence[int] = (2,),
             num_pairs: Any = None,
             scheme_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
             engine: str = "lockstep", parallel: Optional[int] = None,
             name: str = "grid") -> ExperimentResult:
    """schemes x graph sources x k, pair-sampled (the run_matrix kind)."""
    num_pairs = parse_count(pick_size(num_pairs, quick, where="num_pairs")
                            or (60 if quick else 300), where="num_pairs")
    result = run_matrix(
        name,
        schemes=list(schemes),
        graphs=resolve_graph_sources(graphs, quick, seed_offset=seed),
        ks=[int(k) for k in ks],
        num_pairs=num_pairs,
        seed=seed,
        scheme_kwargs=resolve_scheme_kwargs(scheme_kwargs),
        parallel=parallel,
        engine=engine,
    )
    result.metadata["columns"] = [
        "graph", "scheme", "k", "max_stretch", "avg_stretch",
        "max_table_bits", "avg_table_bits", "max_label_bits", "failures"]
    return result


def run_traffic_grid(quick: bool = True, seed: int = 0, *,
                     graphs: Any, schemes: Sequence[str], ks: Sequence[int] = (2,),
                     model: str = "zipf",
                     model_kwargs: Optional[Mapping[str, Any]] = None,
                     packets: Any = None, shards: int = 1,
                     batch_size: Optional[int] = None,
                     scheme_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
                     engine: str = "lockstep",
                     name: str = "traffic") -> ExperimentResult:
    """The grid streamed under a traffic model with a packet budget."""
    from repro.traffic.engine import DEFAULT_BATCH_SIZE

    packets = parse_count(pick_size(packets, quick, where="packets")
                          or (20_000 if quick else 200_000), where="packets")
    result = run_traffic_matrix(
        name,
        schemes=list(schemes),
        graphs=resolve_graph_sources(graphs, quick, seed_offset=seed),
        ks=[int(k) for k in ks],
        model=model,
        packets=packets,
        shards=int(shards),
        batch_size=int(batch_size) if batch_size else DEFAULT_BATCH_SIZE,
        seed=seed,
        scheme_kwargs=resolve_scheme_kwargs(scheme_kwargs),
        model_kwargs=dict(model_kwargs or {}),
        engine=engine,
    )
    result.metadata["columns"] = [
        "graph", "scheme", "k", "delivered", "failures", "avg_stretch",
        "p95_stretch", "max_stretch", "pps"]
    return result


def run_live_timeline(quick: bool = True, seed: int = 0, *,
                      graph: Any, schemes: Sequence[str],
                      scenario: str = "flap-heavy",
                      scenario_kwargs: Optional[Mapping[str, Any]] = None,
                      k: int = 2, epochs: Any = None,
                      epoch_packets: Any = None, stale_packets: Any = None,
                      model: str = "zipf",
                      model_kwargs: Optional[Mapping[str, Any]] = None,
                      scheme_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
                      shards: int = 1, engine: str = "lockstep",
                      scoring: str = "exact",
                      verify_determinism: bool = False,
                      name: str = "live") -> ExperimentResult:
    """The live-network timeline kind: churn scenario x traffic x repair.

    This is where the adversarial scenario configs run: a pinned topology
    snapshot (or generated family) under flash crowds, hotspot storms or
    partition-under-load, every scheme seeing the identical event sequence.
    """
    epochs = int(pick_size(epochs, quick, where="epochs") or (4 if quick else 8))
    epoch_packets = parse_count(
        pick_size(epoch_packets, quick, where="epoch_packets")
        or (4_096 if quick else 100_000), where="epoch_packets")
    stale_packets = parse_count(
        pick_size(stale_packets, quick, where="stale_packets") or 2_048,
        where="stale_packets")
    result = run_live_matrix(
        name,
        schemes=list(schemes),
        graph_factory=graph_factory_from_source(graph, quick, seed_offset=seed),
        scenario=scenario,
        scenario_kwargs=dict(scenario_kwargs) if scenario_kwargs else None,
        k=int(k),
        epochs=epochs,
        epoch_packets=epoch_packets,
        stale_packets=stale_packets,
        model=model,
        shards=int(shards),
        seed=seed,
        scheme_kwargs=resolve_scheme_kwargs(scheme_kwargs),
        model_kwargs=dict(model_kwargs or {}),
        engine=engine,
        scoring=scoring,
        verify_determinism=verify_determinism,
    )
    result.metadata["columns"] = [
        "scheme", "epoch", "events", "delivery_rate", "stale_loss",
        "avg_stretch", "max_stretch"]
    return result


KINDS: Dict[str, Callable[..., ExperimentResult]] = {
    "tradeoff": run_tradeoff,
    "comparison": run_comparison,
    "scale-free": run_scale_free,
    "stretch-growth": run_stretch_growth,
    "ablation": run_ablation,
    "lemma-properties": run_lemma_properties,
    "grid": run_grid,
    "traffic": run_traffic_grid,
    "live": run_live_timeline,
}

KIND_NAMES = tuple(sorted(KINDS))
