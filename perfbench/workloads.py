"""The benchmark's workloads: a fixed network, seeded traffic, one repetition.

Every workload is a closed loop: one process routes 8,192-packet batches
back to back through the compiled forwarding program, with no shards, Zipf
traffic, exact stretch scoring and the lazy distance backend.  A repetition
builds everything from scratch on a freshly generated graph, so repetitions
run in forked children start equally cold.

``run_once`` returns plain JSON-able data: the end-to-end timings, the
outputs that must be identical on every repetition of a seed (``outputs``),
and the raw counters the per-layer metrics are derived from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: packets per routed batch (the traffic engine's streaming granularity)
BATCH_SIZE = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n: int
    #: packets routed (AGM) or packets per traffic epoch (live timeline)
    packets: int
    k: int = 2
    #: ``None`` = ``AGMParams.paper()``; a float = ``experiment(factor)``
    landmark_factor: Optional[float] = None
    #: churn epochs after the baseline epoch (live timeline only)
    epochs: int = 0
    stale_packets: int = 0


# Sizes keep one cold repetition to a few seconds on a 2-core host, so a
# run can report the median of several.  Why each workload exists is
# recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="agm-paper-build", scheme="agm", n=400, packets=32_768,
             k=2),
    Workload(name="agm-zipf-route", scheme="agm", n=800, packets=49_152,
             k=3, landmark_factor=0.05),
    Workload(name="sp-flap-live", scheme="shortest-path", n=1000,
             packets=409_600, epochs=3, stale_packets=8192),
)}

# The network, the scheme's own random draws and the Zipf popularity ranking
# are fixed per workload; the workload seed draws the packets (and, on the
# live timeline, the churn).  Seeding the graph or the landmark draws from
# it instead moves table_bits_max by up to 48% between seeds (AGM k=3
# experiment(0.05)), beyond any bound that could still flag a change in
# the tables.
GRAPH_SEED, SCHEME_SEED, POPULARITY_SEED = 1, 2, 3


def traffic_seed(seed: int) -> int:
    """The 31-bit traffic seed derived from workload seed ``seed``."""
    state = np.random.SeedSequence([int(seed) & 0x7FFFFFFF, 3])
    return int(state.generate_state(1)[0] & 0x7FFFFFFF)


def preload() -> None:
    """Import every library module a repetition uses.

    Called once before the first fork, so no repetition pays for imports
    inside a timed region.
    """
    import repro.baselines.shortest_path  # noqa: F401
    import repro.core.scheme  # noqa: F401
    import repro.dynamics.repair  # noqa: F401
    import repro.factory  # noqa: F401
    import repro.graphs.generators  # noqa: F401
    import repro.live.simulator  # noqa: F401
    import repro.routing.kernels  # noqa: F401
    import repro.storage.rowstore  # noqa: F401
    import repro.traffic.engine  # noqa: F401
    import repro.traffic.models  # noqa: F401
    import repro.traffic.scoring  # noqa: F401


def make_graph(workload: Workload):
    """The workload's Barabási–Albert graph (not timed)."""
    from repro.graphs.generators import make_graph as generate

    return generate("barabasi-albert", n=workload.n, seed=GRAPH_SEED)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux ``ru_maxrss``)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(workload: Workload, seed: int, tracer=None) -> Dict[str, object]:
    """Build, compile and route ``workload`` once; return timings and outputs.

    Set-up is the scheme build plus the first ``compiled_forwarding()``;
    wall time runs from handing the generated graph to the library to the
    end of the last phase.
    """
    from repro.graphs.shortest_paths import DistanceOracle

    graph = make_graph(workload)
    start = time.perf_counter()
    oracle = DistanceOracle(graph, backend="lazy")
    scheme = _build(workload, graph, oracle)
    compile_start = time.perf_counter()
    program = scheme.compiled_forwarding()
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.record("routing.compile", compile_start, start + setup_s,
                      tree_slots=int(program.describe()["tree_slots"]))
    if workload.scheme == "agm":
        result = _route_agm(workload, scheme, oracle, seed)
    else:
        result = _run_live(workload, scheme, oracle, seed)
    wall_s = time.perf_counter() - start
    result["outputs"]["table_bits_max"] = int(scheme.max_table_bits())
    result.update(setup_s=setup_s, wall_s=wall_s, peak_rss_mb=peak_rss_mb(),
                  row_cache=oracle.backend.row_cache_report(),
                  total_bits=int(scheme.total_bits()))
    return result


def _build(workload: Workload, graph, oracle):
    from repro.factory import build_scheme

    kwargs: Dict[str, object] = {}
    if workload.scheme == "agm":
        from repro.core.params import AGMParams

        kwargs["k"] = workload.k
        kwargs["params"] = (AGMParams.paper() if workload.landmark_factor is None
                            else AGMParams.experiment(workload.landmark_factor))
    return build_scheme(workload.scheme, graph, oracle=oracle,
                        seed=SCHEME_SEED, **kwargs)


def _route_agm(workload: Workload, scheme, oracle, seed: int):
    from repro.traffic import engine
    from repro.traffic.models import make_traffic_model

    model = make_traffic_model("zipf", scheme.graph, seed=traffic_seed(seed),
                               structure_seed=POPULARITY_SEED)
    # looked up on the module at call time, so a tracer's wrapper applies
    report = engine.run_traffic(scheme, model, workload.packets, shards=1,
                                batch_size=BATCH_SIZE, engine="lockstep",
                                oracle=oracle, processes=False)
    return {"route_s": report.seconds, "packets": report.packets,
            "repairs": [], "recompile_s": 0.0,
            "outputs": {"summary": report.summary(include_p2=False)}}


def _run_live(workload: Workload, scheme, oracle, seed: int):
    from repro.live.simulator import LiveSimulator

    repairs = []
    cls = type(scheme)
    original = cls.maintain

    # class-level wrap: full_rebuild() replaces the instance __dict__, which
    # would drop an instance-level wrapper after the first rebuild
    def timed_maintain(self, delta=None):
        t0 = time.perf_counter()
        report = original(self, delta)
        repairs.append({"wall_s": time.perf_counter() - t0,
                        "reported_s": float(report.seconds),
                        "strategy": report.strategy,
                        "dirty_destinations": int(report.dirty_destinations)})
        return report

    cls.maintain = timed_maintain
    try:
        timeline = LiveSimulator(
            scheme, "flap-heavy", oracle=oracle, model="zipf",
            model_kwargs={"structure_seed": POPULARITY_SEED},
            epochs=workload.epochs, epoch_packets=workload.packets,
            batch_size=BATCH_SIZE, stale_packets=workload.stale_packets,
            shards=1, processes=False, engine="lockstep", scoring="exact",
            repair="maintain", seed=traffic_seed(seed)).run()
    finally:
        cls.maintain = original
    churned = [r for r in timeline.epochs if r.epoch > 0]
    return {
        "route_s": sum(r.report.seconds for r in timeline.epochs),
        "packets": sum(r.report.packets for r in timeline.epochs),
        "repairs": repairs,
        "recompile_s": sum(r.recompile_seconds for r in churned),
        "outputs": {
            "summary": timeline.merged_stats().summary(include_p2=False),
            "stale_sent": sum(r.stale_packets for r in churned),
            "stale_delivered": sum(r.stale_delivered for r in churned),
        },
    }
