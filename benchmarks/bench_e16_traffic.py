"""E16 — traffic engine: million-packet sharded streaming vs single process.

Two stages:

**Parity** (small ``--parity-n`` graph, dense backend): the streamed
statistics are cross-checked against ground truth and across configurations —

* exact: per-packet stretch/hop arrays (``run_traffic_exact``) vs the
  streamed histogram quantiles (within their documented relative-error
  bound; count/max/avg exact);
* shards: ``shards ∈ {1, 2}`` produce identical official statistics;
* engines: scalar vs lockstep produce identical statistics.

**Throughput** (``--n`` nodes, lazy backend — no O(n²) distance matrix):
every scheme in ``--schemes`` routes ``--packets`` packets of Zipf-skewed
traffic twice — once single-process (``shards=1``) and once sharded across
``--shards`` forked workers sharing the spawn-once compiled forwarding
program — reporting packets/second for both, the sharded speedup, and
whether the two runs' streamed statistics agree (they must).  The hot
destinations' distance rows are prefetched by ``run_traffic`` *outside* its
timed region (both runs alike), so the speedup compares routing engines at
equal cache state rather than whichever run happened to warm the oracle
first.

Sharded speedup scales with *available cores*: the workers are full
processes, so on a ``c``-core machine the expected speedup is ~``min(shards,
c)``, and on a single-core machine ~1x (the run degenerates to time-sliced
workers; ``cpu_count`` is recorded in the JSON so trajectories from
different machines are comparable).  ``--assert-speedup`` gates accordingly.

Usage::

    PYTHONPATH=src python benchmarks/bench_e16_traffic.py
    PYTHONPATH=src python benchmarks/bench_e16_traffic.py \
        --n 20000 --packets 1000000 --schemes shortest-path cowen --shards 4
    PYTHONPATH=src python benchmarks/bench_e16_traffic.py \
        --quick --assert-speedup --json /tmp/bench_e16.json
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.shortest_paths import DistanceOracle
from repro.traffic.engine import run_traffic, run_traffic_exact
from repro.traffic.models import make_traffic_model
from repro.traffic.stats import LOG_QUANTILE_RTOL

from common import (assert_all_delivered, bench_meta, default_json_path,
                    write_bench_json)

DEFAULT_N = 20000
DEFAULT_PACKETS = 1_000_000
DEFAULT_SCHEMES = ["shortest-path", "cowen"]
DEFAULT_SHARDS = 4
DEFAULT_BATCH = 16384
DEFAULT_SUPPORT = 512
QUICK_N = 400
QUICK_PACKETS = 60_000
QUICK_SCHEMES = ["cowen"]
QUICK_SHARDS = 2

#: quantile tolerance vs ground truth: histogram buckets are ~0.54% wide;
#: allow a few buckets of slack for nearest-rank vs interpolated ranks
HIST_RTOL = max(8 * LOG_QUANTILE_RTOL, 0.02)


def close(a: float, b: float, rtol: float) -> bool:
    return bool(abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12))


def parity_stage(args) -> dict:
    """Small-graph ground-truth and cross-configuration checks."""
    n = args.parity_n
    graph = make_workload("barabasi-albert", n, seed=args.seed)
    oracle = DistanceOracle(graph, backend="dense")
    scheme = build_scheme("cowen", graph, k=2, seed=args.seed + 2, oracle=oracle)
    model = make_traffic_model("zipf", graph, seed=args.seed + 3,
                               support=min(64, n // 4))

    streamed = run_traffic(scheme, model, args.parity_packets,
                           shards=1, engine="lockstep", oracle=oracle)
    sharded = run_traffic(scheme, model, args.parity_packets,
                          shards=2, engine="lockstep", oracle=oracle)
    exact = run_traffic_exact(scheme, model, args.parity_packets,
                              engine="lockstep", oracle=oracle)
    summary = streamed.summary()
    stretch = exact["stretch"]

    quantile_checks = {}
    for q in (50, 95, 99):
        true = float(np.percentile(stretch, q))
        quantile_checks[f"p{q}"] = {
            "exact": true,
            "histogram": summary[f"stretch_p{q}"],
            "histogram_ok": close(summary[f"stretch_p{q}"], true, HIST_RTOL),
        }

    exact_fields_ok = (
        int(summary["stretch_count"]) == int(stretch.size)
        and summary["max_stretch"] == float(stretch.max())
        and close(summary["avg_stretch"], float(stretch.mean()), 1e-9)
        and int(summary["delivered"]) == int(exact["found"].sum())
        and int(summary["hops_count"]) == int(exact["hops"].size)
        and summary["max_hops"] == float(exact["hops"].max())
    )
    shard_parity = summary == sharded.summary()

    scalar = run_traffic(scheme, model, args.parity_scalar_packets,
                         shards=1, engine="scalar", oracle=oracle)
    lockstep = run_traffic(scheme, model, args.parity_scalar_packets,
                           shards=1, engine="lockstep", oracle=oracle)
    engine_parity = scalar.summary() == lockstep.summary()

    sketch_ok = all(c["histogram_ok"] for c in quantile_checks.values())
    return {
        "n": n,
        "packets": args.parity_packets,
        "scalar_packets": args.parity_scalar_packets,
        "quantiles": quantile_checks,
        "exact_fields_ok": exact_fields_ok,
        "sketch_ok": sketch_ok,
        "shard_parity": shard_parity,
        "engine_parity": engine_parity,
        "ok": exact_fields_ok and sketch_ok and shard_parity and engine_parity,
    }


def throughput_stage(args) -> list:
    """The headline runs: packets/second, single-process vs sharded."""
    graph = make_workload("barabasi-albert", args.n, seed=args.seed)
    support = min(args.zipf_support, max(args.n // 4, 8))
    backend = LazyDijkstraBackend(graph, cache_rows=support + 64)
    oracle = DistanceOracle(graph, backend=backend)
    model = make_traffic_model("zipf", graph, seed=args.seed + 1,
                               support=support)
    rows = []
    for name in args.schemes:
        t0 = time.perf_counter()
        scheme = build_scheme(name, graph, k=2, seed=args.seed + 2,
                              oracle=oracle)
        build_s = time.perf_counter() - t0

        single = run_traffic(scheme, model, args.packets, shards=1,
                             batch_size=args.batch, engine="lockstep",
                             oracle=oracle, profile=args.profile)
        sharded = run_traffic(scheme, model, args.packets, shards=args.shards,
                              batch_size=args.batch, engine="lockstep",
                              oracle=oracle, profile=args.profile)
        summary = single.summary()
        row = {
            "n": args.n,
            "scheme": name,
            "model": model.name,
            "zipf_support": support,
            "packets": args.packets,
            "batch_size": args.batch,
            "build_s": round(build_s, 2),
            "single_s": round(single.seconds, 2),
            "single_pps": round(single.pps, 1),
            "sharded_s": round(sharded.seconds, 2),
            "sharded_pps": round(sharded.pps, 1),
            "sharded_speedup": round(sharded.pps / single.pps, 3),
            "shards": args.shards,
            "used_processes": sharded.processes,
            "stats_match": summary == sharded.summary(),
            "delivered": int(summary["delivered"]),
            "failures": int(summary["failures"]),
            "avg_stretch": summary["avg_stretch"],
            "p95_stretch": summary["stretch_p95"],
            "max_stretch": summary["max_stretch"],
            "avg_hops": summary["avg_hops"],
            "p95_hops": summary["hops_p95"],
        }
        if args.profile:
            # per-stage wall seconds (plan/step/verify/score/reduce) for
            # both runs; the sharded dict sums stage time across workers
            row["profile_single"] = {k: round(v, 3) for k, v
                                     in sorted((single.profile or {}).items())}
            row["profile_sharded"] = {k: round(v, 3) for k, v
                                      in sorted((sharded.profile or {}).items())}
        rows.append(row)
        print(f"{row['n']:>6} {row['scheme']:>15} build {row['build_s']:>7.1f}s "
              f"single {row['single_pps']:>9.0f} pps  sharded({args.shards}) "
              f"{row['sharded_pps']:>9.0f} pps  speedup {row['sharded_speedup']:>5.2f}x "
              f"match {row['stats_match']}")
    return rows


def speedup_threshold(shards: int, quick: bool) -> float:
    """Core-aware gate: processes cannot beat the hardware they run on."""
    effective = min(shards, os.cpu_count() or 1)
    if effective <= 1:
        # single core: sharding is time-slicing; only guard against
        # pathological fork/merge overhead
        return 0.5
    if quick:
        return 1.15
    return min(2.0, 0.75 * effective)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument("--schemes", nargs="+", default=None,
                        choices=list(SCHEME_NAMES))
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--zipf-support", type=int, default=DEFAULT_SUPPORT)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--parity-n", type=int, default=None)
    parser.add_argument("--parity-packets", type=int, default=None)
    parser.add_argument("--parity-scalar-packets", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small graph, fewer packets")
    parser.add_argument("--profile", action="store_true",
                        help="record the per-stage wall-time breakdown "
                             "(plan/step/verify/score/reduce) in the JSON rows")
    parser.add_argument("--assert-speedup", action="store_true",
                        help="exit non-zero unless parity holds everywhere, "
                             "all packets are delivered, and the sharded "
                             "speedup clears the core-aware threshold")
    parser.add_argument("--json", default=None,
                        help="where to write the JSON rows "
                             "(default: BENCH_e16.json beside the repo root)")
    args = parser.parse_args()

    args.n = args.n or (QUICK_N if args.quick else DEFAULT_N)
    args.packets = args.packets or (QUICK_PACKETS if args.quick
                                    else DEFAULT_PACKETS)
    args.schemes = args.schemes or (QUICK_SCHEMES if args.quick
                                    else DEFAULT_SCHEMES)
    args.shards = args.shards or (QUICK_SHARDS if args.quick
                                  else DEFAULT_SHARDS)
    args.parity_n = args.parity_n or (QUICK_N if args.quick else 1000)
    args.parity_packets = args.parity_packets or (8000 if args.quick
                                                  else 50_000)
    args.parity_scalar_packets = args.parity_scalar_packets or \
        (2000 if args.quick else 4000)
    json_path = args.json or default_json_path(__file__, "BENCH_e16.json")

    print("# E16: traffic engine — streamed statistics parity + sharded throughput")
    parity = parity_stage(args)
    print(f"parity (n={parity['n']}): exact-fields {parity['exact_fields_ok']} "
          f"sketch {parity['sketch_ok']} shards {parity['shard_parity']} "
          f"engines {parity['engine_parity']}")

    rows = throughput_stage(args)
    threshold = speedup_threshold(args.shards, args.quick)
    total_packets = sum(2 * r["packets"] for r in rows)
    payload = {
        "benchmark": "e16_traffic",
        "n": args.n,
        "packets_per_run": args.packets,
        "total_packets_routed": total_packets,
        "schemes": args.schemes,
        "shards": args.shards,
        "batch_size": args.batch,
        "backend": "lazy",
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "speedup_threshold": threshold,
        "parity": parity,
        "rows": rows,
        "meta": bench_meta(backend="lazy"),
    }
    write_bench_json(json_path, payload)
    print(f"wrote {json_path}")

    if args.assert_speedup:
        assert parity["ok"], f"parity stage failed: {parity}"
        mismatched = [r["scheme"] for r in rows if not r["stats_match"]]
        assert not mismatched, \
            f"sharded statistics diverge from single-process: {mismatched}"
        assert_all_delivered(rows)
        slow = [r for r in rows if r["sharded_speedup"] < threshold]
        assert not slow, (
            f"sharded speedup below the core-aware threshold {threshold:.2f}x "
            f"({os.cpu_count()} cores): "
            f"{[(r['scheme'], r['sharded_speedup']) for r in slow]}")
        print(f"assertions passed: parity everywhere, statistics identical "
              f"across shards, speedup >= {threshold:.2f}x")


if __name__ == "__main__":
    main()
