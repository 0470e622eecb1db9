"""E17 — fused hop kernels: the throughput ladder.

The measurement of the fused lockstep executor
(:mod:`repro.routing.kernels`): every scheme in ``--schemes`` routes
``--packets`` packets of Zipf-skewed traffic through two configurations —

* **kernel** — the fused per-program-type cohort executor, single process;
* **kernel+shards** — fused kernels across ``--shards`` forked workers that
  share the compiled program and the pinned hot distance rows
  copy-on-write.

Both runs must produce bit-identical official streamed statistics
(asserted), so the ladder is a pure throughput comparison.  The JSON also
records per-core pps (sharded pps divided by the effective core count) and,
when a ``BENCH_e16.json`` rung is present beside the repo root, the speedup
of the fused engine over that recorded pre-kernel baseline per scheme.

Usage::

    PYTHONPATH=src python benchmarks/bench_e17_throughput.py
    PYTHONPATH=src python benchmarks/bench_e17_throughput.py \
        --n 20000 --packets 1000000 --schemes shortest-path cowen
    PYTHONPATH=src python benchmarks/bench_e17_throughput.py \
        --quick --assert-speedup --json /tmp/bench_e17.json
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.shortest_paths import DistanceOracle
from repro.traffic.engine import run_traffic
from repro.traffic.models import make_traffic_model

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
QUICK_SCHEMES = ["cowen", "agm"]
QUICK_SHARDS = 2


def load_e16_baseline(json_path: str) -> dict:
    """``scheme -> single-process pps`` from the recorded E16 rung, if any."""
    e16_path = os.path.join(os.path.dirname(json_path), "BENCH_e16.json")
    try:
        with open(e16_path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return {row["scheme"]: float(row["single_pps"])
            for row in payload.get("rows", [])
            if "scheme" in row and "single_pps" in row}


def ladder_stage(args, baseline_pps: dict) -> list:
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

        kernel = run_traffic(scheme, model, args.packets, shards=1,
                             batch_size=args.batch, engine="lockstep",
                             oracle=oracle, profile=args.profile)
        sharded = run_traffic(scheme, model, args.packets,
                              shards=args.shards, batch_size=args.batch,
                              engine="lockstep", oracle=oracle)

        summary = kernel.summary()
        stats_match = sharded.summary() == summary
        cores = min(args.shards, os.cpu_count() or 1)
        row = {
            "n": args.n,
            "scheme": name,
            "model": model.name,
            "zipf_support": support,
            "packets": args.packets,
            "batch_size": args.batch,
            "build_s": round(build_s, 2),
            "kernel_pps": round(kernel.pps, 1),
            "sharded_pps": round(sharded.pps, 1),
            "per_core_pps": round(sharded.pps / cores, 1),
            "shards": args.shards,
            "used_processes": sharded.processes,
            "stats_match": stats_match,
            "delivered": int(summary["delivered"]),
            "failures": int(summary["failures"]),
            "avg_stretch": summary["avg_stretch"],
            "p95_stretch": summary["stretch_p95"],
        }
        if args.profile:
            row["profile_kernel"] = {k: round(v, 3) for k, v
                                     in sorted((kernel.profile or {}).items())}
        if name in baseline_pps:
            row["e16_single_pps"] = baseline_pps[name]
            row["e16_speedup"] = round(kernel.pps / baseline_pps[name], 3)
        rows.append(row)
        e16_note = (f"  vs-e16 {row['e16_speedup']:.2f}x"
                    if "e16_speedup" in row else "")
        print(f"{row['n']:>6} {row['scheme']:>15} "
              f"kernel {row['kernel_pps']:>9.0f} pps  sharded({args.shards}) "
              f"{row['sharded_pps']:>9.0f}  match {stats_match}{e16_note}")
    return rows


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
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small graph, fewer packets")
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage wall-time breakdowns per run")
    parser.add_argument("--assert-speedup", action="store_true",
                        help="exit non-zero unless statistics are identical "
                             "across both configurations and all packets "
                             "are delivered")
    parser.add_argument("--json", default=None,
                        help="where to write the JSON rows "
                             "(default: BENCH_e17.json beside the repo root)")
    args = parser.parse_args()

    args.n = args.n or (QUICK_N if args.quick else DEFAULT_N)
    args.packets = args.packets or (QUICK_PACKETS if args.quick
                                    else DEFAULT_PACKETS)
    args.schemes = args.schemes or (QUICK_SCHEMES if args.quick
                                    else DEFAULT_SCHEMES)
    args.shards = args.shards or (QUICK_SHARDS if args.quick
                                  else DEFAULT_SHARDS)
    json_path = args.json or default_json_path(__file__, "BENCH_e17.json")

    print("# E17: fused hop kernels — throughput ladder")
    baseline_pps = load_e16_baseline(json_path)
    rows = ladder_stage(args, baseline_pps)
    payload = {
        "benchmark": "e17_throughput",
        "n": args.n,
        "packets_per_run": args.packets,
        "total_packets_routed": sum(2 * r["packets"] for r in rows),
        "schemes": args.schemes,
        "shards": args.shards,
        "batch_size": args.batch,
        "backend": "lazy",
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "meta": bench_meta(backend="lazy"),
    }
    write_bench_json(json_path, payload)
    print(f"wrote {json_path}")

    if args.assert_speedup:
        mismatched = [r["scheme"] for r in rows if not r["stats_match"]]
        assert not mismatched, \
            f"sharded statistics diverge from kernel: {mismatched}"
        assert_all_delivered(rows)
        print("assertions passed: statistics identical across the ladder, "
              "every packet delivered")


if __name__ == "__main__":
    main()
