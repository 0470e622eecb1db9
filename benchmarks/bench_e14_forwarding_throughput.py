"""E14 — forwarding throughput: packets/second, scalar vs lockstep engines.

For each ``n`` in ``--sizes`` a scale-free (Barabási–Albert) workload graph
is built; every scheme in ``--schemes`` is constructed once, compiled once
(``compile_forwarding``), and then the *same* sampled pair batch is evaluated
under both engines.  Reported per (n, scheme):

* ``scalar_pps`` / ``lockstep_pps`` — evaluated pairs per second (including
  verification and stretch scoring, i.e. end-to-end evaluation throughput),
* ``speedup`` — lockstep over scalar,
* ``compile_s`` — one-time forwarding-table compilation cost,
* ``parity`` — whether the two engines' evaluation reports agree field for
  field (they must; a mismatch is a bug in the compiled-forwarding layer).

Both engines score stretch through one shared oracle over the lazy
distance backend, so the exact-distance work is identical on both sides of
the speedup.

Results are also emitted as machine-readable JSON (``--json``, default
``BENCH_e14.json`` next to the repo root) so future changes have a
packets/second trajectory to compare against.

``--quick`` shrinks the run for CI (one small size, fewer pairs);
``--assert-speedup`` fails the process when parity breaks or the lockstep
engine is not at least as fast as the scalar engine in aggregate — the CI
perf-regression guard.

Usage::

    PYTHONPATH=src python benchmarks/bench_e14_forwarding_throughput.py
    PYTHONPATH=src python benchmarks/bench_e14_forwarding_throughput.py \
        --sizes 1000 5000 --pairs 2000 --schemes thorup-zwick awerbuch-peleg
    PYTHONPATH=src python benchmarks/bench_e14_forwarding_throughput.py \
        --quick --assert-speedup --json /tmp/bench_e14.json
"""

from __future__ import annotations

import argparse
import math
import os
import time

from repro.core.params import AGMParams
from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.simulator import RoutingSimulator

from common import bench_meta, default_json_path, write_bench_json

DEFAULT_SIZES = [1000, 5000, 20000]
DEFAULT_PAIRS = 2000
QUICK_SIZES = [400]
QUICK_PAIRS = 1500


def scheme_kwargs(name: str, n: int) -> dict:
    """Per-scheme constructor extras (AGM landmark constant scaled with n)."""
    if name == "agm" and n > 256:
        # keep |S(u, i)| ~16 at this n (exponents untouched)
        factor = 16.0 / (n * math.log2(max(n, 2)))
        return {"params": AGMParams.experiment(landmark_count_factor=factor)}
    if name == "agm":
        return {"params": AGMParams.experiment()}
    return {}


def run_cell(sim, graph, oracle, name: str, pairs, seed: int) -> dict:
    """Build + compile one scheme, evaluate the batch under both engines."""
    t0 = time.perf_counter()
    scheme = build_scheme(name, graph, k=2, seed=seed, oracle=oracle,
                          **scheme_kwargs(name, graph.n))
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_report = sim.evaluate(scheme, pairs=pairs, engine="scalar")
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    program = scheme.compiled_forwarding()
    compile_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    lockstep_report = sim.evaluate(scheme, pairs=pairs, engine="lockstep")
    lockstep_s = time.perf_counter() - t0

    scalar_dict = scalar_report.as_dict()
    lockstep_dict = lockstep_report.as_dict()
    scalar_dict.pop("engine")
    lockstep_dict.pop("engine")
    return {
        "n": graph.n,
        "scheme": name,
        "pairs": len(pairs),
        "build_s": round(build_s, 4),
        "compile_s": round(compile_s, 4),
        "scalar_s": round(scalar_s, 4),
        "lockstep_s": round(lockstep_s, 4),
        "scalar_pps": round(len(pairs) / scalar_s, 1),
        "lockstep_pps": round(len(pairs) / lockstep_s, 1),
        "speedup": round(scalar_s / lockstep_s, 2),
        "parity": scalar_dict == lockstep_dict,
        "avg_stretch": scalar_dict["avg_stretch"],
        "failures": scalar_dict["failures"],
        "compiled_trees": program.describe()["trees"],
        "compiled_table_entries": program.describe()["table_entries"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=None)
    parser.add_argument("--schemes", nargs="+", default=list(SCHEME_NAMES),
                        choices=list(SCHEME_NAMES))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: one small size, fewer pairs")
    parser.add_argument("--assert-speedup", action="store_true",
                        help="exit non-zero unless parity holds everywhere and "
                             "aggregate lockstep throughput >= scalar")
    parser.add_argument("--json", default=None,
                        help="where to write the JSON rows "
                             "(default: BENCH_e14.json beside the repo root)")
    args = parser.parse_args()

    sizes = args.sizes or (QUICK_SIZES if args.quick else DEFAULT_SIZES)
    num_pairs = args.pairs or (QUICK_PAIRS if args.quick else DEFAULT_PAIRS)
    json_path = args.json or default_json_path(__file__, "BENCH_e14.json")

    print("# E14: evaluation throughput, scalar vs lockstep (pairs/second)")
    header = (f"{'n':>6} {'scheme':>15} {'build_s':>8} {'compile_s':>9} "
              f"{'scalar_pps':>11} {'lockstep_pps':>13} {'speedup':>8} {'parity':>7}")
    print(header)
    print("-" * len(header))

    rows = []
    for n in sizes:
        graph = make_workload("barabasi-albert", n, seed=args.seed)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        pairs = sim.sample_pairs(num_pairs, seed=args.seed + 1)
        for name in args.schemes:
            row = run_cell(sim, graph, oracle, name, pairs, seed=args.seed + 2)
            rows.append(row)
            print(f"{row['n']:>6} {row['scheme']:>15} {row['build_s']:>8.1f} "
                  f"{row['compile_s']:>9.2f} {row['scalar_pps']:>11.0f} "
                  f"{row['lockstep_pps']:>13.0f} {row['speedup']:>7.1f}x "
                  f"{str(row['parity']):>7}")

    total_scalar = sum(r["scalar_s"] for r in rows)
    total_lockstep = sum(r["lockstep_s"] for r in rows)
    aggregate = total_scalar / total_lockstep if total_lockstep else float("inf")
    print(f"\naggregate speedup (sum of scalar time / sum of lockstep time): "
          f"{aggregate:.1f}x")

    payload = {
        "benchmark": "e14_forwarding_throughput",
        "sizes": sizes,
        "pairs": num_pairs,
        "schemes": args.schemes,
        "seed": args.seed,
        "backend": "lazy",
        "aggregate_speedup": round(aggregate, 2),
        "rows": rows,
        "meta": bench_meta(),
    }
    write_bench_json(json_path, payload)
    print(f"wrote {json_path}")

    if args.assert_speedup:
        broken = [r for r in rows if not r["parity"]]
        assert not broken, f"engine parity broken for: {broken}"
        assert aggregate >= 1.0, (
            f"lockstep engine slower than scalar in aggregate ({aggregate:.2f}x)")
        print("assertions passed: parity everywhere, lockstep >= scalar")


if __name__ == "__main__":
    main()
