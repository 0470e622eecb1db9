"""E19 — live network: traffic and churn interleaved on one seeded clock.

Drives :func:`repro.experiments.harness.run_live_matrix` — one
``LiveSimulator`` timeline per scheme over the *same* seeded event
sequence.  Per epoch the timeline captures the compiled forwarding
program, applies the scenario's churn batch, routes a probe batch on the
**stale** program over the mutated graph (staleness-window loss: packets
in flight between failure and repair), repairs the scheme with
``maintain()``, recompiles forwarding, and streams the epoch's traffic
through the traffic engine.  Reported per (scheme, epoch): events,
staleness-window delivery, repair strategy/seconds, recompile seconds,
the post-repair SLA delivery rate and the streamed stretch/hop
statistics.

The default run keeps ``verify_determinism=True``: every epoch's official
statistics are re-derived under a different shard split and through the
scalar ``route()`` reference engine and must match **bit for bit** — the
timeline's numbers do not depend on how the work was partitioned or which
engine routed it.

``--quick`` shrinks the run for CI; ``--assert`` fails the process unless
every post-repair epoch delivers 100% of reachable traffic, every epoch
passed the determinism cross-checks, and the flap scenario produced real
staleness-window loss for the timeline to account for.

Usage::

    PYTHONPATH=src python benchmarks/bench_e19_live.py
    PYTHONPATH=src python benchmarks/bench_e19_live.py \
        --n 20000 --epochs 5 --packets 100000
    PYTHONPATH=src python benchmarks/bench_e19_live.py \
        --quick --assert --json /tmp/bench_e19.json
"""

from __future__ import annotations

import argparse
import os

from repro.dynamics.scenario import SCENARIO_NAMES
from repro.experiments.harness import run_live_matrix
from repro.graphs.generators import make_graph

from common import bench_meta, default_json_path, write_bench_json

DEFAULT_N = 20_000
DEFAULT_EPOCHS = 5
DEFAULT_PACKETS = 100_000
DEFAULT_STALE = 4096
DEFAULT_SCHEMES = ["shortest-path", "cowen", "thorup-zwick"]
QUICK_N = 300
QUICK_EPOCHS = 2
QUICK_PACKETS = 4000
QUICK_STALE = 512


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=None,
                        help=f"graph size (default {DEFAULT_N})")
    parser.add_argument("--epochs", type=int, default=None,
                        help=f"churn epochs (default {DEFAULT_EPOCHS})")
    parser.add_argument("--packets", type=int, default=None,
                        help=f"packets per epoch (default {DEFAULT_PACKETS})")
    parser.add_argument("--stale-packets", type=int, default=None,
                        help="probe packets per staleness window "
                             f"(default {DEFAULT_STALE})")
    parser.add_argument("--schemes", nargs="+", default=DEFAULT_SCHEMES)
    parser.add_argument("--scenario", default="flap-heavy",
                        choices=list(SCENARIO_NAMES))
    parser.add_argument("--family", default="barabasi-albert")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scoring", default=None,
                        choices=["exact", "sampled", "landmark"],
                        help="stretch scoring mode (default: landmark at "
                             "full size, exact under --quick)")
    parser.add_argument("--no-verify", dest="verify", action="store_false",
                        help="skip the per-epoch determinism cross-checks "
                             "(3x less routing, no bit-identity guarantee)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small graph, short timeline")
    parser.add_argument("--assert", dest="check", action="store_true",
                        help="exit non-zero unless post-repair delivery is "
                             "total and every determinism check passed")
    parser.add_argument("--json", default=None,
                        help="where to write the JSON rows "
                             "(default: BENCH_e19.json beside the repo root)")
    args = parser.parse_args()

    args.n = args.n or (QUICK_N if args.quick else DEFAULT_N)
    args.epochs = args.epochs or (QUICK_EPOCHS if args.quick else DEFAULT_EPOCHS)
    args.packets = args.packets or (QUICK_PACKETS if args.quick else DEFAULT_PACKETS)
    if args.stale_packets is None:
        args.stale_packets = QUICK_STALE if args.quick else DEFAULT_STALE
    # exact scoring is exact-oracle work per packet — fine at smoke scale,
    # certified landmark bounds at full scale (as in E18)
    scoring = args.scoring or ("exact" if args.quick else "landmark")
    json_path = args.json or default_json_path(__file__, "BENCH_e19.json")

    print(f"# E19: live timeline '{args.scenario}' at n={args.n}, "
          f"{args.epochs} epochs x {args.packets} packets, "
          f"scoring {scoring}, verify={args.verify}")
    result = run_live_matrix(
        "e19_live",
        args.schemes,
        lambda: make_graph(args.family, n=args.n, seed=args.seed),
        scenario=args.scenario,
        k=args.k,
        epochs=args.epochs,
        epoch_packets=args.packets,
        stale_packets=args.stale_packets,
        seed=args.seed,
        scoring=scoring,
        verify_determinism=args.verify,
    )

    header = (f"{'scheme':>15} {'ep':>3} {'events':>6} {'stale':>6} "
              f"{'sla':>7} {'repair':>13} {'rep_s':>7} {'recmp_s':>8} "
              f"{'pps':>9} {'checked':>7}")
    print(header)
    print("-" * len(header))
    for row in result.rows:
        print(f"{row['scheme']:>15} {row['epoch']:>3} {row['events']:>6} "
              f"{row['stale_delivery']:>6.3f} {row['delivery_rate']:>7.4f} "
              f"{row['repair_strategy']:>13} {row['repair_seconds']:>7.3f} "
              f"{row['recompile_seconds']:>8.3f} {row['pps']:>9.0f} "
              f"{str(row['determinism_checked']):>7}")

    print("\ntimeline summaries:")
    for scheme, summary in result.metadata["timelines"].items():
        print(f"  {scheme:>15}: min SLA delivery "
              f"{summary['min_delivery_rate']:.4f}, worst window loss "
              f"{summary['max_stale_loss']:.3f}, repair "
              f"{summary['total_repair_seconds']:.3f}s over "
              f"{summary['epochs'] - 1} repairs")

    payload = {
        "benchmark": "e19_live",
        "n": args.n,
        "epochs": args.epochs,
        "packets_per_epoch": args.packets,
        "stale_packets": args.stale_packets,
        "scenario": args.scenario,
        "schemes": args.schemes,
        "k": args.k,
        "seed": args.seed,
        "backend": "lazy",
        "scoring": scoring,
        "verify_determinism": args.verify,
        "timelines": result.metadata["timelines"],
        "rows": result.rows,
        "meta": bench_meta(),
    }
    write_bench_json(json_path, payload)
    print(f"wrote {json_path}")

    if args.check:
        undelivered = [r for r in result.rows
                       if r["epoch"] > 0 and r["delivery_rate"] < 1.0]
        assert not undelivered, (
            f"SLA broken: delivery below 100% after repair: {undelivered[:3]}")
        if args.verify:
            unchecked = [r for r in result.rows
                         if not r["determinism_checked"]]
            assert not unchecked, (
                f"determinism cross-check missing: {unchecked[:3]}")
        lossy = [r for r in result.rows
                 if r["epoch"] > 0 and r["stale_loss"] > 0]
        assert lossy, ("no staleness-window loss anywhere — the scenario "
                       "never exercised stale state")
        print("assertions passed: full post-repair delivery, determinism "
              "checks everywhere, staleness window observed real loss")


if __name__ == "__main__":
    main()
