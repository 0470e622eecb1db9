"""E15 — churn: repair cost, stretch drift, and delivery under failures.

Runs a churn scenario (default: ``flap-heavy`` on a scale-free graph with
``n >= 1000``) through ``--epochs`` event epochs with **all six schemes live**,
one :func:`repro.experiments.harness.run_live_matrix` timeline per scheme over
the same seeded event sequence: per epoch the event batch is applied, a probe
of ``--pairs`` uniform packets is routed on the scheme's *stale* forwarding
program (delivery under stale state), the scheme is repaired, and
``--pairs`` uniform packets are routed on the repaired tables.  Every epoch's
statistics are re-derived through the scalar ``route()`` reference engine and
a different shard split; a mismatch raises.  Every scheme repairs by
``maintain()``, a full rebuild on the mutated graph.

Reported per (epoch, scheme): events applied, stale delivery rate,
post-repair delivery rate and stretch drift (average stretch minus the
scheme's epoch-0 value), repair seconds + strategy, and forwarding recompile
seconds; the summary totals each scheme's repair and recompile seconds over
the churn epochs.  JSON lands in ``BENCH_e15.json`` next to the repo root so
future changes have a repair-cost trajectory to compare against.

``--quick`` shrinks the run for CI; ``--assert`` fails the process unless
every epoch passed the determinism cross-check and post-repair delivery is
total.

Usage::

    PYTHONPATH=src python benchmarks/bench_e15_churn.py
    PYTHONPATH=src python benchmarks/bench_e15_churn.py \
        --n 1000 --epochs 5 --scenario flap-heavy
    PYTHONPATH=src python benchmarks/bench_e15_churn.py \
        --quick --assert --json /tmp/bench_e15.json
"""

from __future__ import annotations

import argparse
import math

from repro.core.params import AGMParams
from repro.dynamics.scenario import SCENARIO_NAMES
from repro.experiments.harness import run_live_matrix
from repro.experiments.workloads import workload_factory
from repro.factory import SCHEME_NAMES

from common import bench_meta, default_json_path, write_bench_json

DEFAULT_N = 1000
DEFAULT_EPOCHS = 5
DEFAULT_PAIRS = 250
QUICK_N = 240
QUICK_EPOCHS = 3
QUICK_PAIRS = 120


def scheme_kwargs(n: int) -> dict:
    """Per-scheme constructor extras (AGM constants scaled as in E13/E14)."""
    if n > 256:
        factor = 16.0 / (n * math.log2(max(n, 2)))
        return {"agm": {"params": AGMParams.experiment(landmark_count_factor=factor)}}
    return {"agm": {"params": AGMParams.experiment()}}


def run(args, family: str = "barabasi-albert") -> list:
    rows = run_live_matrix(
        "e15",
        args.schemes,
        workload_factory(family, args.n, seed=args.seed),
        scenario=args.scenario,
        epochs=args.epochs,
        epoch_packets=args.pairs,
        stale_packets=args.pairs,
        model="uniform",
        seed=args.seed,
        backend=args.backend if args.backend != "auto" else None,
        scheme_kwargs=scheme_kwargs(args.n),
        verify_determinism=True,
    ).rows
    baseline = {row["scheme"]: row["avg_stretch"]
                for row in rows if row["epoch"] == 0}
    for row in rows:
        row["stretch_drift"] = row["avg_stretch"] - baseline[row["scheme"]]
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=None,
                        help=f"graph size (default {DEFAULT_N})")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=None)
    parser.add_argument("--schemes", nargs="+", default=list(SCHEME_NAMES),
                        choices=list(SCHEME_NAMES))
    parser.add_argument("--scenario", default="flap-heavy",
                        choices=list(SCENARIO_NAMES))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--backend", default="dense",
                        choices=["auto", "dense", "lazy"],
                        help="distance backend for the shared oracle")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small graph, fewer epochs/pairs")
    parser.add_argument("--assert", dest="check", action="store_true",
                        help="exit non-zero unless determinism + delivery "
                             "hold")
    parser.add_argument("--json", default=None,
                        help="where to write the JSON rows "
                             "(default: BENCH_e15.json beside the repo root)")
    args = parser.parse_args()

    args.n = args.n or (QUICK_N if args.quick else DEFAULT_N)
    args.epochs = args.epochs or (QUICK_EPOCHS if args.quick else DEFAULT_EPOCHS)
    args.pairs = args.pairs or (QUICK_PAIRS if args.quick else DEFAULT_PAIRS)
    json_path = args.json or default_json_path(__file__, "BENCH_e15.json")

    print(f"# E15: churn scenario '{args.scenario}' at n={args.n}, "
          f"{args.epochs} epochs, {args.pairs} packets/epoch")
    header = (f"{'ep':>3} {'scheme':>15} {'events':>6} "
              f"{'stale':>6} {'deliv':>6} {'drift':>7} {'repair':>13} "
              f"{'rep_s':>7} {'recmp_s':>8} {'checked':>7}")
    print(header)
    print("-" * len(header))

    rows = run(args)
    for row in rows:
        print(f"{row['epoch']:>3} {row['scheme']:>15} "
              f"{row['events']:>6} {row['stale_delivery']:>6.2f} "
              f"{row['delivery_rate']:>6.2f} {row['stretch_drift']:>+7.3f} "
              f"{row['repair_strategy']:>13} {row['repair_seconds']:>7.3f} "
              f"{row['recompile_seconds']:>8.3f} "
              f"{str(row['determinism_checked']):>7}")

    summary = {scheme: {field: round(sum(r[field] for r in rows
                                         if r["scheme"] == scheme
                                         and r["epoch"] > 0), 4)
                        for field in ("repair_seconds", "recompile_seconds")}
               for scheme in args.schemes}
    print("\nrepair cost over all churn epochs:")
    for scheme, cell in summary.items():
        print(f"  {scheme:>15}: repair {cell['repair_seconds']:.3f}s, "
              f"recompile {cell['recompile_seconds']:.3f}s")

    payload = {
        "benchmark": "e15_churn",
        "n": args.n,
        "epochs": args.epochs,
        "packets_per_epoch": args.pairs,
        "stale_packets": args.pairs,
        "model": "uniform",
        "verify_determinism": True,
        "scenario": args.scenario,
        "schemes": args.schemes,
        "seed": args.seed,
        "backend": args.backend,
        "summary": summary,
        "rows": rows,
        "meta": bench_meta(backend=args.backend),
    }
    write_bench_json(json_path, payload)
    print(f"wrote {json_path}")

    if args.check:
        unchecked = [r for r in rows if not r["determinism_checked"]]
        assert not unchecked, (
            f"determinism cross-check missing under churn: {unchecked[:3]}")
        undelivered = [r for r in rows
                       if r["epoch"] > 0 and r["packets"] > 0
                       and r["delivery_rate"] < 1.0]
        assert not undelivered, (
            f"post-repair delivery incomplete: {undelivered[:3]}")
        print("assertions passed: determinism checks everywhere, full "
              "post-repair delivery")


if __name__ == "__main__":
    main()
