"""E15 — churn: repair cost, stretch drift, and delivery under failures.

Runs a churn scenario (default: ``flap-heavy`` on a scale-free graph with
``n >= 1000``) through ``--epochs`` event epochs with **all six schemes live**,
one :func:`repro.experiments.harness.run_live_matrix` timeline per scheme over
the same seeded event sequence: per epoch the event batch is applied, a probe
of ``--pairs`` uniform packets is routed on the scheme's *stale* forwarding
program (delivery under stale state), the scheme is repaired, and
``--pairs`` uniform packets are routed on the repaired tables.  Every epoch's
statistics are re-derived through the scalar ``route()`` reference engine and
a different shard split; a mismatch raises.

The run happens **twice on the same seed**: once with ``repair="maintain"``
(incremental where the scheme supports it — Thorup–Zwick re-slots only
dirtied trees in its ``TreeBank``; every other scheme rebuilds) and once with
``repair="full"`` (forced full rebuild).  The summary prices each scheme's
``maintain`` against the full recompile.

Reported per (mode, epoch, scheme): events applied, stale delivery rate,
post-repair delivery rate and stretch drift (average stretch minus the
scheme's epoch-0 value), repair seconds + strategy, and forwarding recompile
seconds.  JSON lands in ``BENCH_e15.json`` next to the repo root so future
changes have a repair-cost trajectory to compare against.

``--quick`` shrinks the run for CI; ``--assert`` fails the process unless
every epoch passed the determinism cross-check, post-repair delivery is
total, and incremental repair beats the full rebuild for the
incremental-capable schemes.

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
import os

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

#: schemes whose maintain() is incremental — the bench asserts these beat
#: the forced full rebuild
INCREMENTAL_SCHEMES = ("thorup-zwick",)


def scheme_kwargs(n: int) -> dict:
    """Per-scheme constructor extras (AGM constants scaled as in E13/E14)."""
    if n > 256:
        factor = 16.0 / (n * math.log2(max(n, 2)))
        return {"agm": {"params": AGMParams.experiment(landmark_count_factor=factor)}}
    return {"agm": {"params": AGMParams.experiment()}}


def run_mode(mode: str, args, family: str = "barabasi-albert") -> list:
    rows = run_live_matrix(
        f"e15_{mode}",
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
        repair=mode,
        verify_determinism=True,
    ).rows
    baseline = {row["scheme"]: row["avg_stretch"]
                for row in rows if row["epoch"] == 0}
    for row in rows:
        row["mode"] = mode
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
                             "hold and incremental repair beats the full "
                             "rebuild")
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
    header = (f"{'mode':>8} {'ep':>3} {'scheme':>15} {'events':>6} "
              f"{'stale':>6} {'deliv':>6} {'drift':>7} {'repair':>13} "
              f"{'rep_s':>7} {'recmp_s':>8} {'checked':>7}")
    print(header)
    print("-" * len(header))

    rows = []
    for mode in ("maintain", "full"):
        for row in run_mode(mode, args):
            rows.append(row)
            print(f"{row['mode']:>8} {row['epoch']:>3} {row['scheme']:>15} "
                  f"{row['events']:>6} {row['stale_delivery']:>6.2f} "
                  f"{row['delivery_rate']:>6.2f} {row['stretch_drift']:>+7.3f} "
                  f"{row['repair_strategy']:>13} {row['repair_seconds']:>7.3f} "
                  f"{row['recompile_seconds']:>8.3f} "
                  f"{str(row['determinism_checked']):>7}")

    # price incremental repair against the forced full rebuild
    summary = {}
    for scheme in args.schemes:
        def total(mode, field):
            return sum(r[field] for r in rows
                       if r["scheme"] == scheme and r["mode"] == mode
                       and r["epoch"] > 0)
        incremental = total("maintain", "repair_seconds") \
            + total("maintain", "recompile_seconds")
        full = total("full", "repair_seconds") + total("full", "recompile_seconds")
        summary[scheme] = {
            "incremental_repair_s": round(incremental, 4),
            "full_rebuild_s": round(full, 4),
            "speedup": round(full / incremental, 2) if incremental > 0 else None,
        }
    print("\nrepair cost over all epochs (repair + forwarding recompile):")
    for scheme, cell in summary.items():
        tag = " (incremental)" if scheme in INCREMENTAL_SCHEMES else ""
        print(f"  {scheme:>15}: maintain {cell['incremental_repair_s']:.3f}s vs "
              f"full {cell['full_rebuild_s']:.3f}s "
              f"-> {cell['speedup']}x{tag}")

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
        for scheme in INCREMENTAL_SCHEMES:
            if scheme not in args.schemes:
                continue
            cell = summary[scheme]
            # the margin only rejects a real regression (incremental grossly
            # above full)
            assert cell["incremental_repair_s"] < 1.15 * cell["full_rebuild_s"], (
                f"incremental repair of {scheme} regressed against the full "
                f"rebuild: {cell}")
        print("assertions passed: determinism checks everywhere, full "
              "post-repair delivery, incremental repair cheaper than full "
              "rebuild")


if __name__ == "__main__":
    main()
