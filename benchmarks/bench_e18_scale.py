"""E18 — out-of-core scale ladder: all six schemes at n up to 100k (and past).

Each ``(n, scheme)`` rung **forks a child process** that

1. sets ``REPRO_MEMORY_BUDGET`` (default ``16G``), so structures above the
   budget — the shortest-path scheme's 40 GB next-hop matrix at n=100k,
   the ball-CSR tables and SPT forests — spill to anonymous ``np.memmap``
   files instead of resident RAM;
2. builds the scheme against the **lazy** distance backend, which computes
   rows on demand (above n=4096 it never holds an n×n matrix);
3. routes ``--packets`` Zipf packets through the lockstep engine under an
   **approximate scoring mode** (``landmark`` by default: certified stretch
   upper bounds from ALT landmark rows, plus a seeded exact-row sample that
   measures the certificate slack — ``avg/max_score_error`` in the stats);
4. reports its own ``ru_maxrss`` back through a queue.

Forking per rung is what makes the peak-RSS column honest: ``ru_maxrss``
is monotone over a process lifetime, so rungs sharing one process would
all inherit the largest rung's peak — and memory is actually returned to
the OS between rungs.

Usage::

    PYTHONPATH=src python benchmarks/bench_e18_scale.py            # full ladder
    PYTHONPATH=src python benchmarks/bench_e18_scale.py \
        --sizes 20000 --packets 100000 --budget 2G
    PYTHONPATH=src python benchmarks/bench_e18_scale.py --quick --assert-ok
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import shutil
import tempfile
import time

from common import (assert_all_delivered, bench_meta, default_json_path,
                    peak_rss_bytes, write_bench_json)

DEFAULT_SIZES = [20000, 50000, 100000]
DEFAULT_SCHEMES = ["shortest-path", "cowen", "thorup-zwick", "exponential",
                   "awerbuch-peleg", "agm"]
DEFAULT_PACKETS = 1_000_000
DEFAULT_BATCH = 8192
DEFAULT_BUDGET = "16G"
DEFAULT_SCORING = "landmark"
DEFAULT_SAMPLE = 8
DEFAULT_LANDMARKS = 16
#: the first rung past 100k: schemes whose table footprint still fits the
#: machine.  shortest-path is *excluded* by default — its next-hop matrix
#: is n² · 4 B ≈ 233 GiB at n=250k, beyond this host's spill disk; the
#: payload records the skip so the committed JSON says why the row is
#: absent rather than silently omitting it.
DEFAULT_XL_SIZES = [250000]
DEFAULT_XL_SCHEMES = ["cowen"]
XL_NOTE = ("shortest-path skipped at xl sizes: the dense next-hop matrix "
           "needs n^2 * 4 bytes of spill disk (233 GiB at n=250k)")
QUICK_SIZES = [2000]
QUICK_PACKETS = 50_000
QUICK_BUDGET = "8M"          # force the spill path even at toy sizes

#: above this size the agm rung switches from the paper parameterization
#: to k=3 with a small landmark factor: at the paper's factor-16 nearby
#: landmark count and k<=3, S(v,j) degenerates to "every finite member"
#: (nearby >= n), which makes every used-center tree span its whole
#: component — Θ(n) trees of Θ(n) nodes is the dense-table regime the
#: scheme exists to avoid.  The experiment parameterization keeps the
#: sublinear structure the paper's asymptotics describe; the row records
#: the parameterization it measured.
AGM_XL_THRESHOLD = 20000


def scheme_build_kwargs(scheme_name: str, n: int):
    """Per-scheme constructor kwargs for one rung, plus a description.

    Returned lazily inside the child (imports repro); every non-default
    choice is recorded in the row's ``build_params`` column.
    """
    if scheme_name == "agm" and n >= AGM_XL_THRESHOLD:
        from repro.core.params import AGMParams
        return ({"k": 3, "params": AGMParams.experiment(0.05)},
                "k=3 experiment(landmark_count_factor=0.05)")
    return {"k": 2}, "k=2"


def run_rung(n: int, scheme_name: str, args, queue, spill_dir=None) -> None:
    """Child-process body: build one scheme at one size, route, report."""
    os.environ["REPRO_MEMORY_BUDGET"] = args.budget
    if spill_dir:
        # parent-owned per-rung scratch dir: survives a SIGKILLed child
        # only until the parent's cleanup handler removes it
        os.environ["REPRO_SPILL_DIR"] = spill_dir

    from repro.experiments.workloads import make_workload
    from repro.factory import build_scheme
    from repro.graphs.backends import LazyDijkstraBackend
    from repro.graphs.shortest_paths import DistanceOracle
    from repro.storage import reset_accounting, storage_report
    from repro.traffic.engine import run_traffic
    from repro.traffic.models import make_traffic_model
    from repro.traffic.scoring import make_scorer

    reset_accounting()
    graph = make_workload(args.family, n, seed=args.seed)
    support = min(args.zipf_support, max(n // 4, 8))
    backend = LazyDijkstraBackend(graph, cache_rows=support + 64)
    oracle = DistanceOracle(graph, backend=backend)
    model = make_traffic_model("zipf", graph, seed=args.seed + 1,
                               support=support)

    build_kwargs, build_params = scheme_build_kwargs(scheme_name, n)
    t0 = time.perf_counter()
    scheme = build_scheme(scheme_name, graph, seed=args.seed + 2,
                          oracle=oracle, **build_kwargs)
    build_s = time.perf_counter() - t0

    scorer = make_scorer(args.scoring, graph, oracle, seed=args.seed + 1,
                         sample_per_batch=args.sample_per_batch,
                         num_landmarks=args.landmarks)
    report = run_traffic(scheme, model, args.packets, shards=args.shards,
                         batch_size=args.batch, engine="lockstep",
                         oracle=oracle, scoring=scorer)
    summary = report.stats.summary()
    storage = storage_report()
    # under a bounding scorer (landmark) the stretch columns are certified
    # upper bounds and carry the stretch_upper prefix; exact/sampled runs
    # keep the plain stretch names — the two are never conflated in a row
    prefix = report.stats.stretch_prefix
    row = {
        "n": n,
        "scheme": scheme_name,
        "build_params": build_params,
        "model": model.name,
        "zipf_support": support,
        "packets": args.packets,
        "batch_size": args.batch,
        "backend": "lazy",
        "scoring": report.scoring,
        "memory_budget": args.budget,
        "build_s": round(build_s, 2),
        "route_s": round(report.seconds, 2),
        "pps": round(report.pps, 1),
        "delivered": int(summary["delivered"]),
        "failures": int(summary["failures"]),
        "unreachable": int(summary["unreachable"]),
        f"avg_{prefix}": summary[f"avg_{prefix}"],
        f"max_{prefix}": summary[f"max_{prefix}"],
        f"{prefix}_count": int(summary[f"{prefix}_count"]),
        "avg_score_error": summary.get("avg_score_error"),
        "max_score_error": summary.get("max_score_error"),
        f"{prefix}_stderr": summary.get(f"{prefix}_stderr"),
        "peak_rss_bytes": peak_rss_bytes(),
        "spilled_bytes": storage["spilled_bytes"],
        "spill_count": storage["spill_count"],
        "spill_high_water_bytes": storage.get("spill_high_water_bytes", 0),
        "row_cache": backend.row_cache_report(),
    }
    queue.put(row)


def run_one(n: int, scheme_name: str, args, ctx) -> dict:
    """Fork one rung; clean its spill scratch even when it dies.

    The child gets a private ``REPRO_SPILL_DIR`` under the parent's
    control.  Memmap scratch files are mkstemp-then-unlinked, so a child
    that *exits* leaks nothing — but a SIGKILLed child (OOM killer) can
    die between mkstemp and unlink, and an operator-supplied spill dir
    must not accumulate those orphans across an hours-long ladder.  The
    ``finally`` below removes the whole per-rung directory regardless of
    how the child ended.
    """
    queue = ctx.Queue()
    spill_dir = tempfile.mkdtemp(prefix=f"e18-{n}-{scheme_name}-",
                                 dir=os.environ.get("REPRO_SPILL_DIR") or None)
    child = ctx.Process(target=run_rung,
                        args=(n, scheme_name, args, queue, spill_dir))
    child.start()
    try:
        row = None
        while row is None:      # poll so a crashed rung aborts the ladder
            try:
                row = queue.get(timeout=30)
            except Exception:
                if not child.is_alive():
                    child.join()
                    raise RuntimeError(
                        f"rung n={n} scheme={scheme_name} died "
                        f"(exit {child.exitcode}) without reporting")
        child.join()
        return row
    finally:
        if child.is_alive():
            child.terminate()
            child.join()
        shutil.rmtree(spill_dir, ignore_errors=True)


def ladder(args, partial_path=None) -> list:
    ctx = mp.get_context("fork")
    rows = []
    rungs = [(n, s) for n in args.sizes for s in args.schemes]
    rungs += [(n, s) for n in args.xl_sizes for s in args.xl_schemes]
    for n, scheme_name in rungs:
        start = time.perf_counter()
        try:
            row = run_one(n, scheme_name, args, ctx)
        except RuntimeError as exc:
            # a dead rung (OOM kill, crash) must not void the hours of
            # completed rungs behind it or the rungs still ahead; the
            # error row keeps the failure visible (and fails --assert-ok)
            row = {"n": n, "scheme": scheme_name, "error": str(exc),
                   "failures": -1}
        row["rung_wall_s"] = round(time.perf_counter() - start, 2)
        rows.append(row)
        if partial_path:
            # hours-long ladder: completed rungs survive a late crash.
            # the .partial file is scratch state (gitignored, never the
            # final artifact) but still written atomically so it is
            # readable at any instant
            write_bench_json(partial_path, rows)
        if "error" in row:
            print(f"{n:>7} {scheme_name:>15} DIED: {row['error']}",
                  flush=True)
            continue
        print(f"{row['n']:>7} {row['scheme']:>15} "
              f"build {row['build_s']:>8.1f}s "
              f"route {row['route_s']:>7.1f}s {row['pps']:>9.0f} pps "
              f"rss {row['peak_rss_bytes'] / 2**30:>6.2f} GiB "
              f"spill {row['spilled_bytes'] / 2**30:>6.2f} GiB "
              f"fail {row['failures']}", flush=True)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--family", default="barabasi-albert",
                        help="workload family (scale-free by default: the "
                        "sparse internet-like testbed the schemes target)")
    parser.add_argument("--schemes", nargs="+", default=DEFAULT_SCHEMES)
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--budget", default=None,
                        help="REPRO_MEMORY_BUDGET for every rung (e.g. 16G)")
    parser.add_argument("--scoring", default=DEFAULT_SCORING,
                        choices=["landmark", "sampled", "exact"])
    parser.add_argument("--sample-per-batch", type=int, default=DEFAULT_SAMPLE,
                        help="exact-row certificate sample size per batch")
    parser.add_argument("--landmarks", type=int, default=DEFAULT_LANDMARKS)
    parser.add_argument("--zipf-support", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--xl-sizes", type=int, nargs="*", default=None,
                        help="first-rung-past-100k sizes (default 250000; "
                             "empty list disables)")
    parser.add_argument("--xl-schemes", nargs="*", default=None,
                        help=f"schemes run at the xl sizes (default "
                             f"{DEFAULT_XL_SCHEMES}; see XL_NOTE for why "
                             f"shortest-path is not among them)")
    parser.add_argument("--quick", action="store_true",
                        help="toy ladder with a budget small enough to spill")
    parser.add_argument("--assert-ok", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    args.sizes = args.sizes or (QUICK_SIZES if args.quick else DEFAULT_SIZES)
    args.packets = args.packets or (QUICK_PACKETS if args.quick
                                    else DEFAULT_PACKETS)
    args.budget = args.budget or (QUICK_BUDGET if args.quick
                                  else DEFAULT_BUDGET)
    if args.xl_sizes is None:
        args.xl_sizes = [] if args.quick else DEFAULT_XL_SIZES
    if args.xl_schemes is None:
        args.xl_schemes = DEFAULT_XL_SCHEMES if args.xl_sizes else []
    json_path = args.json or default_json_path(__file__, "BENCH_e18.json")

    print(f"# E18: out-of-core scale ladder — sizes {args.sizes} "
          f"(+xl {args.xl_sizes} for {args.xl_schemes}), "
          f"schemes {args.schemes}, budget {args.budget}, "
          f"scoring {args.scoring}", flush=True)
    rows = ladder(args, partial_path=json_path + ".partial")

    payload = {
        "benchmark": "e18_scale",
        "family": args.family,
        "sizes": args.sizes,
        "schemes": args.schemes,
        "xl_sizes": args.xl_sizes,
        "xl_schemes": args.xl_schemes,
        "xl_note": XL_NOTE if args.xl_sizes else None,
        "packets_per_run": args.packets,
        "batch_size": args.batch,
        "backend": "lazy",
        "scoring": args.scoring,
        "memory_budget": args.budget,
        "sample_per_batch": args.sample_per_batch,
        "landmarks": args.landmarks,
        "seed": args.seed,
        "rows": rows,
        "meta": bench_meta(scoring=args.scoring),
    }
    write_bench_json(json_path, payload)
    try:
        os.unlink(json_path + ".partial")   # superseded by the complete file
    except OSError:
        pass
    print(f"wrote {json_path}")

    if args.assert_ok:
        assert_all_delivered(rows)
        print("assertions passed: zero failures on every rung")


if __name__ == "__main__":
    main()
