#!/usr/bin/env python3
"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload agm-zipf-route --seed 7 \
        --seconds 25 --trace 0

``--trace 0`` repeats the workload in fresh forked children until
``--seconds`` have passed (at least three repetitions) and prints the
end-to-end metrics: timings as medians over the repetitions, quality
figures from the outputs, which must be identical on every repetition.
``--trace 1`` runs the workload once untraced and once traced at the same
seed, requires both to produce the same outputs bit for bit, and prints the
per-layer metrics plus the tracing overhead.

Every repetition runs in a child forked after every ``REPRO_*`` variable
was removed from the environment and the math libraries were pinned to one
thread.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero when a walk fails hop verification, a reachable packet is not
delivered, or outputs differ between repetitions.  A record of the run --
its conditions, every repetition and, when traced, every span -- is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: the lazy distance backend spills evicted rows to temporary files; keep
#: them inside the checkout
TMP_DIR = os.path.join(OUT_DIR, "tmp")

MIN_REPS = 3
#: no repetition may run past this many seconds after the run started
DEADLINE_S = 170.0
#: one closed loop in one process: keep math libraries on one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit) of the end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("route_pps", "1/s"), ("wall_s", "s"),
              ("peak_rss_mb", "MiB"), ("stretch_avg", "ratio"),
              ("stretch_p99", "ratio"), ("table_bits_max", "bits"))


def pin_environment() -> list:
    """Drop every ``REPRO_*`` knob and pin math libraries to one thread."""
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    for key in THREAD_VARS:
        os.environ[key] = "1"
    return removed


def in_child(fn, args: tuple, timeout: float) -> dict:
    """Run ``fn(*args)`` in a forked child and return its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(read_fd)
        status = 1
        try:
            payload = {"result": fn(*args)}
            status = 0
        except BaseException:
            payload = {"error": traceback.format_exc()}
        try:
            data = memoryview(json.dumps(
                payload, default=lambda value: value.item()).encode())
            while data:
                data = data[os.write(write_fd, data):]
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    try:
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                raise TimeoutError(f"repetition ran past {timeout:.0f} s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    payload = json.loads(b"".join(chunks) or b"{}")
    if "result" not in payload:
        raise RuntimeError(payload.get("error", "repetition died silently"))
    return payload["result"]


def repetition(name: str, seed: int, traced: bool) -> dict:
    """One cold repetition of workload ``name``; runs in a forked child."""
    tempfile.tempdir = TMP_DIR
    # one core for the closed loop: no migrations between the two CPUs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from repro.storage import memory_budget, storage_report
    from workloads import WORKLOADS, run_once

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer(run=f"{name}-seed{seed}")
        spans.install(tracer)
    result = run_once(WORKLOADS[name], seed, tracer=tracer)
    storage = storage_report()
    result["storage"] = {"memory_budget_bytes": memory_budget()}
    for key in ("spilled_bytes", "spill_count", "spill_live_bytes",
                "spill_high_water_bytes"):
        result["storage"][key] = storage[key]
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, result)
        result["spans"] = tracer.spans
    return result


def repeat(args, started: float) -> list:
    """Cold repetitions until ``--seconds`` have passed (at least MIN_REPS)."""
    reps = []
    while True:
        elapsed = time.monotonic() - started
        longest = max((rep["child_s"] for rep in reps), default=0.0)
        if len(reps) >= MIN_REPS and (elapsed >= args.seconds
                                      or elapsed + longest > DEADLINE_S):
            return reps
        t0 = time.monotonic()
        rep = in_child(repetition, (args.workload, args.seed, False),
                       DEADLINE_S - elapsed)
        rep["child_s"] = time.monotonic() - t0
        reps.append(rep)


def traced_pair(args, started: float) -> list:
    """One untraced and one traced repetition at the same seed."""
    return [in_child(repetition, (args.workload, args.seed, traced),
                     DEADLINE_S - (time.monotonic() - started))
            for traced in (False, True)]


def canonical(outputs: dict) -> str:
    """Outputs as text that differs whenever any value differs in a bit."""
    return json.dumps(outputs, sort_keys=True)


def check(workload, reps: list) -> list:
    """Problems with the outputs: lost packets, bad accounting, drift."""
    problems = []
    expected = canonical(reps[0]["outputs"])
    for index, rep in enumerate(reps):
        summary = rep["outputs"]["summary"]
        if canonical(rep["outputs"]) != expected:
            problems.append(f"repetition {index}: outputs differ from "
                            "repetition 0")
        if summary["failures"]:
            problems.append(f"repetition {index}: {summary['failures']} "
                            "reachable packets not delivered")
        if (summary["delivered"] + summary["unreachable"] != summary["packets"]
                or summary["packets"] != rep["packets"]):
            problems.append(f"repetition {index}: packet accounting mismatch")
        if summary["stretch_count"] and summary["min_stretch"] < 1.0 - 1e-9:
            problems.append(f"repetition {index}: stretch below 1")
        if workload.scheme == "shortest-path" \
                and summary["max_stretch"] > 1.0 + 1e-9:
            problems.append(f"repetition {index}: shortest-path stretch "
                            "above 1")
    return problems


def end_to_end(reps: list) -> dict:
    """End-to-end metrics: timing medians over repetitions, outputs once."""
    summary = reps[0]["outputs"]["summary"]
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "route_pps": statistics.median(rep["packets"] / rep["route_s"]
                                       for rep in reps),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "stretch_avg": summary["avg_stretch"],
        "stretch_p99": summary["stretch_p99"],
        "table_bits_max": reps[0]["outputs"]["table_bits_max"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(reps: list) -> dict:
    """The traced repetition's layer metrics plus the tracing overhead."""
    untraced, traced = reps
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = {
        "value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
    return metrics


def workload_extras(reps: list) -> dict:
    """Figures printed beside the metrics: repair time, loss fractions."""
    outputs = reps[0]["outputs"]
    sent = outputs.get("stale_sent", 0)
    packets = sum(rep["packets"] for rep in reps)
    failures = sum(rep["outputs"]["summary"]["failures"] for rep in reps)
    return {
        "repair_s": statistics.median(
            sum(repair["wall_s"] for repair in rep["repairs"])
            for rep in reps),
        "repair_reported_s": statistics.median(
            sum(repair["reported_s"] for repair in rep["repairs"])
            for rep in reps),
        "failed_frac": failures / packets,
        "stale_loss_frac": (sent - outputs["stale_delivered"]) / sent
        if sent else 0.0,
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_meta(args, removed: list, reps: list) -> dict:
    """Run conditions: the ``bench_meta()`` fields plus versions and seed."""
    import numpy
    import scipy

    try:
        import numba
        numba_version = str(numba.__version__)
    except ImportError:
        numba_version = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "peak_rss_bytes": int(max(rep["peak_rss_mb"] for rep in reps) * 2**20),
        "backend": "lazy",
        "scoring": "exact",
        **reps[0]["storage"],
        "jit": False,
        "numba": numba_version,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "removed_env": removed,
        "pinned_env": {key: os.environ[key] for key in THREAD_VARS},
        "child_cpu": max(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run it from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    removed = pin_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, preload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    preload()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        reps = (traced_pair if args.trace else repeat)(args, started)
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} failed:\n{exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    problems = check(WORKLOADS[args.workload], reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    meta = run_meta(args, removed, reps)
    label = "untraced + traced" if args.trace else f"{len(reps)} repetitions"
    print(f"perfbench {args.workload} seed {args.seed}: {label}, "
          f"{time.monotonic() - started:.1f} s")
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:<14.6g} {metric['unit']}")
    for name, value in workload_extras(reps).items():
        print(f"  ({name} {value:.6g})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "problems": problems,
              "repetitions": [{key: value for key, value in rep.items()
                               if key != "spans"} for rep in reps],
              "spans": [span for rep in reps for span in rep.get("spans", [])]}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["packets"] for rep in reps),
        "failed": sum(rep["outputs"]["summary"]["failures"] for rep in reps),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
