"""Shared benchmark plumbing: run metadata for every ``BENCH_*.json``.

Every bench emitter stamps its payload with :func:`bench_meta` so a committed
JSON records not just the numbers but the conditions they were measured
under — peak RSS, the distance-backend and scoring modes in force, the
memory budget and spill counters, the Python version and the core count.
Scale results (e18) are meaningless without these: 40 GB of dense rows
versus a 16 GB budget with memmapped spill produce very different
"seconds" columns.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
from typing import Dict, Optional


def write_bench_json(path: str, payload: object) -> None:
    """Atomically write a bench payload: temp file + rename on completion.

    A ``BENCH_*.json`` must never exist half-written — a reader (or a commit)
    racing a crashed or still-running bench would ship truncated JSON.  The
    payload is serialized to a temp file in the destination directory and
    ``os.replace``d into place, so the final path only ever holds a complete
    document (rename within one filesystem is atomic on POSIX).
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize to
    bytes.  The value is monotone over the life of the process — callers
    that need a per-stage peak must fork the stage into a child process
    and read the child's own peak (see ``bench_e18_scale``).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def default_json_path(script_file: str, filename: str) -> str:
    """The committed artifact path for a bench: ``<repo root>/<filename>``.

    Every emitter writes its ``BENCH_*.json`` beside the repo root (one
    directory above ``benchmarks/``); this replaces the copy-pasted
    ``dirname(dirname(abspath(__file__)))`` incantation in each script.
    """
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(script_file))),
        filename)


def assert_all_delivered(rows, packets_key: str = "packets") -> None:
    """The shared delivery gate: zero failures, exact packet accounting.

    Raises ``AssertionError`` naming the offending ``(n, scheme)`` rungs.
    Benches with extra gates (speedup thresholds, parity) layer them on
    top of this one.
    """
    bad = [r for r in rows if r.get("failures", 0) != 0]
    assert not bad, \
        f"delivery failures at: {[(r.get('n'), r.get('scheme')) for r in bad]}"
    assert all(r["delivered"] + r.get("unreachable", 0) == r[packets_key]
               for r in rows if "delivered" in r), "packet accounting mismatch"


def bench_meta(backend: Optional[str] = None,
               scoring: Optional[str] = None) -> Dict[str, object]:
    """Metadata block recorded in every bench payload.

    ``backend``/``scoring`` override the environment-derived defaults when
    the script chose them explicitly (e.g. e18 forces ``lazy`` + an
    approximate scoring mode regardless of the environment).
    """
    from repro.storage import memory_budget, storage_report

    budget = memory_budget()
    report = storage_report()
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "backend": backend or os.environ.get("REPRO_DISTANCE_BACKEND", "auto"),
        "scoring": scoring or "exact",
        "memory_budget_bytes": budget,
        "spilled_bytes": report["spilled_bytes"],
        "spill_count": report["spill_count"],
        "spill_live_bytes": report.get("spill_live_bytes", 0),
        "spill_high_water_bytes": report.get("spill_high_water_bytes", 0),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
