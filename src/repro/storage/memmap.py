"""Budgeted array placement: RAM below a byte budget, ``np.memmap`` above.

The scale ladder past n=20k needs structures that no longer fit in RAM — at
n=100k the shortest-path scheme's ``(n, n)`` int32 next-hop matrix alone is
40 GB.  This module is the single place that decides where a large build
array lives:

* ``REPRO_MEMORY_BUDGET`` (e.g. ``16G``, ``512M``, ``4096K`` or raw bytes)
  caps the total bytes of *budgeted* allocations resident in RAM.  Unset
  (the default) means unlimited: every allocation stays a plain ndarray and
  nothing below changes behavior.
* :func:`alloc_array` / :func:`persist_array` hand out ``np.memmap``-backed
  arrays once the budget is exhausted.  A memmap is an ndarray subclass, so
  every consumer — ``compile_forwarding()``, ``run_lockstep``, the traffic
  engine — indexes it exactly like RAM; parity tests assert the walks and
  official statistics are bit-identical either way.
* Spill files are created under ``REPRO_SPILL_DIR`` (default: the system
  temp dir) and **unlinked immediately** after mapping: the pages live for
  exactly the lifetime of the array, survive ``fork()`` (the mapping is
  shared, so shard workers read the same physical pages), and can never
  leak a file past the process.
* RAM accounting is released when a budgeted array is garbage collected
  (a ``weakref`` finalizer), so transient build scratch does not
  permanently consume the budget.

Arrays smaller than :data:`SPILL_MIN_BYTES` never spill — mapping syscalls
would dominate — but still count toward the budget.
"""

from __future__ import annotations

import os
import tempfile
import threading
import weakref
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: arrays below this many bytes are never spilled (but are still budgeted)
SPILL_MIN_BYTES = 1 << 20

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}

_lock = threading.Lock()
_ram_bytes = 0        # budgeted bytes currently alive in RAM
_spilled_bytes = 0    # cumulative bytes handed out as memmaps
_spill_count = 0      # number of spilled allocations
_spill_live_bytes = 0   # spilled bytes currently alive (mapped)
_spill_high_water = 0   # max of _spill_live_bytes over the process life


def memory_budget() -> Optional[int]:
    """The configured RAM budget in bytes, or ``None`` for unlimited.

    Parsed from ``REPRO_MEMORY_BUDGET``; accepts a raw byte count or a
    ``K``/``M``/``G``/``T`` suffix (binary multiples).  ``0``, ``none`` and
    the empty string all mean unlimited.
    """
    raw = os.environ.get("REPRO_MEMORY_BUDGET", "").strip().lower()
    if not raw or raw in ("0", "none", "unlimited"):
        return None
    mult = 1
    if raw[-1] in _SUFFIXES:
        mult = _SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"unparseable REPRO_MEMORY_BUDGET {os.environ['REPRO_MEMORY_BUDGET']!r}"
            " (expected e.g. '16G', '512M' or a byte count)") from exc
    return max(int(value * mult), 1)


def spill_dir() -> str:
    """Directory for spill files (``REPRO_SPILL_DIR`` or the temp dir)."""
    return os.environ.get("REPRO_SPILL_DIR") or tempfile.gettempdir()


def is_memmap(array: object) -> bool:
    """Whether ``array`` is (a view over) a spilled memmap."""
    return isinstance(array, np.memmap)


def _release(nbytes: int) -> None:
    global _ram_bytes
    with _lock:
        _ram_bytes -= nbytes


def _charge_ram(array: np.ndarray) -> np.ndarray:
    """Count ``array`` against the RAM budget until it is collected."""
    global _ram_bytes
    nbytes = int(array.nbytes)
    with _lock:
        _ram_bytes += nbytes
    weakref.finalize(array, _release, nbytes)
    return array


def _should_spill(nbytes: int) -> bool:
    """Budget decision for an allocation of ``nbytes`` (accounts spills)."""
    global _spilled_bytes, _spill_count
    budget = memory_budget()
    if budget is None or nbytes < SPILL_MIN_BYTES:
        return False
    with _lock:
        over = _ram_bytes + nbytes > budget
        if over:
            _spilled_bytes += nbytes
            _spill_count += 1
    return over


def _release_spill(nbytes: int) -> None:
    global _spill_live_bytes
    with _lock:
        _spill_live_bytes -= nbytes


def _charge_spill(array: np.memmap) -> np.memmap:
    """Track live spill bytes (and the high-water mark) until collection."""
    global _spill_live_bytes, _spill_high_water
    nbytes = int(array.nbytes)
    with _lock:
        _spill_live_bytes += nbytes
        _spill_high_water = max(_spill_high_water, _spill_live_bytes)
    weakref.finalize(array, _release_spill, nbytes)
    return array


def _new_memmap(shape: Tuple[int, ...], dtype: np.dtype) -> np.memmap:
    """A fresh anonymous-lifetime memmap (file unlinked once mapped)."""
    fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".mm",
                                dir=spill_dir())
    os.close(fd)
    try:
        out = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
    finally:
        os.unlink(path)
    return out


def alloc_array(shape: Union[int, Tuple[int, ...]], dtype,
                fill=None) -> np.ndarray:
    """Allocate ``shape`` of ``dtype``, memmap-backed once over budget.

    ``fill`` initializes every element (``None`` leaves the contents
    unspecified: uninitialized in RAM, zero pages under spill).  The RAM
    path is charged against the budget and released on collection.
    """
    if np.isscalar(shape):
        shape = (int(shape),)
    else:
        shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(np.asarray(shape, dtype=np.int64))) * dtype.itemsize
    if _should_spill(nbytes):
        out: np.ndarray = _charge_spill(_new_memmap(shape, dtype))
        if fill is not None and fill != 0:
            out[...] = fill
        return out
    if fill is None:
        return _charge_ram(np.empty(shape, dtype=dtype))
    if fill == 0:
        return _charge_ram(np.zeros(shape, dtype=dtype))
    return _charge_ram(np.full(shape, fill, dtype=dtype))


def persist_array(array: np.ndarray) -> np.ndarray:
    """Place an already-built array: spill a copy when over budget.

    Returns ``array`` itself (charged against the budget) while the budget
    holds; past it, copies into a memmap and lets the RAM original die.
    Idempotent on memmaps and a no-op on small arrays.
    """
    if isinstance(array, np.memmap) or not isinstance(array, np.ndarray):
        return array
    if not _should_spill(int(array.nbytes)):
        if array.nbytes >= SPILL_MIN_BYTES and array.base is None:
            _charge_ram(array)
        return array
    out = _charge_spill(_new_memmap(array.shape, array.dtype))
    out[...] = array
    return out


def spill_array(shape: Union[int, Tuple[int, ...]], dtype) -> np.ndarray:
    """Allocate a memmap-backed array unconditionally (budget ignored).

    For consumers that *know* their data is cold — the lazy backend's row
    spill store keeps evicted Dijkstra rows here so re-touched rows come
    back as a page-cache read instead of a fresh graph search.  Contents
    start zeroed (fresh file pages); the allocation is counted in the spill
    accounting and the high-water mark like any budget-driven spill.
    """
    global _spilled_bytes, _spill_count
    if np.isscalar(shape):
        shape = (int(shape),)
    else:
        shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(np.asarray(shape, dtype=np.int64))) * dtype.itemsize
    with _lock:
        _spilled_bytes += nbytes
        _spill_count += 1
    return _charge_spill(_new_memmap(shape, dtype))


def storage_report() -> Dict[str, object]:
    """Current accounting snapshot (for bench emitters and diagnostics)."""
    with _lock:
        return {
            "memory_budget": memory_budget(),
            "budgeted_ram_bytes": int(_ram_bytes),
            "spilled_bytes": int(_spilled_bytes),
            "spill_count": int(_spill_count),
            "spill_live_bytes": int(_spill_live_bytes),
            "spill_high_water_bytes": int(_spill_high_water),
        }


def reset_accounting() -> None:
    """Testing hook: zero the counters (live finalizers may go negative)."""
    global _ram_bytes, _spilled_bytes, _spill_count
    global _spill_live_bytes, _spill_high_water
    with _lock:
        _ram_bytes = 0
        _spilled_bytes = 0
        _spill_count = 0
        _spill_live_bytes = 0
        _spill_high_water = 0
