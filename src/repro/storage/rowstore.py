"""Spill store for evicted distance rows: an LRU of memmap-backed slots.

The lazy distance backend keeps a small LRU of exact Dijkstra rows in RAM.
Before this module, falling out of that LRU meant the row was *gone* — the
next touch re-ran a full Dijkstra (33 ms per row at n=100k).  Stretch
verification and multi-pass builds re-touch rows constantly, so at 100k+
the backend spent most of its time recomputing rows it had already paid
for.

:class:`SpilledRowStore` catches evictions instead.  Rows land in
float64 slots of one (or more) anonymous memmap *extents* allocated
through :func:`repro.storage.spill_array` — so they obey the same spill
accounting, live in ``REPRO_SPILL_DIR``, and can never leak a file (the
backing files are unlinked at creation).  A restore is a page-cache read:
microseconds against a warm cache, one sequential disk read cold.

Knob (environment): ``REPRO_ROW_SPILL_BYTES`` — byte cap for slot extents
(same ``K/M/G/T`` suffixes as ``REPRO_MEMORY_BUDGET``).  Once the cap is
reached the store recycles its least-recently-touched slot instead of
growing.  Default 2 GiB — 2500+ rows at n=100k.

The store is **not** a correctness structure: every row it returns is a
bit-identical copy of what was stored, and the owner must :meth:`clear`
it on graph mutation (the backend does so from its version watch).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.storage.memmap import _SUFFIXES, spill_array

#: default byte cap for the spill extents (2 GiB)
DEFAULT_SPILL_BYTES = 2 << 30

#: rows per extent allocation — amortizes the mkstemp/mmap syscalls
EXTENT_ROWS = 256


def row_spill_budget() -> int:
    """Byte cap for the spill extents (``REPRO_ROW_SPILL_BYTES``)."""
    raw = os.environ.get("REPRO_ROW_SPILL_BYTES", "").strip().lower()
    if not raw:
        return DEFAULT_SPILL_BYTES
    mult = 1
    if raw[-1] in _SUFFIXES:
        mult = _SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"unparseable REPRO_ROW_SPILL_BYTES "
            f"{os.environ['REPRO_ROW_SPILL_BYTES']!r}") from exc
    return max(int(value * mult), 0)


class SpilledRowStore:
    """LRU slot map ``row index -> memmap slot`` over growable extents.

    ``row_length`` fixes the slot width (one float64 distance row).  Slots
    are handed out from extents of :data:`EXTENT_ROWS` rows; when adding a
    new extent would exceed the byte cap, the least-recently-used slot is
    recycled (its old row is forgotten).  ``get`` copies the slot out, so
    callers own plain RAM ndarrays and a later recycle cannot mutate them.
    """

    def __init__(self, row_length: int,
                 max_bytes: Optional[int] = None) -> None:
        self.row_length = int(row_length)
        self.max_bytes = (row_spill_budget() if max_bytes is None
                          else int(max_bytes))
        self._extents: List[np.ndarray] = []
        self._slots: "OrderedDict[int, int]" = OrderedDict()  # u -> slot id
        self._free: List[int] = []
        self._row_bytes = self.row_length * 8
        self.stores = 0
        self.restores = 0
        self.recycles = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, u: int) -> bool:
        return u in self._slots

    @property
    def capacity_rows(self) -> int:
        """Max slots the byte cap allows (at least one extent's worth)."""
        if self._row_bytes == 0:
            return 0
        return max(self.max_bytes // self._row_bytes, EXTENT_ROWS)

    def _slot_view(self, slot: int) -> np.ndarray:
        extent = self._extents[slot // EXTENT_ROWS]
        return extent[slot % EXTENT_ROWS]

    def _acquire_slot(self) -> Optional[int]:
        if self._free:
            return self._free.pop()
        allocated = len(self._extents) * EXTENT_ROWS
        if allocated < self.capacity_rows:
            rows = min(EXTENT_ROWS, self.capacity_rows - allocated)
            if rows > 0:
                self._extents.append(
                    spill_array((rows, self.row_length), np.float64))
                self._free.extend(range(allocated + rows - 1, allocated, -1))
                return allocated
        if self._slots:
            # recycle the least-recently-touched row's slot
            _, slot = self._slots.popitem(last=False)
            self.recycles += 1
            return slot
        return None

    def put(self, u: int, row: np.ndarray) -> None:
        """Store (a copy of) ``row`` for node ``u``; refreshes recency."""
        slot = self._slots.pop(u, None)
        if slot is None:
            slot = self._acquire_slot()
            if slot is None:
                return
        self._slot_view(slot)[:] = row
        self._slots[u] = slot
        self.stores += 1

    def get(self, u: int) -> Optional[np.ndarray]:
        """The stored row for ``u`` as a fresh ndarray, or ``None``."""
        slot = self._slots.get(u)
        if slot is None:
            return None
        self._slots.move_to_end(u)
        self.restores += 1
        return np.array(self._slot_view(slot), dtype=np.float64)

    def discard(self, u: int) -> None:
        """Forget ``u``'s row (the slot returns to the free list)."""
        slot = self._slots.pop(u, None)
        if slot is not None:
            self._free.append(slot)

    def clear(self) -> None:
        """Drop every stored row *and* the extents (graph mutated)."""
        self._slots.clear()
        self._free = []
        self._extents = []

    def report(self) -> Dict[str, int]:
        """Counters for bench emitters and diagnostics."""
        return {
            "rows": len(self._slots),
            "capacity_rows": self.capacity_rows,
            "stores": self.stores,
            "restores": self.restores,
            "recycles": self.recycles,
            "extent_bytes": sum(int(e.nbytes) for e in self._extents),
        }
