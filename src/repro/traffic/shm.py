"""Zero-copy shared-memory publication of compiled routing state.

With fork-based shard workers the compiled :class:`ForwardingProgram` and the
hot destination-distance rows are shared copy-on-write — but copy-on-write is
per **page**, and the first refcount bump or stray write in any worker
duplicates the page.  The :class:`SharedArena` moves those arrays into
``multiprocessing.shared_memory`` blocks *before* the fork: each ndarray is
copied exactly once into a named block and the owning object's attribute is
rebound to a view over the block, so every forked worker reads the same
physical pages for the program's slot tables, next-hop keys and pinned
distance rows.  Nothing is pickled and nothing is re-sent per shard.

The arena is strictly scoped: :meth:`SharedArena.close` restores every
adopted attribute to its original in-process array, then closes and unlinks
every block.  Callers must close inside ``finally`` (or use the arena as a
context manager) — a leaked block survives the process under ``/dev/shm``.

Blocks carry a small manifest (``name``, ``shape``, ``dtype`` per published
array) so a spawn-platform port could reattach by name; on fork platforms the
rebound views are inherited directly and the manifest is informational.

Set ``REPRO_TRAFFIC_SHM=0`` to disable publication globally (the engine then
falls back to plain copy-on-write sharing, which is always correct — the
arena is a throughput optimisation, never a semantic one).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

#: TreeBank arrays the fused kernels gather from every step (the dense
#: membership matrix is included when the bank materialized it; a ``None``
#: placeholder is skipped by ``adopt``)
TREE_BANK_ATTRS = (
    "node_of_slot", "dfs_out", "parent_slot", "offsets", "sizes",
    "_member_keys", "_member_slots", "_slot_matrix",
)

#: next-hop table arrays (sorted-key and dense variants plus the warmed
#: per-destination column cache; absent/None attrs are skipped).  The
#: cache's rank index (``_col_rank``) is deliberately NOT published: workers
#: extend it in place when unseen destinations appear, and a truly shared
#: rank array would point other workers at column rows only the extender
#: holds — copy-on-write keeps each worker's extension private and safe.
TABLE_ATTRS = ("_keys", "_next", "_matrix", "_cols")


def shm_enabled() -> bool:
    """Whether shared-memory publication may be used (env kill-switch)."""
    if os.environ.get("REPRO_TRAFFIC_SHM", "") == "0":
        return False
    return _shared_memory is not None


class SharedArena:
    """Owns shared-memory blocks holding arrays published for forked shards.

    ``share_array`` copies an ndarray into a fresh block and returns the
    block-backed view; ``adopt`` additionally rebinds ``obj.attr`` to the
    view and records the original for restoration.  ``close`` undoes every
    adoption and unlinks every block — idempotent, safe in ``finally``.
    """

    def __init__(self) -> None:
        self._blocks: List[Any] = []
        self._restores: List[Tuple[Any, str, np.ndarray]] = []
        #: block name -> (shape, dtype str) of each published array
        self.manifest: Dict[str, Tuple[Tuple[int, ...], str]] = {}

    # -- publication ------------------------------------------------------ #
    def share_array(self, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a shared block; return the shared view.

        Empty arrays (and any array when shared memory is unavailable) are
        returned unchanged — zero-size blocks are illegal and pointless.
        Memmap-backed arrays (the storage layer's spill files) are also
        returned unchanged: their pages are already file-backed and shared
        across ``fork()``, and copying a spilled table into ``/dev/shm``
        would defeat the memory budget that spilled it.
        """
        if isinstance(array, np.memmap):
            return array
        array = np.ascontiguousarray(array)
        if _shared_memory is None or array.nbytes == 0:
            return array
        block = _shared_memory.SharedMemory(create=True, size=array.nbytes)
        view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype,
                                      buffer=block.buf)
        view[...] = array
        self._blocks.append(block)
        self.manifest[block.name] = (tuple(array.shape), str(array.dtype))
        return view

    def adopt(self, obj: Any, attr: str) -> bool:
        """Rebind ``obj.attr`` to a shared copy; remember the original.

        Returns whether anything was published (missing attributes,
        non-arrays and empty arrays are skipped silently so callers can
        probe heterogeneous table types with one attribute list).
        """
        original = getattr(obj, attr, None)
        if not isinstance(original, np.ndarray) or original.nbytes == 0:
            return False
        shared = self.share_array(original)
        if shared is original:
            return False
        setattr(obj, attr, shared)
        self._restores.append((obj, attr, original))
        return True

    def publish_program(self, program: Any) -> int:
        """Publish a compiled program's hot arrays; returns the block count.

        Covers the frozen :class:`TreeBank` slot tables and every next-hop
        table (sorted-key or dense).  Views built later by ``batch_view``
        wrap the adopted arrays, so both lockstep paths read shared pages.
        """
        count = 0
        bank = getattr(program, "bank", None)
        if bank is not None:
            for attr in TREE_BANK_ATTRS:
                count += int(self.adopt(bank, attr))
        for table in getattr(program, "tables", []) or []:
            for attr in TABLE_ATTRS:
                count += int(self.adopt(table, attr))
        return count

    # -- teardown ---------------------------------------------------------- #
    def close(self) -> None:
        """Restore adopted attributes, then close and unlink every block."""
        for obj, attr, original in reversed(self._restores):
            try:
                setattr(obj, attr, original)
            except Exception:  # pragma: no cover - restoration is best-effort
                pass
        self._restores.clear()
        for block in self._blocks:
            try:
                block.close()
            except Exception:  # pragma: no cover
                pass
            try:
                block.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        self._blocks.clear()
        self.manifest.clear()

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
