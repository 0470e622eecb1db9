"""Out-of-core array placement under a configurable memory budget."""

from repro.storage.memmap import (SPILL_MIN_BYTES, alloc_array, is_memmap,
                                  memory_budget, persist_array,
                                  reset_accounting, spill_array, spill_dir,
                                  storage_report)
from repro.storage.rowstore import SpilledRowStore, row_spill_budget

__all__ = [
    "SPILL_MIN_BYTES",
    "SpilledRowStore",
    "alloc_array",
    "is_memmap",
    "memory_budget",
    "persist_array",
    "reset_accounting",
    "row_spill_budget",
    "spill_array",
    "spill_dir",
    "storage_report",
]
