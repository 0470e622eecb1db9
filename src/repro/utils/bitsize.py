"""Bit-size accounting.

The space side of the space-stretch trade-off is measured in *bits of routing
information per node*.  Rather than relying on ``sys.getsizeof`` (which
measures CPython object overhead, not information content), every routing
table in the library declares the logical width of each stored field through
the helpers here, and aggregates them in a :class:`BitBudget`.

Conventions (matching the paper's accounting):

* a node identifier or port costs ``ceil(log2 n)`` bits (``bits_for_id``);
* a counter bounded by ``x`` costs ``ceil(log2(x+1))`` bits
  (``bits_for_count``);
* a distance/weight is charged a fixed ``DISTANCE_BITS`` (64) — the paper
  treats distances as ``O(log n)``-word quantities and never stores more than
  polylogarithmically many of them per table entry, so a fixed word size
  keeps comparisons between schemes fair without biasing any of them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

#: Number of bits charged for storing one distance value.
DISTANCE_BITS = 64


def ceil_log2(x: float) -> int:
    """Return ``ceil(log2(x))`` for ``x >= 1`` (0 for ``x <= 1``).

    Exact for integers of any size: ``ceil(log2(x))`` is the bit length of
    ``x - 1``.
    """
    if x <= 1:
        return 0
    if isinstance(x, (int, np.integer)):
        return (int(x) - 1).bit_length()
    return int(math.ceil(math.log2(x)))


def bits_for_count(x: int) -> int:
    """Bits needed to store an integer in ``[0, x]``."""
    if x < 0:
        raise ValueError(f"negative count: {x}")
    return max(1, ceil_log2(x + 1))


def bits_for_id(universe: int) -> int:
    """Bits needed to store one identifier out of ``universe`` possibilities."""
    if universe <= 0:
        raise ValueError(f"universe must be positive, got {universe}")
    return max(1, ceil_log2(universe))


def bits_for_ids(universe: np.ndarray) -> np.ndarray:
    """:func:`bits_for_id` of every entry of a positive integer array.

    ``ceil(log2(x))`` is the bit length of ``x - 1``: the exponent ``frexp``
    returns, less one where rounding to float carried ``x - 1`` up to the
    next power of two (possible from ``2^53`` on).
    """
    universe = np.asarray(universe, dtype=np.int64)
    if universe.size and int(universe.min()) <= 0:
        raise ValueError("universe must be positive")
    rest = universe - 1
    length = np.frexp(rest.astype(np.float64))[1].astype(np.int64)
    length -= (rest >> np.maximum(length - 1, 0)) == 0
    return np.maximum(length, 1)


def bits_for_distance() -> int:
    """Bits charged for one stored distance value."""
    return DISTANCE_BITS


@dataclass
class BitBudget:
    """Accumulates named bit costs for one routing table (or one header).

    Example
    -------
    >>> b = BitBudget()
    >>> b.add("parent_port", bits_for_id(128))
    >>> b.add("child_intervals", 3 * 2 * bits_for_id(128))
    >>> b.total() > 0
    True
    """

    fields: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, name: str, bits: int, count: int = 1) -> None:
        """Charge ``count`` copies of a ``bits``-wide field under ``name``."""
        if bits < 0 or count < 0:
            raise ValueError("bits and count must be non-negative")
        self.fields[name] += bits * count

    def merge(self, other: "BitBudget", prefix: str = "") -> None:
        """Fold another budget into this one, optionally namespacing it."""
        for name, bits in other.fields.items():
            self.fields[prefix + name] += bits

    def total(self) -> int:
        """Total number of bits charged so far."""
        return int(sum(self.fields.values()))

    def breakdown(self) -> Mapping[str, int]:
        """Per-field bit counts (a plain dict copy)."""
        return dict(self.fields)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.fields.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"BitBudget(total={self.total()}, {parts})"


def kib(bits: int) -> float:
    """Convert bits to kibibytes (for human-readable reporting)."""
    return bits / 8.0 / 1024.0
