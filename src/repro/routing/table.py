"""Routing-table containers with explicit bit accounting.

Schemes store whatever Python structures they like, but every piece of
information a node would have to hold in a real deployment must be charged to
that node's :class:`RoutingTable` so the space side of the trade-off can be
reported in bits.  A :class:`RoutingTable` is a thin wrapper around
:class:`~repro.utils.bitsize.BitBudget`: it holds the charges, not the data.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.utils.bitsize import BitBudget


class RoutingTable:
    """Per-node routing information plus its declared size in bits."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.budget = BitBudget()

    # -- accounting --------------------------------------------------------- #
    def charge(self, category: str, bits: int, count: int = 1) -> None:
        """Charge ``count`` items of ``bits`` each to ``category``."""
        self.budget.add(category, bits, count)

    def size_bits(self) -> int:
        """Total declared size of this table."""
        return self.budget.total()

    def breakdown(self) -> Mapping[str, int]:
        """Bits per category."""
        return self.budget.breakdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(node={self.node}, bits={self.size_bits()})"


class TableCollection:
    """The tables of all nodes of one scheme instance, with summary statistics."""

    def __init__(self, n: int) -> None:
        self.tables = [RoutingTable(v) for v in range(n)]

    def __getitem__(self, node: int) -> RoutingTable:
        return self.tables[node]

    def __len__(self) -> int:
        return len(self.tables)

    def table_bits(self, node: int) -> int:
        """Size of one node's table."""
        return self.tables[node].size_bits()

    def charge_accumulated(self, category: str, bits_per_node) -> None:
        """Charge ``bits_per_node[v]`` to every node with a nonzero entry.

        The bulk sibling of per-node ``charge`` used by construction-time
        accounting: schemes accumulate a whole category (e.g. all cluster
        trees) into one integer array and issue ``O(n)`` charges instead of
        one per (structure, node) pair.  Totals and breakdowns are identical
        to the per-entry path.
        """
        for v, bits in enumerate(bits_per_node):
            if bits:
                self.tables[v].charge(category, int(bits))

    def charge_structures(self, category: str, structures) -> None:
        """Accumulate ``(nodes, bits)`` pairs into one charge per node.

        ``structures`` yields, per routing structure (a tree, or a whole
        family of trees), its nodes and the parallel per-node bits (e.g.
        ``table_bits_list()``); they are concatenated and added in one pass,
        and the category lands through :meth:`charge_accumulated`.
        """
        import numpy as np

        parts = list(structures)
        accum = np.zeros(len(self.tables), dtype=np.int64)
        if parts:
            np.add.at(accum,
                      np.concatenate([np.asarray(n, dtype=np.int64) for n, _ in parts]),
                      np.concatenate([np.asarray(b, dtype=np.int64) for _, b in parts]))
        self.charge_accumulated(category, accum)

    def max_bits(self) -> int:
        """Largest table (the quantity the paper's bound is about)."""
        return max(t.size_bits() for t in self.tables)

    def avg_bits(self) -> float:
        """Average table size."""
        return sum(t.size_bits() for t in self.tables) / max(len(self.tables), 1)

    def total_bits(self) -> int:
        """Sum of all table sizes."""
        return sum(t.size_bits() for t in self.tables)

    def breakdown(self) -> Dict[str, int]:
        """Total bits per category across all nodes."""
        out: Dict[str, int] = {}
        for t in self.tables:
            for k, v in t.breakdown().items():
                out[k] = out.get(k, 0) + v
        return out
