"""Labeled tree routing with compact tables (Lemma 5).

Lemma 5 (Fraigniaud–Gavoille [15], Thorup–Zwick [29]): *for every integer
``k > 1`` and weighted tree with ``m`` nodes there is a labeled routing
scheme that routes optimally from any source to any destination given the
destination's label; storage is ``O(m^{1/k} log m)`` bits per node and labels
and headers are ``O(k log m)`` bits.*

The implementation uses the ``b``-heavy-child decomposition with
``b = ceil(m^{1/k})``:

* a child ``c`` of ``v`` is **heavy** when ``subtree_size(c) >= subtree_size(v)/b``
  — a node has at most ``b`` heavy children;
* every root-to-node path contains at most ``k`` **light** edges, because each
  light descent divides the subtree size by more than ``b`` and ``b^k >= m``;
* a node's *table* holds its own DFS interval, its parent port, and the
  (interval, port) of each heavy child — ``O(b log m)`` bits;
* a node's *label* holds its DFS-in number plus, for every light edge on its
  root path, the pair (DFS-in of the edge's upper endpoint, port of the edge
  at that endpoint) — ``O(k log m)`` bits.

Routing at node ``x`` toward label ``L(t)``: if ``t`` is not in ``x``'s
subtree, go to the parent; if it is, forward into the heavy child whose
interval contains ``t`` if one exists, otherwise the label's light-edge list
contains an entry for ``x`` and gives the port directly.  The walk follows
the unique tree path, so the stretch is exactly 1.

Ports are local edge indices (position of the neighbor in the node's sorted
tree-neighbor list); in the standard routing model forwarding on a known port
is free and costs no table space.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.utils.bitsize import BitBudget, bits_for_count, bits_for_id, bits_for_ids
from repro.utils.validation import require


@dataclass(frozen=True)
class TreeLabel:
    """Destination label: own DFS-in number + light-edge (origin DFS-in, port) list."""

    dfs_in: int
    light_edges: Tuple[Tuple[int, int], ...]

    def size_bits(self, m: int) -> int:
        """Size of the label for a tree with ``m`` nodes."""
        idbits = bits_for_count(max(m - 1, 1))
        # each light entry: origin id + port number (port <= degree <= m)
        return idbits + len(self.light_edges) * 2 * idbits


class CompactTreeRouting:
    """Lemma 5 routing structure for one rooted tree.

    Parameters
    ----------
    tree:
        The rooted weighted tree.
    k:
        Trade-off parameter; ``b = ceil(m^{1/k})`` heavy children are kept
        per node and labels contain at most ``k`` light-edge entries.
    """

    def __init__(self, tree: Tree, k: int = 2) -> None:
        require(k >= 1, f"k must be >= 1, got {k}")
        self.tree = tree
        self.k = int(k)
        self.m = tree.size
        self.b = max(2, int(math.ceil(self.m ** (1.0 / self.k)))) if self.m > 1 else 1

        # Heavy classification straight from the tree's slot arrays:
        # slot = DFS-in number, so subtree_size(slot) = dfs_out - slot + 1 and
        # the heavy test is one vectorized comparison over all child slots.
        # A light child adds one light edge to every label in its subtree,
        # the slot range [child, dfs_out[child]], so the per-slot light-edge
        # counts are one prefix sum.  Labels and port lists are materialized
        # lazily per node.
        size = self.m
        subtree = tree.dfs_out - np.arange(size, dtype=np.int64) + 1
        parent_local = tree.parent_local
        child_slots = np.flatnonzero(parent_local >= 0)
        heavy_of_slot = np.zeros(size, dtype=bool)
        heavy_of_slot[child_slots] = (
            subtree[child_slots] * self.b >= subtree[parent_local[child_slots]])
        self._heavy_of_slot = heavy_of_slot
        light = child_slots[~heavy_of_slot[child_slots]]
        steps = (np.bincount(light, minlength=size + 1)
                 - np.bincount(tree.dfs_out[light] + 1, minlength=size + 1))
        self._light_count_of_slot = np.cumsum(steps[:size])

        self._labels: Dict[int, TreeLabel] = {}
        self._max_label_bits: Optional[int] = None
        self._max_table_bits: Optional[int] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _ports_of(self, v: int) -> List[int]:
        """Sorted tree-neighbor list of ``v`` (children come sorted)."""
        ports = self.tree.children_of(v)
        parent = self.tree.parent_of(v)
        if parent >= 0:
            bisect.insort(ports, parent)
        return ports

    def _port_to(self, v: int, neighbor: int) -> int:
        return self._ports_of(v).index(neighbor)

    def _neighbor_on_port(self, v: int, port: int) -> int:
        return self._ports_of(v)[port]

    def _heavy_child_slots(self, slot: int) -> np.ndarray:
        kids = self.tree.child_slots(slot)
        return kids[self._heavy_of_slot[kids]]

    def heavy_children_of(self, v: int) -> List[int]:
        """Heavy children of ``v`` in ascending id order (lazy per node)."""
        slots = self._heavy_child_slots(self.tree.slot(v))
        return self.tree.node_of_slot[slots].tolist()

    # ------------------------------------------------------------------ #
    # public queries
    # ------------------------------------------------------------------ #
    def label_of(self, v: int) -> TreeLabel:
        """The destination label of tree node ``v`` (materialized on demand).

        The light-edge list is collected by one walk up the root path —
        identical content and order (root first) to the eager construction.
        """
        label = self._labels.get(v)
        if label is None:
            tree = self.tree
            slot = tree.slot(v)
            entries: List[Tuple[int, int]] = []
            node = slot
            while node:
                parent = int(tree.parent_local[node])
                if not self._heavy_of_slot[node]:
                    entries.append((parent, self._port_to(
                        int(tree.node_of_slot[parent]),
                        int(tree.node_of_slot[node]))))
                node = parent
            label = TreeLabel(slot, tuple(reversed(entries)))
            self._labels[v] = label
        return label

    def max_light_edges(self) -> int:
        """Largest number of light-edge entries in any label (should be <= k)."""
        return int(self._light_count_of_slot.max(initial=0))

    def label_bits(self, v: int) -> int:
        """Size in bits of ``v``'s label (no label materialization needed)."""
        idbits = bits_for_count(max(self.m - 1, 1))
        return idbits + int(self._light_count_of_slot[self.tree.slot(v)]) * 2 * idbits

    def max_label_bits(self) -> int:
        """Largest label size (cached)."""
        if self._max_label_bits is None:
            idbits = bits_for_count(max(self.m - 1, 1))
            self._max_label_bits = idbits + self.max_light_edges() * 2 * idbits
        return self._max_label_bits

    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``'s routing table."""
        b = BitBudget()
        idbits = bits_for_count(max(self.m - 1, 1))
        portbits = bits_for_id(max(len(self._ports_of(v)), 1))
        b.add("own_interval", 2 * idbits)
        if v != self.tree.root:
            b.add("parent_port", portbits)
        b.add("heavy_children", 2 * idbits + portbits, count=len(self.heavy_children_of(v)))
        return b

    def table_bits(self, v: int) -> int:
        """Table size in bits of node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) as one array expression.

        Same integers as :meth:`table_bits` without a per-node
        :class:`BitBudget`; used by construction-time accounting to charge a
        whole tree at once.
        """
        idbits = bits_for_count(max(self.m - 1, 1))
        parent = self.tree.parent_local
        is_child = parent >= 0
        degree = np.bincount(parent[is_child], minlength=self.m) + is_child
        portbits = bits_for_ids(np.maximum(degree, 1))
        heavy = np.bincount(parent[self._heavy_of_slot], minlength=self.m)
        bits = 2 * idbits + heavy * (2 * idbits + portbits) + is_child * portbits
        # slot order -> tree-node order
        return bits[self.tree.dfs_in].tolist()

    def max_table_bits(self) -> int:
        """Largest table in the tree (cached)."""
        if self._max_table_bits is None:
            self._max_table_bits = max(
                (self.table_bits(v) for v in self.tree.nodes), default=0)
        return self._max_table_bits

    def header_bits(self) -> int:
        """Header size: the destination label travels in the header."""
        return self.max_label_bits()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def next_hop(self, current: int, label: TreeLabel) -> Optional[int]:
        """Next tree node toward the destination carrying ``label`` (None = arrived)."""
        tree = self.tree
        t_in = label.dfs_in
        c_in = tree.slot(current)
        if t_in == c_in:
            return None
        if not (c_in <= t_in <= tree.dfs_out[c_in]):
            require(current != tree.root,
                    "destination label does not belong to this tree")
            return int(tree.node_of_slot[tree.parent_local[c_in]])
        # destination is in our subtree: heavy child or light edge from the label
        heavy = self._heavy_child_slots(c_in)
        at = np.searchsorted(heavy, t_in, side="right") - 1
        if at >= 0 and t_in <= tree.dfs_out[heavy[at]]:
            return int(tree.node_of_slot[heavy[at]])
        for origin, port in label.light_edges:
            if origin == c_in:
                return self._neighbor_on_port(current, port)
        raise RuntimeError(
            f"label of node with dfs_in={t_in} has no light-edge entry for node {current}; "
            "the label does not belong to this tree")

    def walk(self, source: int, target: int) -> Tuple[List[int], float]:
        """Walk from ``source`` to ``target`` (both tree nodes); returns (path, cost)."""
        label = self.label_of(target)
        path = [source]
        cost = 0.0
        current = source
        for _ in range(2 * self.m + 1):
            nxt = self.next_hop(current, label)
            if nxt is None:
                return path, cost
            cost += self.tree.edge_weight(current, nxt)
            path.append(nxt)
            current = nxt
        raise RuntimeError("compact tree routing walk did not terminate")
