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

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


class _HeavyChildren:
    """Read-only ``{node: [heavy children]}`` view, materialized per lookup.

    Keeps the historical ``routing.heavy_children[v]`` access working while
    the heavy classification itself lives in one boolean slot array.
    """

    __slots__ = ("_routing",)

    def __init__(self, routing: "CompactTreeRouting") -> None:
        self._routing = routing

    def __getitem__(self, v: int) -> List[int]:
        return self._routing._heavy_children_of(v)


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
        # Full labels and port lists are materialized lazily per node — a
        # construction only pays O(m) array work plus one light-edge counting
        # scan, not a Python tuple/list build per node.
        import numpy as np

        slots = tree._forwarding_slots
        size = self.m
        subtree = slots.dfs_out - np.arange(size, dtype=np.int64) + 1
        parent_local = slots.parent_local
        child_slots = np.flatnonzero(parent_local >= 0)
        heavy_of_slot = np.zeros(size, dtype=bool)
        heavy_of_slot[child_slots] = (
            subtree[child_slots] * self.b >= subtree[parent_local[child_slots]])
        self._node_of_slot = slots.node_of_slot
        self._heavy_of_slot = heavy_of_slot

        # light-edge count per slot: one preorder scan (parents precede
        # children in slot order)
        counts = [0] * size
        parents_list = parent_local.tolist()
        heavy_list = heavy_of_slot.tolist()
        for s in range(size):
            p = parents_list[s]
            if p >= 0:
                counts[s] = counts[p] + (0 if heavy_list[s] else 1)
        self._light_count_of_slot = counts

        self.heavy_children = _HeavyChildren(self)
        self._ports: Dict[int, List[int]] = {}
        self._labels: Dict[int, TreeLabel] = {}
        self._max_label_bits: Optional[int] = None
        self._max_table_bits: Optional[int] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _ports_of(self, v: int) -> List[int]:
        """Sorted tree-neighbor list of ``v`` (lazy; children are pre-sorted)."""
        ports = self._ports.get(v)
        if ports is None:
            import bisect

            ports = list(self.tree.children[v])
            if v != self.tree.root:
                bisect.insort(ports, self.tree.parent[v])
            self._ports[v] = ports
        return ports

    def _port_to(self, v: int, neighbor: int) -> int:
        return self._ports_of(v).index(neighbor)

    def _neighbor_on_port(self, v: int, port: int) -> int:
        return self._ports_of(v)[port]

    def _heavy_children_of(self, v: int) -> List[int]:
        """Heavy children of ``v`` in ascending id order (lazy per node)."""
        tree = self.tree
        dfs_in = tree.dfs_in
        return [c for c in tree.children[v] if self._heavy_of_slot[dfs_in[c]]]

    # ------------------------------------------------------------------ #
    # public queries
    # ------------------------------------------------------------------ #
    def label_of(self, v: int) -> TreeLabel:
        """The destination label of tree node ``v`` (materialized on demand).

        The light-edge list is collected by one walk up the root path —
        identical content and order (root first) to the eager construction.
        """
        require(self.tree.contains(v), f"node {v} is not in the tree")
        label = self._labels.get(v)
        if label is None:
            tree = self.tree
            dfs_in = tree.dfs_in
            entries: List[Tuple[int, int]] = []
            node = v
            while node != tree.root:
                parent = tree.parent[node]
                if not self._heavy_of_slot[dfs_in[node]]:
                    entries.append((dfs_in[parent], self._port_to(parent, node)))
                node = parent
            label = TreeLabel(dfs_in[v], tuple(reversed(entries)))
            self._labels[v] = label
        return label

    def max_light_edges(self) -> int:
        """Largest number of light-edge entries in any label (should be <= k)."""
        return max(self._light_count_of_slot, default=0)

    def label_bits(self, v: int) -> int:
        """Size in bits of ``v``'s label (no label materialization needed)."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        idbits = bits_for_count(max(self.m - 1, 1))
        return idbits + self._light_count_of_slot[self.tree.dfs_in[v]] * 2 * idbits

    def max_label_bits(self) -> int:
        """Largest label size (cached)."""
        if self._max_label_bits is None:
            idbits = bits_for_count(max(self.m - 1, 1))
            self._max_label_bits = idbits + self.max_light_edges() * 2 * idbits
        return self._max_label_bits

    def _degree(self, v: int) -> int:
        return len(self.tree.children[v]) + (0 if v == self.tree.root else 1)

    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``'s routing table."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        b = BitBudget()
        idbits = bits_for_count(max(self.m - 1, 1))
        portbits = bits_for_id(max(self._degree(v), 1))
        b.add("own_interval", 2 * idbits)
        if v != self.tree.root:
            b.add("parent_port", portbits)
        b.add("heavy_children", 2 * idbits + portbits, count=len(self.heavy_children[v]))
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
        import numpy as np

        idbits = bits_for_count(max(self.m - 1, 1))
        slots = self.tree._forwarding_slots
        parent = slots.parent_local
        is_child = parent >= 0
        degree = np.bincount(parent[is_child], minlength=self.m) + is_child
        portbits = bits_for_ids(np.maximum(degree, 1))
        heavy = np.bincount(parent[self._heavy_of_slot], minlength=self.m)
        bits = 2 * idbits + heavy * (2 * idbits + portbits) + is_child * portbits
        # slot order -> tree-node order (tree.nodes is ascending)
        return bits[np.argsort(slots.node_of_slot)].tolist()

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
        require(self.tree.contains(current), f"node {current} is not in the tree")
        t_in = label.dfs_in
        c_in = self.tree.dfs_in[current]
        c_out = self.tree.dfs_out[current]
        if t_in == c_in:
            return None
        if not (c_in <= t_in <= c_out):
            require(current != self.tree.root,
                    "destination label does not belong to this tree")
            return self.tree.parent[current]
        # destination is in our subtree: heavy child or light edge from the label
        for c in self.heavy_children[current]:
            if self.tree.dfs_in[c] <= t_in <= self.tree.dfs_out[c]:
                return c
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
            cost += self._edge_weight(current, nxt)
            path.append(nxt)
            current = nxt
        raise RuntimeError("compact tree routing walk did not terminate")

    def _edge_weight(self, a: int, b: int) -> float:
        if self.tree.parent.get(a) == b:
            return self.tree.edge_weight[a]
        if self.tree.parent.get(b) == a:
            return self.tree.edge_weight[b]
        raise RuntimeError(f"({a}, {b}) is not a tree edge")
