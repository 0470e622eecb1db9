"""DFS-interval tree routing (stretch 1).

The oldest labeled tree-routing idea: label every node with its DFS-in
number; every node stores, for each child, the DFS interval of that child's
subtree together with the local port leading to it, plus the port to its
parent.  Routing toward a destination label ``t``:

* if ``t`` equals the current node's DFS-in number — arrived;
* if ``t`` falls inside some child's interval — forward on that child's port;
* otherwise — forward to the parent.

The route follows the unique tree path, so the stretch is exactly 1.  The
per-node space is ``O(deg(v) log m)`` bits, which is *not* compact for
high-degree nodes — that is exactly the weakness Lemma 5 removes — but the
scheme is a convenient addressing layer ("route to the node whose DFS index
is p") used by the Lemma 7 dictionary construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.utils.bitsize import BitBudget, bits_for_count, bits_for_id, bits_for_ids
from repro.utils.validation import require


class IntervalTreeRouting:
    """Interval routing tables for one rooted tree."""

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self.m = tree.size

    # -- labels ---------------------------------------------------------- #
    def label_of(self, v: int) -> int:
        """The routing label of tree node ``v`` (its DFS-in number)."""
        return self.tree.slot(v)

    def node_with_label(self, label: int) -> int:
        """The tree node whose DFS-in number is ``label``."""
        require(0 <= label < self.m, f"no tree node has DFS index {label}")
        return int(self.tree.node_of_slot[label])

    def label_bits(self) -> int:
        """Bits per label."""
        return bits_for_count(max(self.m - 1, 1))

    # -- per-node storage -------------------------------------------------- #
    def table_bits(self, v: int) -> int:
        """Declared table size of tree node ``v``."""
        budget = self.table_budget(v)
        return budget.total()

    def table_budget(self, v: int) -> BitBudget:
        """Detailed bit budget of node ``v``'s interval table."""
        b = BitBudget()
        idbits = bits_for_count(max(self.m - 1, 1))
        num_children = len(self.tree.children_of(v))
        degree = num_children + (0 if v == self.tree.root else 1)
        portbits = bits_for_id(max(degree, 1))
        b.add("own_interval", 2 * idbits)
        if v != self.tree.root:
            b.add("parent_port", portbits)
        b.add("child_intervals", (2 * idbits + portbits), count=num_children)
        return b

    @staticmethod
    def slot_table_bits(parent_local: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """:meth:`table_bits` of every slot of many trees laid end to end.

        ``parent_local`` concatenates the trees' parent slots
        (:attr:`Tree.parent_local`, ``-1`` at a root) and ``sizes`` holds
        their node counts; entry ``offset + s`` is the table of slot ``s``
        of the tree starting at ``offset``.  One array expression, without a
        :class:`BitBudget` per node — construction-time accounting charges
        whole trees and families at once.  Child counts come from the
        parent slots.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        base = np.repeat(np.cumsum(sizes) - sizes, sizes)
        # label_bits() per tree: bits_for_count(x) = bits_for_ids(x + 1)
        idbits = np.repeat(bits_for_ids(np.maximum(sizes - 1, 1) + 1), sizes)
        is_child = parent_local >= 0
        children = np.bincount((base + parent_local)[is_child], minlength=base.size)
        portbits = bits_for_ids(np.maximum(children + is_child, 1))
        return 2 * idbits + children * (2 * idbits + portbits) + is_child * portbits

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order), from :meth:`slot_table_bits`."""
        bits = self.slot_table_bits(self.tree.parent_local, [self.m])
        # slot order -> tree-node order
        return bits[self.tree.dfs_in].tolist()

    # -- routing ----------------------------------------------------------- #
    def next_hop(self, current: int, target_label: int) -> Optional[int]:
        """Next tree node on the way to the node labeled ``target_label``.

        Returns ``None`` when ``current`` already is the destination.
        """
        tree = self.tree
        t_in = target_label
        c_in = tree.slot(current)
        if t_in == c_in:
            return None
        if c_in <= t_in <= tree.dfs_out[c_in]:
            kids = tree.child_slots(c_in)
            at = np.searchsorted(kids, t_in, side="right") - 1
            if at >= 0 and t_in <= tree.dfs_out[kids[at]]:
                return int(tree.node_of_slot[kids[at]])
            raise RuntimeError(
                f"inconsistent intervals: {t_in} inside node {current} but no child matches")
        require(current != tree.root,
                f"target label {t_in} is outside the tree rooted at {tree.root}")
        return int(tree.node_of_slot[tree.parent_local[c_in]])

    def walk(self, source: int, target_label: int) -> Tuple[List[int], float]:
        """Full walk (node sequence, weighted cost) from ``source`` to the label."""
        path = [source]
        cost = 0.0
        current = source
        for _ in range(2 * self.m + 1):
            nxt = self.next_hop(current, target_label)
            if nxt is None:
                return path, cost
            cost += self.tree.edge_weight(current, nxt)
            path.append(nxt)
            current = nxt
        raise RuntimeError("interval routing walk did not terminate")
