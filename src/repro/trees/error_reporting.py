"""Name-independent error-reporting tree routing with O(rad) lookups (Lemma 7).

Lemma 7 of the paper (inherited from Abraham–Gavoille–Malkhi, DISC 2004 [3]):
for every tree ``T`` with ``m`` nodes taken from an ``n``-node graph there is
a name-independent tree routing scheme that routes on paths of length at most
``4 rad(T) + 2k maxE(T)``, uses ``O(k n^{1/k} log n)`` bits per node and
``O(log^2 n)``-bit headers; looking up a name that is *not* in the tree also
costs at most one such closed path before a negative answer returns to the
source.

The cited construction is not spelled out in this paper, so the reproduction
implements a hash-distributed dictionary with the same interface and the same
cost shape (see DESIGN.md §3, item 4):

* every global name hashes to a *responsible* tree node — the node whose DFS
  index equals ``hash(name) mod m``;
* the responsible node stores, for every tree node ``v`` in its bucket, the
  pair (name of ``v``, DFS index of ``v``);
* each node keeps a DFS-interval routing table so that "walk to the node with
  DFS index p" needs no extra information;
* a lookup starting at any tree node walks: source → root → responsible node
  → destination, i.e. at most ``4 rad(T)`` in tree distance (each leg is a
  tree path of length ≤ 2 rad, and the first two legs are root-bound so ≤ rad
  each); a miss walks back to the source, again within the same bound.

The per-node space is ``O(deg(v) log m)`` (interval table) plus the expected
``O(1)`` (w.h.p. ``O(log n)``) dictionary bucket — the degree term is the
substitution's deviation from the paper's bound and is reported separately in
the bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import BucketHash, fold_names
from repro.trees.interval_routing import IntervalTreeRouting
from repro.utils.bitsize import BitBudget, bits_for_count
from repro.utils.validation import require


@dataclass
class DictionaryLookupResult:
    """Outcome of one lookup through the distributed dictionary."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    destination: Optional[int] = None


class DictionaryTreeRouting:
    """Lemma 7 structure for one (cover) tree.

    ``folded`` optionally holds the members' names already folded by
    :func:`~repro.hashing.universal.fold_names`, in ``tree.nodes`` order (a
    build that folds every graph name once passes them in); the names are
    folded here when it is omitted.
    """

    def __init__(
        self,
        tree: Tree,
        names: Dict[int, Hashable],
        name_bits: int = 64,
        seed=None,
        folded: Optional[np.ndarray] = None,
    ) -> None:
        for v in tree.nodes:
            require(v in names, f"missing name for tree node {v}")
        self.tree = tree
        self.m = tree.size
        self.names = {v: names[v] for v in tree.nodes}
        self.name_to_node = {name: v for v, name in self.names.items()}
        require(len(self.name_to_node) == self.m, "tree node names must be unique")
        self.name_bits = int(name_bits)

        self.interval = IntervalTreeRouting(tree)
        self.bucket_hash = BucketHash(self.m, seed=seed)
        self._dfs_order = tree.node_of_slot.tolist()

        # responsible node (by DFS index) -> {name: dfs label of the named node}
        if folded is None:
            folded = fold_names([self.names[v] for v in tree.nodes])
        self.buckets: Dict[int, Dict[Hashable, int]] = {v: {} for v in tree.nodes}
        for v, x, label in zip(tree.nodes, folded.tolist(), tree.dfs_in.tolist()):
            responsible = self._dfs_order[self.bucket_hash.bucket_of_fold(x)]
            self.buckets[responsible][self.names[v]] = label

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def responsible_node(self, name: Hashable) -> int:
        """The tree node responsible for storing ``name``'s dictionary entry."""
        return self._dfs_order[self.bucket_hash.bucket(name)]

    @staticmethod
    def responsible_slots(offsets: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Array form of :meth:`responsible_node` for trees compiled into a bank.

        Bucket ``b`` belongs to the node with DFS index ``b``, and a
        :class:`~repro.routing.forwarding.TreeBank` slot is the tree's
        offset plus the node's DFS index.
        """
        return np.asarray(offsets, dtype=np.int64) + np.asarray(buckets, dtype=np.int64)

    def max_bucket_entries(self) -> int:
        """Largest dictionary bucket (w.h.p. ``O(log n / log log n)``)."""
        return max((len(b) for b in self.buckets.values()), default=0)

    def contains_name(self, name: Hashable) -> bool:
        """Whether the tree contains a node with this global name."""
        return name in self.name_to_node

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: interval table + hash function + bucket entries."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        b = BitBudget()
        b.merge(self.interval.table_budget(v), prefix="interval_")
        b.add("bucket_hash", self.bucket_hash.storage_bits())
        entry_bits = self.name_bits + bits_for_count(max(self.m - 1, 1))
        b.add("bucket_entries", entry_bits, count=len(self.buckets[v]))
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) in one lean pass."""
        hash_bits = self.bucket_hash.storage_bits()
        entry_bits = self.name_bits + bits_for_count(max(self.m - 1, 1))
        interval_bits = self.interval.table_bits_list()
        return [ib + hash_bits + entry_bits * len(self.buckets[v])
                for v, ib in zip(self.tree.nodes, interval_bits)]

    def max_table_bits(self) -> int:
        """Largest per-node table in the tree."""
        return max((self.table_bits(v) for v in self.tree.nodes), default=0)

    def header_bits(self) -> int:
        """Header: destination name + a DFS label + a small state tag."""
        return self.name_bits + bits_for_count(max(self.m - 1, 1)) + 8

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def lookup(self, source: int, target_name: Hashable) -> DictionaryLookupResult:
        """Route from tree node ``source`` to the node named ``target_name``.

        The walk is source → root → responsible node → destination.  If the
        name is not stored (the destination is not in this tree) the walk
        returns to ``source`` and ``found`` is ``False`` — the error report.
        """
        require(self.tree.contains(source), f"source {source} is not in the tree")
        result = DictionaryLookupResult(found=False, path=[source], cost=0.0)

        # leg 1: climb to the root (the paper's dense strategy also starts at the root)
        self._walk_to_label(result, self.interval.label_of(self.tree.root))
        # leg 2: descend to the responsible node
        responsible = self.responsible_node(target_name)
        self._walk_to_label(result, self.interval.label_of(responsible))
        # leg 3: the responsible node either knows the destination or reports a miss
        entry = self.buckets[responsible].get(target_name)
        if entry is None:
            # negative response: travel back to the source
            self._walk_to_label(result, self.interval.label_of(source))
            result.found = False
            return result
        self._walk_to_label(result, entry)
        result.found = True
        result.destination = self.interval.node_with_label(entry)
        return result

    def lookup_from_root(self, target_name: Hashable) -> DictionaryLookupResult:
        """Lookup starting at the root (used when the caller already routed there)."""
        return self.lookup(self.tree.root, target_name)

    def plan_lookup(self, source: int, target_name: Hashable
                    ) -> Tuple[List[int], bool, Optional[int]]:
        """The waypoints of :meth:`lookup` without performing the walk.

        Returns ``(targets, found, destination)`` where ``targets`` is the
        sequence of tree nodes the walk heads for in order (root, responsible
        node, then the destination on a hit or back to ``source`` on a miss).
        The compiled-forwarding layer turns each waypoint into a lockstep
        tree leg; the resulting walk is identical to :meth:`lookup`'s.
        """
        require(self.tree.contains(source), f"source {source} is not in the tree")
        responsible = self.responsible_node(target_name)
        targets = [self.tree.root, responsible]
        entry = self.buckets[responsible].get(target_name)
        if entry is None:
            targets.append(source)
            return targets, False, None
        destination = self.interval.node_with_label(entry)
        targets.append(destination)
        return targets, True, destination

    def _walk_to_label(self, result: DictionaryLookupResult, label: int) -> None:
        current = result.path[-1]
        seg, cost = self.interval.walk(current, label)
        if seg and seg[0] == current:
            result.path.extend(seg[1:])
        else:
            result.path.extend(seg)
        result.cost += cost
