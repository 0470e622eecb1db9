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

Storage.  The dictionaries of a whole family of trees (the cover trees of a
dense strategy, the fallback trees, the scales of a baseline) are built by
one :class:`DictionaryFamily` in one array pass and held as one CSR:

* the family's *slots* number its trees' nodes tree by tree, a node's slot
  being its tree's offset plus its DFS index, so bucket ``b`` of tree ``t``
  is slot ``offset[t] + b``;
* ``indptr`` over the slots delimits each bucket's entries;
* three entry arrays hold, per stored name, its fold
  (:func:`~repro.hashing.universal.fold_names`), its node and that node's
  DFS label; a bucket's entries are sorted by fold.

Every member's bucket comes from one stacked evaluation of the family's
bucket hashes, and one ``lexsort`` by (tree, bucket, fold) places the
entries.  A :class:`DictionaryTreeRouting` is a view of one tree: its tree,
bucket hash, interval table and slot offset.  A lookup finds a name's entry
by its fold inside the responsible bucket and then compares names, so two
names with the same fold stay apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import BucketHash, HashStack, _fold_name, fold_names
from repro.trees.interval_routing import IntervalTreeRouting
from repro.utils.bitsize import BitBudget
from repro.utils.validation import ValidationError, require


@dataclass
class DictionaryLookupResult:
    """Outcome of one lookup through the distributed dictionary."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    destination: Optional[int] = None


def _concat(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)


class DictionaryFamily:
    """The Lemma 7 structures of many trees, built in one array pass.

    Parameters
    ----------
    trees:
        The family's trees.
    names:
        Node -> global name for every tree node (a graph's
        :meth:`~repro.graphs.graph.WeightedGraph.names_view`, or a dict);
        held by reference, lookups compare against it.
    seeds:
        One bucket-hash seed per tree, consumed in tree order.
    name_bits:
        Bits charged for storing one global name in a bucket entry.
    folded:
        Every node's name already folded by
        :func:`~repro.hashing.universal.fold_names`, indexed by node (a
        build that folds every graph name once passes them in); the members'
        names are folded here when omitted.

    :attr:`routings` holds one :class:`DictionaryTreeRouting` per tree.
    """

    def __init__(self, trees: Sequence[Tree], names, seeds: Iterable,
                 name_bits: int = 64, folded: Optional[np.ndarray] = None) -> None:
        trees = list(trees)
        self._names = names
        self.name_bits = int(name_bits)
        sizes = np.fromiter((tree.size for tree in trees), dtype=np.int64,
                            count=len(trees))
        #: slot of each tree's root; tree t owns slots offsets[t] .. offsets[t+1]
        self.offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        total = int(self.offsets[-1])
        nodes = _concat([tree.node_ids for tree in trees])
        if folded is None:
            try:
                folds = fold_names([names[v] for v in nodes.tolist()])
            except KeyError as missing:
                raise ValidationError(
                    f"missing name for tree node {missing.args[0]}") from None
        else:
            folds = np.asarray(folded, dtype=np.uint64)[nodes]

        # every member's bucket in one stacked evaluation
        stack = HashStack()
        hashes = []
        for tree, seed in zip(trees, seeds):
            hashes.append(BucketHash(tree.size, seed=seed))
            hashes[-1].stack_into(stack)
        require(len(hashes) == len(trees), "need one seed per tree")
        tree_of = np.repeat(np.arange(len(trees), dtype=np.int64), sizes)
        slot = self.offsets[:-1][tree_of] + stack.evaluate(tree_of, folds)

        order = np.lexsort((folds, slot))
        self.indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=total), out=self.indptr[1:])
        #: per entry, in (slot, fold) order: the stored name's fold, its node
        #: and that node's DFS label
        self.folds = folds[order]
        self.nodes = nodes[order]
        self.labels = _concat([tree.dfs_in for tree in trees])[order]
        self._check_unique(slot[order])
        self._bits: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.routings = [DictionaryTreeRouting(self, tree, bucket_hash, int(lo))
                         for tree, bucket_hash, lo in
                         zip(trees, hashes, self.offsets[:-1].tolist())]

    def _check_unique(self, slots: np.ndarray) -> None:
        """Entries of one tree with one fold share a bucket: their names must differ."""
        clash = np.flatnonzero((np.diff(slots) == 0) & (np.diff(self.folds) == 0))
        runs = {}
        for e in clash.tolist():
            runs.setdefault(int(slots[e]), {e}).add(e + 1)
        for entries in runs.values():
            names = [self._names[int(self.nodes[e])] for e in entries]
            require(len(set(names)) == len(names), "tree node names must be unique")

    def find(self, slot: int, fold: int, name: Hashable) -> int:
        """Index of the entry of ``name`` (folded to ``fold``) in bucket ``slot``; -1 if none."""
        for e in range(int(self.indptr[slot]), int(self.indptr[slot + 1])):
            if int(self.folds[e]) == fold and self._names[int(self.nodes[e])] == name:
                return e
        return -1

    def table_bits(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes, bits)`` of every member, tree by tree in node order, in one pass.

        Per node: the interval table, the bucket hash and the bucket's
        entries (the same integers as :meth:`DictionaryTreeRouting.table_bits`).
        """
        if self._bits is None:
            trees = [routing.tree for routing in self.routings]
            sizes = np.diff(self.offsets)
            parent, dfs_in, nodes = (
                _concat([getattr(t, name) for t in trees])
                for name in ("parent_local", "dfs_in", "node_ids"))
            entry_bits = np.fromiter(
                (self.name_bits + r.interval.label_bits() for r in self.routings),
                dtype=np.int64, count=len(self.routings))
            hash_bits = np.fromiter(
                (r.bucket_hash.storage_bits() for r in self.routings),
                dtype=np.int64, count=len(self.routings))
            # slot order: interval table plus the bucket's entries
            slot_bits = (IntervalTreeRouting.slot_table_bits(parent, sizes)
                         + np.repeat(entry_bits, sizes) * np.diff(self.indptr))
            base = np.repeat(self.offsets[:-1], sizes)
            self._bits = (nodes, slot_bits[base + dfs_in] + np.repeat(hash_bits, sizes))
        return self._bits


class DictionaryTreeRouting:
    """Lemma 7 structure for one tree: a view of its :class:`DictionaryFamily`.

    Built by the family; a lone tree is a family of one::

        DictionaryFamily([tree], names, [seed]).routings[0]
    """

    def __init__(self, family: DictionaryFamily, tree: Tree,
                 bucket_hash: BucketHash, offset: int) -> None:
        self.family = family
        self.tree = tree
        self.m = tree.size
        self.name_bits = family.name_bits
        self.interval = IntervalTreeRouting(tree)
        self.bucket_hash = bucket_hash
        #: family slot of this tree's root (DFS index 0)
        self.offset = offset

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def _entry(self, name: Hashable) -> Tuple[int, int]:
        """``(bucket, entry)``: the DFS index of ``name``'s responsible node
        and the family index of its entry there (``-1`` when no tree node
        carries ``name``)."""
        fold = _fold_name(name)
        bucket = self.bucket_hash.bucket_of_fold(fold)
        return bucket, self.family.find(self.offset + bucket, fold, name)

    def responsible_node(self, name: Hashable) -> int:
        """The tree node responsible for storing ``name``'s dictionary entry."""
        return int(self.tree.node_of_slot[self.bucket_hash.bucket(name)])

    @staticmethod
    def responsible_slots(offsets: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Array form of :meth:`responsible_node` for trees compiled into a bank.

        Bucket ``b`` belongs to the node with DFS index ``b``, and a
        :class:`~repro.routing.forwarding.TreeBank` slot is the tree's
        offset plus the node's DFS index.
        """
        return np.asarray(offsets, dtype=np.int64) + np.asarray(buckets, dtype=np.int64)

    def _bucket_bounds(self, slot: int) -> Tuple[int, int]:
        indptr = self.family.indptr
        return int(indptr[self.offset + slot]), int(indptr[self.offset + slot + 1])

    def dictionary_of(self, v: int) -> np.ndarray:
        """The nodes whose entries ``v``'s bucket holds (in fold order)."""
        lo, hi = self._bucket_bounds(self.tree.slot(v))
        return self.family.nodes[lo:hi]

    def max_bucket_entries(self) -> int:
        """Largest dictionary bucket (w.h.p. ``O(log n / log log n)``)."""
        indptr = self.family.indptr[self.offset:self.offset + self.m + 1]
        return int(np.diff(indptr).max(initial=0))

    def contains_name(self, name: Hashable) -> bool:
        """Whether the tree contains a node with this global name."""
        return self._entry(name)[1] >= 0

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: interval table + hash function + bucket entries."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        b = BitBudget()
        b.merge(self.interval.table_budget(v), prefix="interval_")
        b.add("bucket_hash", self.bucket_hash.storage_bits())
        entry_bits = self.name_bits + self.interval.label_bits()
        lo, hi = self._bucket_bounds(self.tree.slot(v))
        b.add("bucket_entries", entry_bits, count=hi - lo)
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order), read from the family's pass."""
        bits = self.family.table_bits()[1]
        return bits[self.offset:self.offset + self.m].tolist()

    def max_table_bits(self) -> int:
        """Largest per-node table in the tree."""
        return max(self.table_bits_list(), default=0)

    def header_bits(self) -> int:
        """Header: destination name + a DFS label + a small state tag."""
        return self.name_bits + self.interval.label_bits() + 8

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
        # leg 2: descend to the responsible node, whose DFS index is the bucket
        bucket, entry = self._entry(target_name)
        self._walk_to_label(result, bucket)
        # leg 3: the responsible node either knows the destination or reports a miss
        if entry < 0:
            # negative response: travel back to the source
            self._walk_to_label(result, self.interval.label_of(source))
            result.found = False
            return result
        self._walk_to_label(result, int(self.family.labels[entry]))
        result.found = True
        result.destination = int(self.family.nodes[entry])
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
        bucket, entry = self._entry(target_name)
        targets = [self.tree.root, int(self.tree.node_of_slot[bucket])]
        if entry < 0:
            targets.append(source)
            return targets, False, None
        destination = int(self.family.nodes[entry])
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
