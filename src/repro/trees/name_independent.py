"""Name-independent error-reporting tree routing (Lemma 4).

Lemma 4 of the paper (an enhancement of Laing's scheme [21]): for any
``k >= 1`` and any weighted rooted tree ``T`` there is a *name-independent*
tree routing scheme such that

1. each node stores ``O(k n^{1/k} log^2 n)`` bits;
2. the root can perform a ``j``-bounded search for a destination ``v``:
   (a) if ``v`` is among the ``n^{j/k}`` closest tree nodes to the root, the
   search reaches ``v`` with stretch ``2j - 1``;
   (b) otherwise a negative response returns to the root at cost at most
   ``(2j - 2) * max{ d(root, w) : w among the n^{(j-1)/k} closest }``.

Construction (following §3.1 of the paper):

* nodes are sorted by distance from the root and given **primary names** —
  digit strings over ``Sigma = {0..sigma-1}``: the root gets the empty word,
  the next ``sigma`` nodes one-digit names, the next ``sigma^2`` two-digit
  names, and so on (``V_j`` = nodes whose primary name has at most ``j``
  digits);
* every node also has a **hash name** ``h(name) in Sigma^L`` drawn from a
  ``Theta(log n)``-wise independent family;
* a node with primary name ``(x_1..x_j)`` stores (i) its Lemma 5 table, (ii)
  the Lemma 5 labels of its *trie children* — the nodes named
  ``(x_1..x_j, y)`` for each ``y`` — and (iii) a dictionary mapping the
  global name of every node ``v`` with at most ``j+1`` digits whose hash
  prefix equals ``(x_1..x_j)`` to ``v``'s Lemma 5 label;
* a ``j``-bounded search from the root walks the trie path determined by the
  destination's hash digits; as soon as some visited node's dictionary knows
  the destination's label the search routes to it, and if the budget ``j`` is
  exhausted the search walks back to the root and reports failure.

Deviation from the paper (documented in DESIGN.md §3): the dictionary is not
truncated to the ``n^{1/k} log n`` closest matching nodes — all matching
nodes of ``V_{j+1}`` are stored, which guarantees searches never miss; the
w.h.p. load bound of the paper makes the two choices coincide on all but
pathological hash draws, and the measured dictionary sizes are reported so
the bound can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import DigitHash
from repro.trees.compact_labeled import CompactTreeRouting, TreeLabel
from repro.utils.bitsize import BitBudget, bits_for_count
from repro.utils.validation import require


@dataclass
class BoundedSearchResult:
    """Outcome of a ``j``-bounded search started at the tree root."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    rounds_used: int = 0
    destination: Optional[int] = None


class NameIndependentTreeRouting:
    """Lemma 4 structure for one rooted tree.

    Parameters
    ----------
    tree:
        The rooted weighted tree.
    names:
        Mapping from tree node (graph index) to its arbitrary global name.
    k:
        Trade-off parameter used for the underlying Lemma 5 tables.
    sigma:
        Alphabet size; defaults to ``ceil(m^{1/k})`` so that ``k`` digit
        levels suffice for all ``m`` nodes.
    name_bits:
        Bits charged for storing one global name in a dictionary entry.
    seed:
        Randomness for the hash family.
    """

    def __init__(
        self,
        tree: Tree,
        names: Dict[int, Hashable],
        k: int = 2,
        sigma: Optional[int] = None,
        name_bits: int = 64,
        seed=None,
    ) -> None:
        require(k >= 1, f"k must be >= 1, got {k}")
        for v in tree.nodes:
            require(v in names, f"missing name for tree node {v}")
        self.tree = tree
        self.k = int(k)
        self.m = tree.size
        self.names = {v: names[v] for v in tree.nodes}
        self.name_to_node = {name: v for v, name in self.names.items()}
        require(len(self.name_to_node) == self.m, "tree node names must be unique")
        self.name_bits = int(name_bits)

        if sigma is None:
            sigma = int(math.ceil(self.m ** (1.0 / self.k))) if self.m > 1 else 1
        self.sigma = max(1, int(sigma))

        self.compact = CompactTreeRouting(tree, k=self.k)

        self._assign_primary_names()
        self.max_digits = max((len(p) for p in self.primary_name.values()), default=0)
        hash_length = max(self.max_digits, 1)
        independence = max(8, int(math.ceil(math.log2(max(self.m, 2)))) + 1)
        self.digit_hash = DigitHash(self.sigma, hash_length, independence=independence, seed=seed)

        self._build_tables()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _assign_primary_names(self) -> None:
        """Assign digit-string names by increasing distance from the root."""
        ordered = self.tree.nodes_by_depth()
        self.primary_name: Dict[int, Tuple[int, ...]] = {}
        self.node_of_primary: Dict[Tuple[int, ...], int] = {}
        idx = 0
        level = 0
        level_capacity = 1  # sigma^0 names of length 0 (just the root)
        current_name: List[int] = []
        for node in ordered:
            if idx >= level_capacity:
                # move to the next digit length
                level += 1
                level_capacity = self.sigma ** level if self.sigma > 1 else 1
                if self.sigma == 1 and level > 0:
                    level_capacity = 1
                idx = 0
            name = self._int_to_digits(idx, level)
            self.primary_name[node] = name
            self.node_of_primary[name] = node
            idx += 1

    def _int_to_digits(self, value: int, length: int) -> Tuple[int, ...]:
        digits = [0] * length
        for pos in range(length - 1, -1, -1):
            digits[pos] = value % self.sigma if self.sigma > 1 else 0
            value //= max(self.sigma, 1)
        return tuple(digits)

    def _build_tables(self) -> None:
        # trie children: primary name (x1..xj) -> for each digit y, the node named (x1..xj,y)
        self.trie_children: Dict[int, Dict[int, int]] = {v: {} for v in self.tree.nodes}
        for node, name in self.primary_name.items():
            if len(name) == 0:
                continue
            parent_name = name[:-1]
            parent = self.node_of_primary.get(parent_name)
            if parent is not None:
                self.trie_children[parent][name[-1]] = node

        # hash digits of every tree node's global name
        self.hash_digits: Dict[int, Tuple[int, ...]] = {
            v: self.digit_hash.digits(self.names[v]) for v in self.tree.nodes
        }

        # dictionary: a node with a j-digit primary name stores label entries for
        # every node with at most j+1 digits whose hash prefix matches its name.
        # For a fixed target t only one holder exists per prefix length j (the
        # node whose primary name equals h(t)[:j]), so the construction is
        # O(m * max_digits) rather than O(m^2).
        self.dictionary: Dict[int, Dict[Hashable, int]] = {v: {} for v in self.tree.nodes}
        for target in self.tree.nodes:
            t_digits = len(self.primary_name[target])
            t_hash = self.hash_digits[target]
            for j in range(max(t_digits - 1, 0), self.max_digits + 1):
                holder = self.node_of_primary.get(t_hash[:j])
                if holder is not None:
                    self.dictionary[holder][self.names[target]] = target

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: hash function + Lemma 5 table + labels + dictionary."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        b = BitBudget()
        b.add("hash_function", self.digit_hash.storage_bits())
        b.merge(self.compact.table_budget(v), prefix="mu_")
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        b.add("trie_child_labels", digit_bits + label_bits, count=len(self.trie_children[v]))
        b.add("dictionary", self.name_bits + label_bits, count=len(self.dictionary[v]))
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) in one lean pass."""
        hash_bits = self.digit_hash.storage_bits()
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        compact_bits = self.compact.table_bits_list()
        return [hash_bits + cb
                + len(self.trie_children[v]) * (digit_bits + label_bits)
                + len(self.dictionary[v]) * (self.name_bits + label_bits)
                for v, cb in zip(self.tree.nodes, compact_bits)]

    def max_table_bits(self) -> int:
        """Largest per-node table."""
        return max((self.table_bits(v) for v in self.tree.nodes), default=0)

    def max_dictionary_entries(self) -> int:
        """Largest dictionary at any node (to audit the w.h.p. load bound)."""
        return max((len(d) for d in self.dictionary.values()), default=0)

    def header_bits(self) -> int:
        """Header: destination name + hash digits + a Lemma 5 label once learned."""
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        return (self.name_bits + self.max_digits * digit_bits
                + self.compact.max_label_bits() + bits_for_count(max(self.max_digits, 1)))

    # ------------------------------------------------------------------ #
    # searches
    # ------------------------------------------------------------------ #
    def digits_of(self, v: int) -> int:
        """Number of digits of ``v``'s primary name (its trie depth)."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        return len(self.primary_name[v])

    def required_bound(self, nodes: Sequence[int]) -> int:
        """The minimal ``j`` such that a ``j``-bounded search finds every node in ``nodes``.

        This is the quantity ``b(u, i)`` of §3.2 stores for each sparse level.
        """
        best = 1
        for v in nodes:
            if self.tree.contains(v):
                best = max(best, max(self.digits_of(v), 1))
        return best

    def contains_name(self, name: Hashable) -> bool:
        """Whether some tree node carries this global name."""
        return name in self.name_to_node

    def search_from_root(self, target_name: Hashable,
                         j_bound: Optional[int] = None) -> BoundedSearchResult:
        """Perform a ``j``-bounded search for ``target_name`` starting at the root.

        The returned walk starts at the root; on success it ends at the target
        node, otherwise it ends back at the root (the error report).
        """
        root = self.tree.root
        if j_bound is None:
            j_bound = max(self.max_digits, 1)
        j_bound = max(1, int(j_bound))
        result = BoundedSearchResult(found=False, path=[root], cost=0.0, rounds_used=0)

        target_hash = self.digit_hash.digits(target_name)
        current = root
        for round_no in range(1, j_bound + 1):
            result.rounds_used = round_no
            # does the current node know the destination?
            if self.names[current] == target_name:
                result.found = True
                result.destination = current
                return result
            known = self.dictionary[current].get(target_name)
            if known is not None:
                seg, cost = self.compact.walk(current, known)
                self._extend(result, seg, cost)
                result.found = True
                result.destination = known
                return result
            if round_no == j_bound:
                break
            # descend the trie along the destination's hash digits
            digit = target_hash[round_no - 1] if round_no - 1 < len(target_hash) else 0
            child = self.trie_children[current].get(digit)
            if child is None:
                break  # the trie has no deeper node on this hash path
            seg, cost = self.compact.walk(current, child)
            self._extend(result, seg, cost)
            current = child
        # negative response: report back to the root
        if current != root:
            seg, cost = self.compact.walk(current, root)
            self._extend(result, seg, cost)
        result.found = False
        result.destination = None
        return result

    def plan_search_from_root(self, target_name: Hashable,
                              j_bound: Optional[int] = None
                              ) -> Tuple[List[int], bool, Optional[int]]:
        """The waypoints of :meth:`search_from_root` without performing the walk.

        Returns ``(targets, found, destination)``: the sequence of tree nodes
        the bounded search heads for in order (trie children along the hash
        digits, then the destination once some dictionary knows it, or back
        to the root on a miss).  Mirrors :meth:`search_from_root` decision for
        decision, so the compiled-forwarding walk over these waypoints is
        identical to the scalar search walk.
        """
        root = self.tree.root
        if j_bound is None:
            j_bound = max(self.max_digits, 1)
        j_bound = max(1, int(j_bound))
        targets: List[int] = []
        target_hash = self.digit_hash.digits(target_name)
        current = root
        for round_no in range(1, j_bound + 1):
            if self.names[current] == target_name:
                return targets, True, current
            known = self.dictionary[current].get(target_name)
            if known is not None:
                targets.append(known)
                return targets, True, known
            if round_no == j_bound:
                break
            digit = target_hash[round_no - 1] if round_no - 1 < len(target_hash) else 0
            child = self.trie_children[current].get(digit)
            if child is None:
                break
            targets.append(child)
            current = child
        if current != root:
            targets.append(root)
        return targets, False, None

    # ------------------------------------------------------------------ #
    # array views (batch planning)
    # ------------------------------------------------------------------ #
    def trie_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """The primary-name layout as arrays: ``(nodes, name_lengths)``.

        ``nodes[p]`` is the node at position ``p`` of the depth order that
        primary names are assigned in and ``name_lengths[p]`` is its trie
        depth; :meth:`trie_path_positions` addresses trie nodes by position.
        ``primary_name`` is filled in that order, so it is read as is.
        """
        nodes = np.fromiter(self.primary_name.keys(), dtype=np.int64, count=self.m)
        lengths = np.fromiter(map(len, self.primary_name.values()),
                              dtype=np.int64, count=self.m)
        return nodes, lengths

    @staticmethod
    def trie_path_positions(digits: np.ndarray, sigma: np.ndarray,
                            size: np.ndarray) -> np.ndarray:
        """Depth-order positions of the trie nodes on hash paths.

        Row ``r`` holds the hash digits ``h(t)`` of one target in a tree with
        alphabet ``sigma[r]`` and ``size[r]`` nodes.  Names of length ``j``
        fill the positions from ``offset_j = 1 + sigma + ... + sigma^(j-1)``
        in base-``sigma`` order, so the node named ``h(t)[:j]`` sits at
        ``offset_j + value(h(t)[:j])`` whenever that is below the tree size.
        Column ``j - 1`` of the result holds that position, or ``-1`` when
        the node does not exist.  Every level but the deepest is full, so
        along a path the existing nodes form a prefix.
        """
        digits = np.asarray(digits, dtype=np.int64)
        sigma = np.asarray(sigma, dtype=np.int64)
        size = np.asarray(size, dtype=np.int64)
        out = np.full(digits.shape, -1, dtype=np.int64)
        offset = np.zeros(digits.shape[0], dtype=np.int64)
        power = np.ones(digits.shape[0], dtype=np.int64)
        value = np.zeros(digits.shape[0], dtype=np.int64)
        # capping at the tree size keeps the arithmetic in range without
        # changing which positions lie below it
        for j in range(digits.shape[1]):
            offset = np.minimum(offset + power, size)
            power = np.minimum(power * sigma, size)
            value = np.minimum(value * sigma + digits[:, j], size)
            position = offset + value
            out[:, j] = np.where(position < size, position, -1)
        return out

    @staticmethod
    def bounded_search_depths(name_length: np.ndarray, bound: np.ndarray,
                              deepest: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where bounded searches from the root stop, for arrays of searches.

        ``name_length`` is the target's trie depth ``d`` (``-1`` when the
        target is not in the tree), ``bound`` the search bound ``j`` and
        ``deepest`` the depth of the deepest trie node on the target's hash
        path.  Returns ``(depth, found)``: the search descends the hash path
        to ``depth``.  The first dictionary holding a target of depth ``d``
        is its hash-path node at depth ``max(d - 1, 0)``, so the search
        finds it there when that depth is within the bound; a miss descends
        as far as the bound and the trie allow, then reports to the root.
        This is :meth:`plan_search_from_root` in closed form.
        """
        bound = np.maximum(bound, 1)
        home = np.maximum(name_length - 1, 0)
        found = (name_length >= 0) & (home < bound)
        depth = np.where(found, home, np.minimum(bound - 1, deepest))
        return depth, found

    @staticmethod
    def _extend(result: BoundedSearchResult, segment: List[int], cost: float) -> None:
        if segment and result.path and segment[0] == result.path[-1]:
            result.path.extend(segment[1:])
        else:
            result.path.extend(segment)
        result.cost += cost
