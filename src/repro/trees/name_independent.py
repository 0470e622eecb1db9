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

Storage.  Names are assigned in depth order, so the trie is an implicit
``sigma``-ary heap over depth-order positions: the name ``(x_1..x_j)`` sits at
``offset_j + value_sigma(x_1..x_j)`` with ``offset_j = 1 + sigma + ... +
sigma^(j-1)``, and the trie children of position ``p`` are positions
``sigma*p + 1 .. sigma*p + sigma`` below ``m``.  A structure stores

* two depth-order arrays: the node at each position and its name length;
* the dictionaries as one CSR pair over holder positions: the targets each
  holder stores, sorted by node.

Trie children and hash paths are arithmetic on positions
(:meth:`NameIndependentTreeRouting.trie_path_positions`), and
:meth:`NameIndependentTreeRouting.family` evaluates the hash names of every
member of a build's trees in one stacked pass of their digit functions over
the members' folded names (a lone tree is a family of one).  Names resolve
through one name -> node index shared by the family's trees, plus tree
membership.
A target ``t`` with a ``d``-digit name is stored by the holders on its hash
path at depths ``max(d - 1, 0)`` and deeper, so the tables are built without
a per-node Python loop.

Deviation from the paper (DESIGN.md §3 item 3): the dictionary is not
truncated to the ``n^{1/k} log n`` closest matching nodes — all matching
nodes of ``V_{j+1}`` are stored, which guarantees searches never miss; the
w.h.p. load bound of the paper makes the two choices coincide on all but
pathological hash draws, and the measured dictionary sizes are reported so
the bound can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import DigitHash, HashStack, fold_names
from repro.trees.compact_labeled import CompactTreeRouting
from repro.utils.bitsize import BitBudget, bits_for_count
from repro.utils.validation import ValidationError, require


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

    A lone tree is a family of one whose name index holds its own members;
    a build makes its structures with :meth:`family`, which shares the
    graph's name index among all its trees.
    """

    def __init__(
        self,
        tree: Tree,
        names: Mapping[int, Hashable],
        k: int = 2,
        sigma: Optional[int] = None,
        name_bits: int = 64,
        seed=None,
    ) -> None:
        try:
            member_names = [names[v] for v in tree.nodes]
        except KeyError as missing:
            raise ValidationError(
                f"missing name for tree node {missing.args[0]}") from None
        name_index = dict(zip(member_names, tree.nodes))
        require(len(name_index) == tree.size, "tree node names must be unique")
        self._layout(tree, k, sigma, name_bits, seed, name_index)
        self._hash_members([self], fold_names(member_names))

    @classmethod
    def family(cls, trees: Sequence[Tree], seeds: Iterable, k: int,
               sigma: Optional[int], name_bits: int, folded: np.ndarray,
               name_index: Mapping[Hashable, int]
               ) -> List["NameIndependentTreeRouting"]:
        """One structure per tree, every member's hash digits in one stacked pass.

        ``seeds`` holds one hash seed per tree, consumed in tree order;
        ``folded`` is every node's folded name, indexed by node
        (:meth:`~repro.construction.context.BuildContext.folded_names`), and
        ``name_index`` maps every name to its node
        (:meth:`~repro.graphs.graph.WeightedGraph.name_index`); searches
        resolve a name there, then check tree membership.  Each structure
        equals the one the constructor builds from the same tree and seed.
        """
        routings = []
        for tree, seed in zip(trees, seeds):
            routing = cls.__new__(cls)
            routing._layout(tree, k, sigma, name_bits, seed, name_index)
            routings.append(routing)
        if routings:
            cls._hash_members(routings, np.asarray(folded, dtype=np.uint64)[
                np.concatenate([r.tree.node_ids for r in routings])])
        return routings

    @staticmethod
    def _hash_members(routings: Sequence["NameIndependentTreeRouting"],
                      member_folds: np.ndarray) -> None:
        """Every member's hash digits in one stacked pass, then each tree's dictionaries.

        ``member_folds`` holds the members' folded names, tree by tree in
        ``tree.nodes`` order.
        """
        stack = HashStack()
        firsts = [r.digit_hash.stack_into(stack) for r in routings]
        sizes = np.fromiter((r.m for r in routings), dtype=np.int64,
                            count=len(routings))
        widths = np.fromiter((r.max_digits for r in routings), dtype=np.int64,
                             count=len(routings))
        member_tree = np.repeat(np.arange(len(routings)), sizes)
        member_width = widths[member_tree]
        member_first = np.asarray(firsts, dtype=np.int64)[member_tree]
        # digit column j of every member whose tree names that many digits
        digits = np.zeros((member_tree.size, int(widths.max())), dtype=np.int64)
        for j in range(digits.shape[1]):
            sel = np.flatnonzero(member_width > j)
            digits[sel, j] = stack.evaluate(member_first[sel] + j,
                                            member_folds[sel])
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        for routing, lo, hi in zip(routings, bounds, bounds[1:]):
            routing._index_dictionaries(digits[lo:hi, :routing.max_digits])

    def _layout(self, tree: Tree, k: int, sigma: Optional[int], name_bits: int,
                seed, name_index: Mapping[Hashable, int]) -> None:
        """Primary names, Lemma 5 tables and the hash family of ``tree``."""
        require(k >= 1, f"k must be >= 1, got {k}")
        self.tree = tree
        self._name_index = name_index
        self.k = int(k)
        self.m = m = tree.size
        self.name_bits = int(name_bits)

        if sigma is None:
            sigma = int(math.ceil(m ** (1.0 / self.k))) if m > 1 else 1
        self.sigma = max(1, int(sigma))

        self.compact = CompactTreeRouting(tree, k=self.k)

        # primary names: depth-order position -> node and name length.
        # tree.node_ids is ascending, so a stable sort by depth breaks ties
        # by node id, the (depth, node) order of Tree.nodes_by_depth
        by_depth = np.argsort(tree.depth, kind="stable")
        self._order = tree.node_ids[by_depth]
        self._length = np.zeros(m, dtype=np.int64)
        start, width = 1, 1
        while start < m:
            width *= self.sigma
            self._length[start:start + width] = self._length[start - 1] + 1
            start += width
        #: depth-order position of each tree node, in ``tree.nodes`` order
        self._position = np.empty(m, dtype=np.int64)
        self._position[by_depth] = np.arange(m, dtype=np.int64)

        self.max_digits = int(self._length[-1])
        hash_length = max(self.max_digits, 1)
        independence = max(8, int(math.ceil(math.log2(max(m, 2)))) + 1)
        self.digit_hash = DigitHash(self.sigma, hash_length, independence=independence, seed=seed)

    def _index_dictionaries(self, digits: np.ndarray) -> None:
        """The dictionary CSR from the members' hash digits (``tree.nodes`` rows).

        Target ``t`` (name length ``d``) is stored by the node named
        ``h(t)[:j]`` for every ``j >= max(d - 1, 0)`` at which that node
        exists -- the root (``j = 0``) and the hash-path positions below the
        tree size.
        """
        m, nodes = self.m, self.tree.node_ids
        path = self.trie_path_positions(digits, np.full(m, self.sigma),
                                        np.full(m, m))
        holders = np.concatenate([np.zeros((m, 1), dtype=np.int64), path], axis=1)
        first = np.maximum(self._length[self._position] - 1, 0)
        keep = (holders >= 0) & (np.arange(self.max_digits + 1) >= first[:, None])
        holder = holders[keep]
        target = np.broadcast_to(nodes[:, None], holders.shape)[keep]
        by_holder = np.lexsort((target, holder))
        self._dict_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(holder, minlength=m), out=self._dict_indptr[1:])
        self._dict_targets = target[by_holder]

    # ------------------------------------------------------------------ #
    # the trie and the dictionaries
    # ------------------------------------------------------------------ #
    def _position_of(self, v: int) -> int:
        return int(self._position[self.tree.position(v)])

    def _trie_child(self, position: int, digit: int) -> Optional[int]:
        """Position of the trie child with ``digit`` (``None`` past the tree)."""
        child = self.sigma * position + 1 + digit
        return child if child < self.m else None

    def _dictionary_at(self, position: int) -> np.ndarray:
        return self._dict_targets[self._dict_indptr[position]:
                                  self._dict_indptr[position + 1]]

    def trie_children_of(self, v: int) -> Dict[int, int]:
        """The trie children of ``v``: digit ``y`` -> the node named ``name(v) + (y,)``."""
        position = self._position_of(v)
        children = {}
        for digit in range(self.sigma):
            child = self._trie_child(position, digit)
            if child is None:
                break
            children[digit] = int(self._order[child])
        return children

    def dictionary_of(self, v: int) -> np.ndarray:
        """The targets in ``v``'s dictionary (ascending node ids)."""
        return self._dictionary_at(self._position_of(v))

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: hash function + Lemma 5 table + labels + dictionary."""
        b = BitBudget()
        b.add("hash_function", self.digit_hash.storage_bits())
        b.merge(self.compact.table_budget(v), prefix="mu_")
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        b.add("trie_child_labels", digit_bits + label_bits,
              count=len(self.trie_children_of(v)))
        b.add("dictionary", self.name_bits + label_bits,
              count=len(self.dictionary_of(v)))
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) as one array expression."""
        hash_bits = self.digit_hash.storage_bits()
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        entries = np.diff(self._dict_indptr)[self._position]
        children = np.clip(self.m - (self.sigma * self._position + 1), 0, self.sigma)
        bits = (hash_bits + np.asarray(self.compact.table_bits_list(), dtype=np.int64)
                + children * (digit_bits + label_bits)
                + entries * (self.name_bits + label_bits))
        return bits.tolist()

    def max_table_bits(self) -> int:
        """Largest per-node table."""
        return max(self.table_bits_list(), default=0)

    def max_dictionary_entries(self) -> int:
        """Largest dictionary at any node (to audit the w.h.p. load bound)."""
        return int(np.diff(self._dict_indptr).max(initial=0))

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
        return int(self._length[self._position_of(v)])

    def name_lengths(self) -> np.ndarray:
        """:meth:`digits_of` of every node, in ``tree.nodes`` order."""
        return self._length[self._position]

    def required_bound(self, nodes: Sequence[int]) -> int:
        """The minimal ``j`` such that a ``j``-bounded search finds every node in ``nodes``.

        This is the quantity ``b(u, i)`` of §3.2 stores for each sparse level.
        """
        at = self.tree.positions(nodes)
        return max(int(self.name_lengths()[at[at >= 0]].max(initial=0)), 1)

    def _node_named(self, name: Hashable) -> Optional[int]:
        """The tree node carrying ``name`` (``None`` when no tree node does)."""
        v = self._name_index.get(name)
        return v if v is not None and self.tree.find(v) >= 0 else None

    def contains_name(self, name: Hashable) -> bool:
        """Whether some tree node carries this global name."""
        return self._node_named(name) is not None

    def _plan(self, target_name: Hashable, j_bound: Optional[int]
              ) -> Tuple[List[int], bool, Optional[int], int]:
        """``(waypoints, found, destination, rounds)`` of a bounded search.

        Each round the current trie node either is the destination, knows it
        from its dictionary (the search heads there), or hands the search to
        its trie child along the destination's next hash digit; a miss heads
        back to the root.
        """
        if j_bound is None:
            j_bound = max(self.max_digits, 1)
        j_bound = max(1, int(j_bound))
        target = self._node_named(target_name)
        target_hash = self.digit_hash.digits(target_name)
        targets: List[int] = []
        position = 0
        for round_no in range(1, j_bound + 1):
            current = int(self._order[position])
            if current == target:
                return targets, True, current, round_no
            if target is not None:
                stored = self._dictionary_at(position)
                at = int(np.searchsorted(stored, target))
                if at < stored.size and stored[at] == target:
                    targets.append(target)
                    return targets, True, target, round_no
            if round_no == j_bound:
                break
            # descend the trie along the destination's hash digits
            digit = target_hash[round_no - 1] if round_no - 1 < len(target_hash) else 0
            child = self._trie_child(position, digit)
            if child is None:
                break  # the trie has no deeper node on this hash path
            position = child
            targets.append(int(self._order[child]))
        # negative response: report back to the root
        if position != 0:
            targets.append(self.tree.root)
        return targets, False, None, round_no

    def search_from_root(self, target_name: Hashable,
                         j_bound: Optional[int] = None) -> BoundedSearchResult:
        """Perform a ``j``-bounded search for ``target_name`` starting at the root.

        The returned walk starts at the root; on success it ends at the target
        node, otherwise it ends back at the root (the error report).
        """
        targets, found, destination, rounds = self._plan(target_name, j_bound)
        result = BoundedSearchResult(found=found, path=[self.tree.root], cost=0.0,
                                     rounds_used=rounds, destination=destination)
        for waypoint in targets:
            seg, cost = self.compact.walk(result.path[-1], waypoint)
            self._extend(result, seg, cost)
        return result

    def plan_search_from_root(self, target_name: Hashable,
                              j_bound: Optional[int] = None
                              ) -> Tuple[List[int], bool, Optional[int]]:
        """The waypoints of :meth:`search_from_root` without performing the walk.

        Returns ``(targets, found, destination)``: the sequence of tree nodes
        the bounded search heads for in order (trie children along the hash
        digits, then the destination once some dictionary knows it, or back
        to the root on a miss).  :meth:`search_from_root` walks exactly these
        waypoints, so the compiled-forwarding walk over them is identical to
        the scalar search walk.
        """
        targets, found, destination, _ = self._plan(target_name, j_bound)
        return targets, found, destination

    # ------------------------------------------------------------------ #
    # array views (batch planning)
    # ------------------------------------------------------------------ #
    def trie_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """The primary-name layout as arrays: ``(nodes, name_lengths)``.

        ``nodes[p]`` is the node at position ``p`` of the depth order that
        primary names are assigned in and ``name_lengths[p]`` is its trie
        depth; :meth:`trie_path_positions` addresses trie nodes by position.
        """
        return self._order, self._length

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
