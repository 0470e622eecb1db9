"""Rooted weighted trees, built many at a time as one forest of arrays.

All tree-routing schemes (Lemmas 4, 5 and 7, plus the cover trees of
Lemma 6) operate on a :class:`Tree`: a rooted, weighted tree whose node set
is a subset of a host graph's nodes.  :func:`build_forest` builds a whole
chunk of trees in one level-synchronous numpy pass: from the kept nodes of
every tree, given as ``(tree, node, parent, weight)`` rows, it computes each
tree's DFS slots (preorder, children in ascending id), depths (parent depth
plus edge weight) and subtree extents.  A :class:`Tree` is a view over its
slice of those arrays, and every way of making one goes through that pass.

The arrays come in two orders:

* **node order** — the members in ascending id (:attr:`Tree.nodes`,
  :attr:`Tree.node_ids`); :attr:`~Tree.dfs_in`, :attr:`~Tree.depth` and
  :attr:`~Tree.weight` follow it;
* **slot order** — ``slot = DFS-in number``, the root at slot 0;
  :attr:`~Tree.node_of_slot`, :attr:`~Tree.parent_local`,
  :attr:`~Tree.dfs_out` and :attr:`~Tree.hop_depth` follow it, and
  :meth:`repro.routing.forwarding.TreeBank.freeze` concatenates them as
  they are.

The scalar queries (membership, parents, children, tree paths) serve the
reference ``route()`` implementations and the checks that a routing walk
followed tree edges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError, require


class _Forest(NamedTuple):
    """The arrays of one forest build; tree ``t`` owns rows ``start[t]`` to
    ``start[t + 1]`` of every other field."""

    start: np.ndarray
    node_ids: np.ndarray
    dfs_in: np.ndarray
    depth: np.ndarray
    weight: np.ndarray
    node_of_slot: np.ndarray
    parent_local: np.ndarray
    dfs_out: np.ndarray
    hop_depth: np.ndarray


def _forest_arrays(roots, tree, node, parent, weight) -> _Forest:
    """The level-synchronous pass behind :func:`build_forest`."""
    roots = np.asarray(roots, dtype=np.int64)
    tree = np.asarray(tree, dtype=np.int64)
    node = np.asarray(node, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    rows = node.size
    stride = max(int(node.max(initial=0)), int(parent.max(initial=0)),
                 int(roots.max(initial=0))) + 1
    key = tree * stride + node
    require(bool((np.diff(key) > 0).all()),
            "forest rows must be sorted by (tree, node) without repeats")
    start = np.searchsorted(tree, np.arange(roots.size + 1))

    def rows_of(keys: np.ndarray) -> np.ndarray:
        at = np.searchsorted(key, keys)
        found = at < rows
        found[found] = key[at[found]] == keys[found]
        return np.where(found, at, -1)

    root_row = rows_of(np.arange(roots.size) * stride + roots)
    require(bool((root_row >= 0).all()), "every tree must hold its root")
    require(bool((parent[root_row] < 0).all()), "the root cannot have a parent")
    linked = parent >= 0
    weight = np.where(linked, np.asarray(weight, dtype=np.float64), 0.0)
    require(bool((weight[linked] > 0).all()), "tree edge weights must be positive")
    parent_row = np.full(rows, -1, dtype=np.int64)
    parent_row[linked] = rows_of(tree[linked] * stride + parent[linked])

    # children of every row, grouped by parent in ascending node id
    kids = np.flatnonzero(parent_row >= 0)
    by_parent = kids[np.argsort(parent_row[kids], kind="stable")]
    first = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent_row[kids], minlength=rows), out=first[1:])

    # top-down by hop depth: each level's depths add one edge weight to
    # final parent depths, the same float operation as a scalar DFS
    depth = np.zeros(rows)
    hops = np.zeros(rows, dtype=np.int32)
    levels = []
    frontier = root_row
    reached = frontier.size
    while frontier.size:
        count = first[frontier + 1] - first[frontier]
        parents = frontier[count > 0]
        count = count[count > 0]
        if parents.size == 0:
            break
        group = np.cumsum(count) - count
        total = int(group[-1] + count[-1])
        frontier = by_parent[np.repeat(first[parents] - group, count)
                             + np.arange(total)]
        depth[frontier] = np.repeat(depth[parents], count) + weight[frontier]
        hops[frontier] = len(levels) + 1
        levels.append((parents, count, group, frontier))
        reached += total
    # every non-root row has one parent, so a cycle or a parent outside the
    # tree leaves rows that no level reaches
    require(reached == rows, "tree is not connected to its root")

    size = np.ones(rows, dtype=np.int64)
    for parents, count, group, level in reversed(levels):
        size[parents] += np.add.reduceat(size[level], group)
    # preorder: a child starts after its parent and its earlier siblings
    dfs_in = np.zeros(rows, dtype=np.int64)
    for parents, count, group, level in levels:
        before = np.cumsum(size[level]) - size[level]
        dfs_in[level] = np.repeat(dfs_in[parents] + 1 - before[group],
                                  count) + before

    slot = start[tree] + dfs_in
    node_of_slot = np.empty(rows, dtype=np.int64)
    node_of_slot[slot] = node
    dfs_out = np.empty(rows, dtype=np.int64)
    dfs_out[slot] = dfs_in + size - 1
    # int32: a hop depth is below its tree's size, and every tree's slot
    # arrays are held twice (here and in the compiled TreeBank)
    hop_depth = np.empty(rows, dtype=np.int32)
    hop_depth[slot] = hops
    parent_local = np.full(rows, -1, dtype=np.int64)
    parent_local[slot[kids]] = dfs_in[parent_row[kids]]
    return _Forest(start, node, dfs_in, depth, weight, node_of_slot,
                   parent_local, dfs_out, hop_depth)


def build_forest(roots: Sequence[int], tree: Sequence[int], nodes: Sequence[int],
                 parents: Sequence[int], weights: Sequence[float]) -> List["Tree"]:
    """Build many trees in one pass over their rows.

    Row ``r`` says that node ``nodes[r]`` of tree ``tree[r]`` hangs off node
    ``parents[r]`` by an edge of weight ``weights[r]``; a root's parent is
    ``-1`` and its weight is ignored.  Trees are numbered ``0 ..
    len(roots) - 1``, tree ``t`` is rooted at ``roots[t]``, and the rows
    are sorted by ``(tree, node)``.

    Raises :class:`~repro.utils.validation.ValidationError` when a root has
    a parent, an edge weight is not positive, or a node is not reached from
    its root (a cycle, or a parent outside the tree).
    """
    forest = _forest_arrays(roots, tree, nodes, parents, weights)
    bounds = forest.start.tolist()
    return [Tree._view(forest, root, bounds[t], bounds[t + 1])
            for t, root in enumerate(np.asarray(roots).tolist())]


class Tree:
    """A rooted weighted tree over (a subset of) graph node indices.

    Built from ``child -> parent`` and ``child -> weight`` mappings over
    graph indices (the root must not appear as a key); :func:`build_forest`
    builds many at once.

    Attributes in node order (``nodes`` ascending): ``node_ids``, ``dfs_in``
    (slot of each node), ``depth`` (weighted distance from the root) and
    ``weight`` (edge to the parent, 0 at the root).  Attributes in slot
    order: ``node_of_slot``, ``parent_local`` (slot of the parent, -1 at the
    root), ``dfs_out`` (last slot of the subtree) and ``hop_depth`` (edges
    from the root, 0 at the root).
    """

    def __init__(
        self,
        root: int,
        parent: Dict[int, int],
        edge_weight: Dict[int, float],
    ) -> None:
        require(root not in parent, "the root cannot have a parent")
        require(parent.keys() == edge_weight.keys(),
                "every child needs exactly one edge weight")
        nodes = sorted({int(v) for v in parent} | {int(p) for p in parent.values()}
                       | {int(root)})
        forest = _forest_arrays(
            [root], np.zeros(len(nodes), dtype=np.int64), nodes,
            [parent.get(v, -1) for v in nodes],
            [edge_weight.get(v, 0.0) for v in nodes])
        self._bind(forest, int(root), 0, len(nodes))

    @classmethod
    def _view(cls, forest: _Forest, root: int, lo: int, hi: int) -> "Tree":
        tree = cls.__new__(cls)
        tree._bind(forest, root, lo, hi)
        return tree

    def _bind(self, forest: _Forest, root: int, lo: int, hi: int) -> None:
        """Make this tree the view of rows ``lo`` to ``hi`` of ``forest``."""
        self.root = root
        self.size = hi - lo
        self.node_ids = forest.node_ids[lo:hi]
        self.dfs_in = forest.dfs_in[lo:hi]
        self.depth = forest.depth[lo:hi]
        self.weight = forest.weight[lo:hi]
        self.node_of_slot = forest.node_of_slot[lo:hi]
        self.parent_local = forest.parent_local[lo:hi]
        self.dfs_out = forest.dfs_out[lo:hi]
        self.hop_depth = forest.hop_depth[lo:hi]
        self.nodes: List[int] = self.node_ids.tolist()

    # ------------------------------------------------------------------ #
    # membership and per-node lookups
    # ------------------------------------------------------------------ #
    def find(self, v: int) -> int:
        """Position of node ``v`` in :attr:`nodes` (``-1`` when absent)."""
        at = bisect_left(self.nodes, v)
        return at if at < self.size and self.nodes[at] == v else -1

    def contains(self, v: int) -> bool:
        """Whether graph node ``v`` belongs to the tree."""
        return self.find(v) >= 0

    def positions(self, nodes) -> np.ndarray:
        """:meth:`find` for an array of nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        at = np.searchsorted(self.node_ids, nodes)
        found = at < self.size
        found[found] = self.node_ids[at[found]] == nodes[found]
        return np.where(found, at, -1)

    def position(self, v: int) -> int:
        """Position of node ``v`` in :attr:`nodes` (raises when absent)."""
        at = self.find(v)
        require(at >= 0, f"node {v} is not in the tree")
        return at

    def slot(self, v: int) -> int:
        """DFS-in number of node ``v``."""
        return int(self.dfs_in[self.position(v)])

    def depth_of(self, v: int) -> float:
        """Weighted distance from the root to node ``v``."""
        return float(self.depth[self.position(v)])

    def parent_of(self, v: int) -> int:
        """Parent of node ``v`` (``-1`` for the root)."""
        up = int(self.parent_local[self.slot(v)])
        return int(self.node_of_slot[up]) if up >= 0 else -1

    def parent_ids(self) -> np.ndarray:
        """Parent of every node, in node order (``-1`` for the root)."""
        up = self.parent_local[self.dfs_in]
        return np.where(up >= 0, self.node_of_slot[up], -1)

    def child_slots(self, slot: int) -> np.ndarray:
        """Slots of the children of ``slot``, in ascending node id."""
        lo, hi = slot + 1, int(self.dfs_out[slot]) + 1
        return lo + np.flatnonzero(self.parent_local[lo:hi] == slot)

    def children_of(self, v: int) -> List[int]:
        """Children of node ``v`` in ascending id."""
        return self.node_of_slot[self.child_slots(self.slot(v))].tolist()

    def edge_weight(self, a: int, b: int) -> float:
        """Weight of the tree edge ``{a, b}`` (raises if it is not one)."""
        i, j = self.find(a), self.find(b)
        if i >= 0 and j >= 0:
            sa, sb = self.dfs_in[i], self.dfs_in[j]
            if self.parent_local[sa] == sb:
                return float(self.weight[i])
            if self.parent_local[sb] == sa:
                return float(self.weight[j])
        raise ValidationError(f"({a}, {b}) is not a tree edge")

    # ------------------------------------------------------------------ #
    # whole-tree queries
    # ------------------------------------------------------------------ #
    def radius(self) -> float:
        """Weighted eccentricity of the root: ``max_v depth(v)``."""
        return float(self.depth.max())

    def max_edge(self) -> float:
        """Heaviest tree edge weight (0 for a single-node tree)."""
        return float(self.weight.max())

    def nodes_by_depth(self) -> List[int]:
        """Nodes sorted by (weighted distance from root, node index).

        This is the ordering Lemma 4 uses to assign primary names.
        """
        return self.node_ids[np.argsort(self.depth, kind="stable")].tolist()

    def nodes_by_dfs(self) -> List[int]:
        """Nodes sorted by DFS-in number."""
        return self.node_of_slot.tolist()

    # ------------------------------------------------------------------ #
    # tree paths
    # ------------------------------------------------------------------ #
    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether ``a`` is an ancestor of ``b`` (every node is its own ancestor)."""
        sa, sb = self.slot(a), self.slot(b)
        return sa <= sb <= int(self.dfs_out[sa])

    def child_toward(self, a: int, b: int) -> Optional[int]:
        """The child of ``a`` whose subtree contains ``b`` (None if ``a==b`` or unrelated)."""
        if a == b or not self.is_ancestor(a, b):
            return None
        kids = self.child_slots(self.slot(a))
        at = np.searchsorted(kids, self.slot(b), side="right") - 1
        return int(self.node_of_slot[kids[at]])

    def _climb(self, slot: int, stop: int) -> List[int]:
        """Slots from ``slot`` up to (excluding) its ancestor ``stop``."""
        out = []
        while slot != stop:
            out.append(slot)
            slot = int(self.parent_local[slot])
        return out

    def _lca_slot(self, u: int, v: int) -> int:
        su, s = self.slot(u), self.slot(v)
        while not s <= su <= self.dfs_out[s]:
            s = int(self.parent_local[s])
        return s

    def path_to_root(self, v: int) -> List[int]:
        """The node sequence from ``v`` up to the root (inclusive)."""
        return self.node_of_slot[self._climb(self.slot(v), -1)].tolist()

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        return int(self.node_of_slot[self._lca_slot(u, v)])

    def path(self, u: int, v: int) -> List[int]:
        """The unique tree path from ``u`` to ``v`` (inclusive)."""
        a = self._lca_slot(u, v)
        down = self._climb(self.slot(v), a)
        slots = self._climb(self.slot(u), a) + [a] + down[::-1]
        return self.node_of_slot[slots].tolist()

    def tree_distance(self, u: int, v: int) -> float:
        """Weighted length of the tree path between ``u`` and ``v``."""
        a = self.lca(u, v)
        return self.depth_of(u) + self.depth_of(v) - 2.0 * self.depth_of(a)

    def next_hop(self, u: int, v: int) -> int:
        """The tree neighbor of ``u`` on the tree path toward ``v``."""
        require(u != v, "next_hop requires distinct endpoints")
        if self.is_ancestor(u, v):
            child = self.child_toward(u, v)
            assert child is not None
            return child
        return self.parent_of(u)

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    @classmethod
    def single_node(cls, v: int) -> "Tree":
        """A tree containing only node ``v``."""
        return cls(root=v, parent={}, edge_weight={})

    @classmethod
    def from_parent_list(
        cls, root: int, parents: Sequence[int], weights: Sequence[float]
    ) -> "Tree":
        """Build from dense arrays ``parents[v]``/``weights[v]`` (-1 for non-members)."""
        parent: Dict[int, int] = {}
        edge_weight: Dict[int, float] = {}
        for v, p in enumerate(parents):
            if v == root or p < 0:
                continue
            parent[v] = int(p)
            edge_weight[v] = float(weights[v])
        return cls(root=root, parent=parent, edge_weight=edge_weight)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(root={self.root}, size={self.size}, radius={self.radius():.3g})"
