"""Rooted weighted trees.

All tree-routing schemes (Lemmas 4, 5 and 7, plus the cover trees of
Lemma 6) operate on a :class:`Tree`: a rooted, weighted tree whose node set
is a subset of a host graph's nodes.  The class exposes the structural
queries those schemes need — DFS intervals, subtree sizes, depths (weighted
distance from the root along tree edges), distance-from-root orderings,
radius, and heaviest edge — plus tree-path queries used by the simulator to
verify that a routing walk actually followed tree edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.validation import require


class TreeSlotArrays:
    """Per-tree compiled slot arrays (``slot = DFS-in number``).

    Assembled during :meth:`Tree._compute_dfs` and stored on the tree as
    ``_forwarding_slots``; :meth:`repro.routing.forwarding.TreeBank.freeze`
    reads them directly, so the bank's global assembly is pure vectorized
    offset arithmetic with no intermediate dict pass.
    """

    __slots__ = ("size", "node_of_slot", "dfs_out", "parent_local")

    def __init__(self, size: int) -> None:
        import numpy as np

        self.size = size
        self.node_of_slot = np.empty(size, dtype=np.int64)
        self.dfs_out = np.empty(size, dtype=np.int64)
        self.parent_local = np.full(size, -1, dtype=np.int64)


class Tree:
    """A rooted weighted tree over (a subset of) graph node indices.

    Parameters
    ----------
    root:
        Graph index of the root.
    parent:
        Mapping ``child -> parent`` over graph indices (the root must not
        appear as a key).
    edge_weight:
        Mapping ``child -> weight of (child, parent(child))``.
    """

    def __init__(
        self,
        root: int,
        parent: Dict[int, int],
        edge_weight: Dict[int, float],
    ) -> None:
        require(root not in parent, "the root cannot have a parent")
        self.parent: Dict[int, int] = {int(c): int(p) for c, p in parent.items()}
        self.edge_weight: Dict[int, float] = {int(c): float(w) for c, w in edge_weight.items()}
        require(self.parent.keys() == self.edge_weight.keys(),
                "every child needs exactly one edge weight")
        require(not self.edge_weight or min(self.edge_weight.values()) > 0,
                "tree edge weights must be positive")
        self.root = int(root)

        node_set = set(self.parent) | set(self.parent.values()) | {self.root}
        self.nodes: List[int] = sorted(node_set)
        self.index: Dict[int, int] = {v: i for i, v in enumerate(self.nodes)}
        self.size = len(self.nodes)

        self.children: Dict[int, List[int]] = {v: [] for v in self.nodes}
        for child, par in self.parent.items():
            self.children[par].append(child)
        for v in self.children:
            self.children[v].sort()

        self._validate_connected()
        self._compute_depths()
        self._compute_dfs()

    # ------------------------------------------------------------------ #
    # construction-time computations
    # ------------------------------------------------------------------ #
    def _validate_connected(self) -> None:
        # every non-root node has exactly one parent edge, so reaching all
        # ``size`` nodes from the root rules out both cycles and disconnection
        reached = 1
        stack = [self.root]
        children = self.children
        while stack:
            kids = children[stack.pop()]
            reached += len(kids)
            stack.extend(kids)
        require(reached == self.size, "tree is not connected to its root")

    def _compute_depths(self) -> None:
        self.depth: Dict[int, float] = {self.root: 0.0}
        self.hop_depth: Dict[int, int] = {self.root: 0}
        stack = [self.root]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                self.depth[c] = self.depth[u] + self.edge_weight[c]
                self.hop_depth[c] = self.hop_depth[u] + 1
                stack.append(c)

    def _compute_dfs(self) -> None:
        """Iterative DFS assigning pre/post intervals and subtree sizes.

        The same pass fills :class:`TreeSlotArrays` (cached as
        ``_forwarding_slots``), so compiling this tree into a
        :class:`~repro.routing.forwarding.TreeBank` later needs no further
        per-node Python work.
        """
        self.dfs_in: Dict[int, int] = {}
        self.dfs_out: Dict[int, int] = {}
        self.subtree_size: Dict[int, int] = {}
        slots = TreeSlotArrays(self.size)
        counter = 0
        stack: List[Tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                last = self.dfs_in[node]
                size = 1
                for c in self.children[node]:
                    last = max(last, self.dfs_out[c])
                    size += self.subtree_size[c]
                self.dfs_out[node] = last
                self.subtree_size[node] = size
                slots.dfs_out[self.dfs_in[node]] = last
            else:
                self.dfs_in[node] = counter
                slots.node_of_slot[counter] = node
                parent = self.parent.get(node)
                if parent is not None:
                    slots.parent_local[counter] = self.dfs_in[parent]
                counter += 1
                stack.append((node, True))
                for c in reversed(self.children[node]):
                    stack.append((c, False))
        self._forwarding_slots = slots

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def contains(self, v: int) -> bool:
        """Whether graph node ``v`` belongs to the tree."""
        return v in self.index

    def radius(self) -> float:
        """Weighted eccentricity of the root: ``max_v depth(v)``."""
        return max(self.depth.values()) if self.depth else 0.0

    def max_edge(self) -> float:
        """Heaviest tree edge weight (0 for a single-node tree)."""
        return max(self.edge_weight.values()) if self.edge_weight else 0.0

    def total_weight(self) -> float:
        """Sum of tree edge weights."""
        return float(sum(self.edge_weight.values()))

    def nodes_by_depth(self) -> List[int]:
        """Nodes sorted by (weighted distance from root, node index).

        This is the ordering Lemma 4 uses to assign primary names.
        """
        return sorted(self.nodes, key=lambda v: (self.depth[v], v))

    def nodes_by_dfs(self) -> List[int]:
        """Nodes sorted by DFS-in number."""
        return sorted(self.nodes, key=lambda v: self.dfs_in[v])

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether ``a`` is an ancestor of ``b`` (every node is its own ancestor)."""
        return self.dfs_in[a] <= self.dfs_in[b] <= self.dfs_out[a]

    def child_toward(self, a: int, b: int) -> Optional[int]:
        """The child of ``a`` whose subtree contains ``b`` (None if ``a==b`` or unrelated)."""
        if a == b or not self.is_ancestor(a, b):
            return None
        for c in self.children[a]:
            if self.is_ancestor(c, b):
                return c
        return None

    def path_to_root(self, v: int) -> List[int]:
        """The node sequence from ``v`` up to the root (inclusive)."""
        out = [v]
        while out[-1] != self.root:
            out.append(self.parent[out[-1]])
        return out

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        ancestors = set(self.path_to_root(u))
        x = v
        while x not in ancestors:
            x = self.parent[x]
        return x

    def path(self, u: int, v: int) -> List[int]:
        """The unique tree path from ``u`` to ``v`` (inclusive)."""
        a = self.lca(u, v)
        up = []
        x = u
        while x != a:
            up.append(x)
            x = self.parent[x]
        down = []
        x = v
        while x != a:
            down.append(x)
            x = self.parent[x]
        return up + [a] + list(reversed(down))

    def tree_distance(self, u: int, v: int) -> float:
        """Weighted length of the tree path between ``u`` and ``v``."""
        a = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2.0 * self.depth[a]

    def next_hop(self, u: int, v: int) -> int:
        """The tree neighbor of ``u`` on the tree path toward ``v``."""
        require(u != v, "next_hop requires distinct endpoints")
        if self.is_ancestor(u, v):
            child = self.child_toward(u, v)
            assert child is not None
            return child
        return self.parent[u]

    def tree_neighbors(self, u: int) -> List[Tuple[int, float]]:
        """Tree-adjacent nodes of ``u`` with edge weights (parent first)."""
        out: List[Tuple[int, float]] = []
        if u != self.root:
            out.append((self.parent[u], self.edge_weight[u]))
        for c in self.children[u]:
            out.append((c, self.edge_weight[c]))
        return out

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
