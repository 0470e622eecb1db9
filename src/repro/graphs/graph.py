"""Weighted undirected graph with arbitrary node names.

The paper's model is a weighted undirected graph ``G = (V, E, w)`` with
``n = |V|`` nodes, positive edge weights, and — because the schemes are
*name-independent* — an arbitrary unique name attached to every node that the
scheme designer does not control.  :class:`WeightedGraph` captures exactly
that: nodes are dense indices ``0..n-1`` used internally by algorithms, and
``names[v]`` is the externally visible identifier that routing requests use.

The adjacency structure is stored both as Python adjacency lists (convenient
for Dijkstra and hop-by-hop simulation) and lazily as a
:class:`scipy.sparse.csr_matrix` (for batch shortest-path computations).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import make_rng
from repro.utils.validation import ValidationError, check_index, require

Edge = Tuple[int, int, float]


class WeightedGraph:
    """Undirected graph with positive edge weights and arbitrary node names.

    Parameters
    ----------
    n:
        Number of nodes; nodes are indexed ``0..n-1``.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Parallel edges are collapsed
        to the minimum weight; self-loops are rejected.
    names:
        Optional sequence of ``n`` unique, hashable node names.  When omitted,
        adversarial-looking random 60-bit integers are generated (the
        name-independent model forbids topology-aware names, so random names
        are the honest default).
    seed:
        Seed for generated names (ignored when ``names`` is given).
    """

    __slots__ = (
        "n",
        "_adj",
        "_names",
        "_names_view",
        "_name_to_index",
        "_csr",
        "_component_ids",
        "_num_edges",
        "_min_weight",
        "_max_weight",
        "_version",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        names: Optional[Sequence[object]] = None,
        seed: Optional[int] = None,
    ) -> None:
        require(n >= 1, f"graph must have at least one node, got n={n}")
        self.n = int(n)
        self._adj: List[Dict[int, float]] = [dict() for _ in range(self.n)]
        self._num_edges = 0
        self._min_weight = float("inf")
        self._max_weight = 0.0
        for u, v, w in edges:
            self._add_edge(int(u), int(v), float(w))
        self._csr: Optional[sp.csr_matrix] = None
        if names is not None:
            names = list(names)
            require(len(names) == self.n,
                    f"expected {self.n} names, got {len(names)}")
            require(len(set(names)) == self.n, "node names must be unique")
            self._names = names
        else:
            rng = make_rng(seed)
            # 60-bit integers: unique w.h.p.; regenerate on the rare collision.
            while True:
                candidate = [int(x) for x in rng.integers(1, 2**60, size=self.n)]
                if len(set(candidate)) == self.n:
                    self._names = candidate
                    break
        self._names_view = tuple(self._names)
        self._name_to_index = {name: i for i, name in enumerate(self._names)}
        self._component_ids: Optional[np.ndarray] = None
        self._version = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _add_edge(self, u: int, v: int, w: float) -> None:
        check_index(u, self.n, "u")
        check_index(v, self.n, "v")
        require(u != v, f"self-loop on node {u} is not allowed")
        require(w > 0 and np.isfinite(w), f"edge weight must be positive and finite, got {w}")
        if v in self._adj[u]:
            # Collapse parallel edges to the cheapest one.
            w = min(w, self._adj[u][v])
        else:
            self._num_edges += 1
        self._adj[u][v] = w
        self._adj[v][u] = w
        self._min_weight = min(self._min_weight, w)
        self._max_weight = max(self._max_weight, w)

    def _invalidate_caches(self) -> None:
        """Drop every derived view and advance the mutation version.

        The CSR view and the cached component ids are rebuilt lazily on next
        access, so connectivity queries (and the pair sampler built on them)
        stay correct after mutation.  The distance store watches
        :attr:`version` and drops its row caches on the next query, so a live
        ``DistanceOracle`` self-heals too.
        """
        self._csr = None
        self._component_ids = None
        self._version += 1

    def _recompute_weight_range(self) -> None:
        self._min_weight = float("inf")
        self._max_weight = 0.0
        for _, _, w in self.edges():
            self._min_weight = min(self._min_weight, w)
            self._max_weight = max(self._max_weight, w)

    @property
    def version(self) -> int:
        """Monotone mutation counter; bumps on every topology/weight change."""
        return self._version

    def add_edge(self, u: int, v: int, w: float) -> None:
        """Insert a new edge (or relax a parallel one), invalidating caches."""
        self._add_edge(int(u), int(v), float(w))
        self._invalidate_caches()

    def remove_edge(self, u: int, v: int) -> float:
        """Delete the edge ``{u, v}`` and return its weight (raises if absent)."""
        u, v = int(u), int(v)
        w = self.edge_weight(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        if w <= self._min_weight or w >= self._max_weight:
            self._recompute_weight_range()
        self._invalidate_caches()
        return w

    def set_edge_weight(self, u: int, v: int, w: float) -> float:
        """Overwrite the weight of an existing edge; returns the old weight.

        Unlike :meth:`add_edge` this does not collapse to the minimum — weight
        *increases* (congestion, degradation events) are applied verbatim.
        """
        u, v = int(u), int(v)
        w = float(w)
        old = self.edge_weight(u, v)
        require(w > 0 and np.isfinite(w),
                f"edge weight must be positive and finite, got {w}")
        self._adj[u][v] = w
        self._adj[v][u] = w
        if old <= self._min_weight or old >= self._max_weight:
            self._recompute_weight_range()
        else:
            self._min_weight = min(self._min_weight, w)
            self._max_weight = max(self._max_weight, w)
        self._invalidate_caches()
        return old

    def detach_node(self, u: int) -> List[Tuple[int, float]]:
        """Remove every edge incident to ``u`` (node failure).

        The node itself stays in the graph (as an isolated node keeping its
        name and index); the removed ``(neighbor, weight)`` pairs are returned
        so a later recovery can re-attach them.
        """
        check_index(u, self.n, "u")
        removed = sorted(self._adj[u].items())
        for v, _ in removed:
            del self._adj[v][u]
        self._adj[u].clear()
        self._num_edges -= len(removed)
        if removed:
            self._recompute_weight_range()
        self._invalidate_caches()
        return removed

    def apply_events(self, events: Iterable[object]) -> List[object]:
        """Apply a batch of mutation events in order; returns their records.

        Each event must expose ``apply(graph)`` (duck-typed, so this module
        stays below :mod:`repro.dynamics` in the layering) and is applied
        exactly once; whatever record ``apply`` returns is collected.  See
        :func:`repro.dynamics.events.apply_events` for the high-level wrapper
        that packages the records into a ``GraphDelta`` for scheme repair.
        """
        return [event.apply(self) for event in events]

    @classmethod
    def from_networkx(cls, g, weight: str = "weight",
                      names: Optional[Sequence[object]] = None,
                      seed: Optional[int] = None) -> "WeightedGraph":
        """Build from a :mod:`networkx` graph (nodes are relabelled 0..n-1)."""
        nodes = list(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        for a, b, data in g.edges(data=True):
            w = float(data.get(weight, 1.0))
            edges.append((index[a], index[b], w))
        return cls(len(nodes), edges, names=names, seed=seed)

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (node attribute ``name``)."""
        import networkx as nx

        g = nx.Graph()
        for v in range(self.n):
            g.add_node(v, name=self._names[v])
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    def copy_with_weights(self, weight_fn) -> "WeightedGraph":
        """Return a copy whose edge weights are ``weight_fn(u, v, old_weight)``."""
        edges = [(u, v, float(weight_fn(u, v, w))) for u, v, w in self.edges()]
        return WeightedGraph(self.n, edges, names=list(self._names))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def names(self) -> List[object]:
        """The list of node names, indexed by node index (defensive copy)."""
        return list(self._names)

    def names_view(self) -> Tuple[object, ...]:
        """Zero-copy immutable view of the names, for hot paths.

        The ``names`` property copies the full list on every access; routing
        and evaluation loops that touch a name per hop use this view instead.
        """
        return self._names_view

    def name_at(self, v: int) -> object:
        """Name of node ``v`` without the bounds re-check (trusted hot path)."""
        return self._names[v]

    def name_of(self, v: int) -> object:
        """Name of node ``v``."""
        check_index(v, self.n, "v")
        return self._names[v]

    def name_index(self) -> Mapping[object, int]:
        """Name -> node index for every node, shared (do not mutate).

        Tree structures of a build resolve names through this one index
        instead of keeping a dictionary each.
        """
        return self._name_to_index

    def index_of(self, name: object) -> int:
        """Node index of ``name`` (raises ``KeyError`` for unknown names)."""
        return self._name_to_index[name]

    def has_name(self, name: object) -> bool:
        """Whether ``name`` belongs to some node."""
        return name in self._name_to_index

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        """List of ``(neighbor, weight)`` pairs of node ``u``."""
        check_index(u, self.n, "u")
        return list(self._adj[u].items())

    def neighbor_indices(self, u: int) -> List[int]:
        """Neighbors of ``u`` in a fixed (port) order."""
        check_index(u, self.n, "u")
        return sorted(self._adj[u].keys())

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        check_index(u, self.n, "u")
        return len(self._adj[u])

    def max_degree(self) -> int:
        """Maximum degree over all nodes."""
        return max(len(a) for a in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        check_index(u, self.n, "u")
        check_index(v, self.n, "v")
        return v in self._adj[u]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}`` (raises if absent)."""
        if not self.has_edge(u, v):
            raise ValidationError(f"no edge between {u} and {v}")
        return self._adj[u][v]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges once each as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def min_weight(self) -> float:
        """Smallest edge weight (``inf`` for an edgeless graph)."""
        return self._min_weight

    def max_weight(self) -> float:
        """Largest edge weight (0 for an edgeless graph)."""
        return self._max_weight

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(sum(w for _, _, w in self.edges()))

    # ------------------------------------------------------------------ #
    # matrix / structural views
    # ------------------------------------------------------------------ #
    def to_scipy_csr(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency matrix (cached)."""
        if self._csr is None:
            rows, cols, vals = [], [], []
            for u, v, w in self.edges():
                rows.extend((u, v))
                cols.extend((v, u))
                vals.extend((w, w))
            self._csr = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.n, self.n), dtype=np.float64
            )
        return self._csr

    def subgraph(self, nodes: Sequence[int]) -> Tuple["WeightedGraph", List[int]]:
        """Induced subgraph on ``nodes``.

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        index of subgraph node ``i``; ``mapping`` ascends, so relabeling
        keeps every id order.  Node names are carried over, so routing by
        name keeps working inside the subgraph.
        """
        nodes = sorted(set(int(v) for v in nodes))
        require(len(nodes) >= 1, "subgraph needs at least one node")
        for v in nodes:
            check_index(v, self.n, "node")
        local = {v: i for i, v in enumerate(nodes)}
        edges = []
        for u in nodes:
            for v, w in self._adj[u].items():
                if v in local and u < v:
                    edges.append((local[u], local[v], w))
        names = [self._names[v] for v in nodes]
        return WeightedGraph(len(nodes), edges, names=names), nodes

    def connected_components(self) -> List[List[int]]:
        """Connected components as lists of node indices (largest first)."""
        seen = np.zeros(self.n, dtype=bool)
        components: List[List[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            components.append(sorted(comp))
        components.sort(key=len, reverse=True)
        return components

    def component_ids(self) -> np.ndarray:
        """Connected-component id of every node (cached).

        Ids are assigned so that two nodes are connected iff their ids are
        equal; the vectorized pair sampler tests connectivity with one array
        comparison instead of a distance query per candidate pair.
        """
        if self._component_ids is None:
            ids = np.full(self.n, -1, dtype=np.int64)
            for index, component in enumerate(self.connected_components()):
                for v in component:
                    ids[v] = index
            self._component_ids = ids
        return self._component_ids

    def is_connected(self) -> bool:
        """Whether the graph is connected."""
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, m={self._num_edges})"
