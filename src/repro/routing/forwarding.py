"""Compiled forwarding programs and the lockstep batch routing engine.

The scalar evaluation path asks a scheme to ``route()`` one pair at a time and
walks trees hop by hop in Python, so at scale the simulator — not the schemes —
dominates wall time.  This module compiles the *state* each scheme routes over
(trees with DFS interval labels, per-destination next-hop tables) into numpy
structure-of-arrays form once, so a whole batch of packets can advance in
lockstep: every step is a handful of array gathers / ``searchsorted`` calls
over the compiled tables instead of per-packet Python dispatch.

Building blocks:

* :class:`TreeBank` — every tree a scheme can route on, concatenated into flat
  slot arrays (``slot = tree offset + DFS-in number``, with parent slots and
  DFS-out intervals).  One ``searchsorted`` resolves dynamic
  ``(tree, node) -> slot`` entry for a whole batch.
* :class:`NextHopTable` — per-(node, destination) next hops as one sorted key
  array (``key = node * n + dest``); hop-by-hop table phases (shortest-path
  tables, Cowen cluster routing) cost one ``searchsorted`` per step for the
  whole batch.
* :class:`ForwardingProgram` — a per-scheme *planner* that turns one
  (source, destination) request into a short list of **legs** (tree walks /
  table phases) plus result metadata.  Planning mirrors the scalar control
  flow exactly (which trees are searched, where dictionaries report misses)
  but never walks; :func:`run_lockstep` then executes all legs through the
  fused cohort kernels of :mod:`repro.routing.kernels`.

Every scheme in the library compiles; a scheme without a compiled form runs
only under the scalar engine (``engine="scalar"``).  The executor's contract
is the same for every program: a packet is found iff its walk ends at its
destination, its cost is the verified walk cost, and its header is the
program's constant ``header_bits``.

Every walk a compiled plan produces decomposes into unique-tree-path legs and
next-hop-table phases, so the engine's walks are identical — node for node —
to the scalar engine's (asserted by ``tests/test_lockstep_engine.py`` and the
E14 CI smoke run).  Hop caps mirror the scalar loops (``2m + 1`` steps per
tree leg, ``n + 1`` per table phase) and are enforced as array operations, so
a broken table loops no further under the lockstep engine than under the
scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.trees import Tree
from repro.routing.kernels import run_fused
from repro.routing.messages import RouteResult
from repro.storage import persist_array
from repro.utils.validation import require

#: leg kinds understood by the lockstep engine
LEG_TREE = 0
LEG_TABLE = 1
LEG_LITERAL = 2


def tree_leg(tree_id: int, target: int, strategy: Optional[str] = None,
             phases: int = 0, terminal: bool = False) -> tuple:
    """A leg walking the unique tree path to ``target`` inside tree ``tree_id``.

    ``terminal`` marks a success leg: when it completes, the packet finalizes
    with this leg's ``(strategy, phases)`` instead of continuing to later legs.
    """
    return (LEG_TREE, int(tree_id), int(target), strategy, int(phases), bool(terminal))


def table_leg(table_id: int, strategy: Optional[str] = None, phases: int = 0) -> tuple:
    """A hop-by-hop next-hop-table phase.

    The packet follows table entries until it reaches the destination (then it
    finalizes with this leg's metadata) or misses / exhausts the ``n + 1`` hop
    cap (then it advances to the next leg).
    """
    return (LEG_TABLE, int(table_id), -1, strategy, int(phases), False)


def literal_leg(hops: Sequence[int]) -> tuple:
    """A pre-recorded walk replayed one hop per lockstep step.

    Used for source routes.  ``hops`` excludes the node the leg starts from.
    """
    return (LEG_LITERAL, [int(h) for h in hops], -1, None, 0, False)


def mark_terminal(legs: List[tuple], strategy: str, phases: int) -> None:
    """Make the last leg of ``legs`` a terminal success leg.

    Owns the leg-tuple layout together with the constructors above, so scheme
    planners never index into the tuples positionally.
    """
    kind, a, b, _, _, _ = legs[-1]
    legs[-1] = (kind, a, b, strategy, int(phases), True)


class PacketPlan:
    """The legs and result metadata of one (source, destination) request.

    ``final_strategy`` / ``final_phases`` apply when the packet exhausts its
    legs without finishing on a terminal leg or a table success.  The engine
    derives ``found`` from whether the walk ended at the destination — the
    invariant every scheme in the library satisfies.
    """

    __slots__ = ("legs", "final_strategy", "final_phases", "notes")

    def __init__(self, legs: List[tuple], final_strategy: Optional[str],
                 final_phases: int, notes: Optional[dict] = None) -> None:
        self.legs = legs
        self.final_strategy = final_strategy
        self.final_phases = int(final_phases)
        self.notes = notes


class TreeBank:
    """All trees of one scheme as flat structure-of-arrays slot tables.

    Slots are assigned as ``offset(tree) + dfs_in(node)``, so a tree node's
    slot doubles as its interval-routing label.  "Which slot does graph node
    ``v`` occupy in tree ``t``" is one ``searchsorted`` (or one gather from
    the dense membership matrix) over the whole packet batch; the fused tree
    kernel walks toward a target slot with ``parent_slot`` gathers and the
    ``dfs_out`` interval test.
    """

    #: memory budget for the dense ``(tree, node) -> slot`` membership
    #: matrix (bytes); banks with too many trees keep the sorted-key lookup
    SLOT_MATRIX_BYTES = 256 << 20

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._trees: List[Tree] = []
        self._ids: Dict[int, int] = {}
        self._frozen = False
        self._slot_matrix: Optional[np.ndarray] = None

    # -- registration ---------------------------------------------------- #
    def add(self, tree: Tree) -> int:
        """Register ``tree`` (idempotent per tree object) and return its id."""
        require(not self._frozen, "cannot add trees to a frozen TreeBank")
        tree_id = self._ids.get(id(tree))
        if tree_id is None:
            tree_id = len(self._trees)
            self._trees.append(tree)
            self._ids[id(tree)] = tree_id
        return tree_id

    @property
    def num_trees(self) -> int:
        return len(self._trees)

    @property
    def num_slots(self) -> int:
        return int(self.offsets[-1] + self.sizes[-1]) if self._trees else 0

    # -- compilation ----------------------------------------------------- #
    def freeze(self) -> "TreeBank":
        """Compile the registered trees into flat arrays (idempotent).

        Each tree is a view over slot arrays its forest build already
        computed (``node_of_slot``, ``dfs_out``, ``parent_local``), so
        freezing does no per-node Python work; the global assembly below is
        vectorized offset arithmetic plus one sort of the membership keys.
        """
        if self._frozen:
            return self
        self._frozen = True
        sizes = np.asarray([t.size for t in self._trees], dtype=np.int64)
        self.sizes = sizes
        self.offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])) if self._trees \
            else np.zeros(0, dtype=np.int64)
        total = int(sizes.sum()) if self._trees else 0

        node_parts: List[np.ndarray] = []
        dfs_out_parts: List[np.ndarray] = []
        parent_parts: List[np.ndarray] = []
        member_key_parts: List[np.ndarray] = []
        member_slot_parts: List[np.ndarray] = []
        for tree_id, tree in enumerate(self._trees):
            off = int(self.offsets[tree_id])
            node_parts.append(tree.node_of_slot)
            dfs_out_parts.append(tree.dfs_out)
            parent_parts.append(np.where(tree.parent_local >= 0,
                                         tree.parent_local + off, -1))
            member_key_parts.append(tree_id * self.n + tree.node_ids)
            member_slot_parts.append(off + tree.dfs_in)

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

        # the compiled slot tables are placed through the storage layer:
        # in RAM below REPRO_MEMORY_BUDGET, np.memmap spill files above —
        # the engines index them identically either way
        self.node_of_slot = persist_array(cat(node_parts))
        self.dfs_out = persist_array(cat(dfs_out_parts))       # tree-local
        self.parent_slot = persist_array(cat(parent_parts))
        require(self.node_of_slot.size == total, "tree slot assembly mismatch")

        mkeys = cat(member_key_parts)
        morder = np.argsort(mkeys, kind="stable")
        self._member_keys = persist_array(mkeys[morder])
        self._member_slots = persist_array(cat(member_slot_parts)[morder])
        return self

    def densify_membership(self) -> bool:
        """Materialize the dense ``(tree, node) -> slot`` matrix if it fits.

        Entry resolution asks "which slot does node ``v`` occupy in tree
        ``t``" for every packet of every batch; the dense int32 matrix (-1
        for non-members, exactly the sorted-key miss value) answers with
        one gather instead of a ``searchsorted`` over every membership key.
        Skipped — returning ``False`` — when the matrix would exceed
        ``SLOT_MATRIX_BYTES`` or slot ids overflow int32.
        """
        if self._slot_matrix is not None:
            return True
        if not self._frozen or not self._trees:
            return False
        if (self.num_trees * self.n * 4 > self.SLOT_MATRIX_BYTES
                or self.num_slots > np.iinfo(np.int32).max):
            return False
        matrix = np.full((self.num_trees, self.n), -1, dtype=np.int32)
        trees = self._member_keys // self.n
        matrix[trees, self._member_keys - trees * self.n] = self._member_slots
        self._slot_matrix = matrix
        return True

    # -- queries ---------------------------------------------------------- #
    def slots_of(self, tree_ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Slot of each ``(tree, graph node)`` pair; ``-1`` for non-members."""
        tree_ids = np.asarray(tree_ids, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if self._member_keys.size == 0:
            return np.full(tree_ids.shape, -1, dtype=np.int64)
        keys = tree_ids * self.n + nodes
        if self._slot_matrix is not None or \
                (keys.size > 128 and self.densify_membership()):
            return self._slot_matrix[tree_ids, nodes].astype(np.int64)
        if keys.size > 128:
            # skewed batches repeat the same (tree, node) membership query
            # thousands of times; resolving each distinct key once replaces
            # the wide cache-missing searchsorted with one over the uniques
            uniq, inverse = np.unique(keys, return_inverse=True)
            if 2 * uniq.size <= keys.size:
                pos = np.searchsorted(self._member_keys, uniq)
                pos_c = np.minimum(pos, self._member_keys.size - 1)
                hit = self._member_keys[pos_c] == uniq
                return np.where(hit, self._member_slots[pos_c], -1)[inverse]
        pos = np.searchsorted(self._member_keys, keys)
        pos_c = np.minimum(pos, self._member_keys.size - 1)
        hit = self._member_keys[pos_c] == keys
        return np.where(hit, self._member_slots[pos_c], -1)

    def slot_of(self, tree_id: int, node: int) -> int:
        """Scalar convenience wrapper of :meth:`slots_of`."""
        return int(self.slots_of(np.asarray([tree_id]), np.asarray([node]))[0])


class NextHopTable:
    """Per-(node, destination) next hops as a sorted key array.

    Keys are ``node * n + destination``; a batch lookup is one
    ``searchsorted`` and returns ``-1`` for missing entries (the table-phase
    "miss" that moves a packet to its next leg).
    """

    #: memory budget for cached per-destination next-hop columns (bytes)
    COLUMN_CACHE_BYTES = 64 << 20

    def __init__(self, n: int, keys: np.ndarray, next_hops: np.ndarray) -> None:
        self.n = int(n)
        order = np.argsort(keys, kind="stable")
        self._keys = persist_array(np.asarray(keys, dtype=np.int64)[order])
        self._next = persist_array(np.asarray(next_hops, dtype=np.int64)[order])
        #: destination -> row index into ``_cols`` (-1 = not cached)
        self._col_rank: Optional[np.ndarray] = None
        #: dense cached next-hop columns, one row per hot destination
        self._cols: Optional[np.ndarray] = None

    @classmethod
    def from_name_dicts(cls, graph: WeightedGraph,
                        per_node: Sequence[Dict[object, int]]) -> "NextHopTable":
        """Compile per-node ``{destination name: next hop}`` dicts."""
        n = graph.n
        keys: List[int] = []
        hops: List[int] = []
        for u, table in enumerate(per_node):
            for name, nxt in table.items():
                keys.append(u * n + graph.index_of(name))
                hops.append(int(nxt))
        return cls(n, np.asarray(keys, dtype=np.int64),
                   np.asarray(hops, dtype=np.int64))

    @classmethod
    def from_arrays(cls, n: int, nodes: np.ndarray, destinations: np.ndarray,
                    next_hops: np.ndarray) -> "NextHopTable":
        """Compile parallel ``(node, destination, next_hop)`` index arrays.

        The array-native sibling of :meth:`from_name_dicts` used by the
        vectorized constructors: whole table columns arrive as index arrays
        straight from batched Dijkstra output, so no per-entry Python runs.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        require(nodes.shape == destinations.shape,
                "nodes and destinations must have equal length")
        return cls(n, nodes * int(n) + destinations,
                   np.asarray(next_hops, dtype=np.int64))

    @property
    def num_entries(self) -> int:
        return int(self._keys.size)

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``node * n + destination`` keys and their next hops.

        Both arrays are the table's own storage: read-only, do not mutate.
        """
        return self._keys, self._next

    def lookup(self, nodes: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        """Next hop of each ``(node, destination)`` pair; ``-1`` when absent."""
        if self._keys.size == 0:
            return np.full(np.asarray(nodes).shape, -1, dtype=np.int64)
        keys = np.asarray(nodes, dtype=np.int64) * self.n \
            + np.asarray(destinations, dtype=np.int64)
        pos = np.searchsorted(self._keys, keys)
        pos_c = np.minimum(pos, self._keys.size - 1)
        return np.where(self._keys[pos_c] == keys, self._next[pos_c], -1)

    def lookup_one(self, node: int, destination: int) -> int:
        """Scalar lookup (``-1`` when absent) for scheme-side hop-by-hop walks."""
        if self._keys.size == 0:
            return -1
        key = int(node) * self.n + int(destination)
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and int(self._keys[pos]) == key:
            return int(self._next[pos])
        return -1

    def _ensure_columns(self, destinations: np.ndarray) -> None:
        """Cache dense next-hop columns for ``destinations`` (incremental).

        Each cached column ``c`` satisfies ``c[node] == lookup(node, dest)``
        for every node, so gathering through it is exactly the sorted-key
        lookup, minus the per-hop ``searchsorted``.  Columns are filled by
        one O(entries) scan of the sorted rows per extension — not a
        per-destination binary search — and capped by a memory budget;
        destinations past the cap simply stay on the searchsorted path.
        Repeated batches over a concentrated destination set (the traffic
        engine's regime) amortize the scan to nothing.
        """
        if self._keys.size == 0:
            return
        cap = int(self.COLUMN_CACHE_BYTES // max(4 * self.n, 1))
        if cap <= 0:
            return
        if self._col_rank is None:
            self._col_rank = np.full(self.n, -1, dtype=np.int64)
            self._cols = np.full((0, self.n), -1, dtype=np.int32)
        uniq = np.unique(np.asarray(destinations, dtype=np.int64))
        fresh = uniq[self._col_rank[uniq] < 0]
        room = cap - self._cols.shape[0]
        if fresh.size == 0 or room <= 0:
            return
        fresh = fresh[:room]
        base = self._cols.shape[0]
        self._col_rank[fresh] = base + np.arange(fresh.size, dtype=np.int64)
        new_cols = np.full((fresh.size, self.n), -1, dtype=np.int32)
        entry_nodes = self._keys // self.n
        entry_dests = self._keys - entry_nodes * self.n
        row = self._col_rank[entry_dests] - base
        sel = row >= 0          # rows of freshly added destinations only
        new_cols[row[sel], entry_nodes[sel]] = self._next[sel]
        self._cols = np.concatenate([self._cols, new_cols]) if base \
            else new_cols

    def batch_view(self, destinations: np.ndarray) -> "_SortedTableView":
        """A per-batch lookup view with the composite keys staged once.

        The lockstep engine performs one lookup per hop per packet; building
        the view hoists the dtype conversions and attribute resolution out of
        the per-step path, and extends the per-destination column cache to
        cover this batch's destinations, so repeated lookups become dense
        gathers.  Lookups through the view are identical to :meth:`lookup`
        (asserted by the regression suite).
        """
        self._ensure_columns(destinations)
        return _SortedTableView(self._keys, self._next, self.n,
                                self._col_rank, self._cols)

    def entries_per_node(self) -> np.ndarray:
        """Number of stored entries per node (space-accounting helper)."""
        if self._keys.size == 0:
            return np.zeros(self.n, dtype=np.int64)
        return np.bincount(self._keys // self.n, minlength=self.n)


class DenseNextHopTable:
    """Full per-(node, destination) next hops as one ``(n, n)`` int32 matrix.

    The stretch-1 shortest-path scheme stores a next hop for *every* ordered
    pair; the sorted-key representation would spend 16 bytes per entry on
    keys alone.  This variant keeps the matrix directly (``-1`` marks absent
    entries), which is the minimal full-table representation — 4 bytes per
    pair — and shares the same batch interface as :class:`NextHopTable`, so
    the lockstep engine is agnostic to which one a scheme compiled.
    :meth:`entries` materializes the sorted-key view on demand (row-major
    order of a matrix *is* key order); it is meant for digests, not for
    ``n = 20000`` hot loops.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        require(matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1],
                "dense next-hop matrix must be square")
        self.n = int(matrix.shape[0])
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        """The underlying ``(n, n)`` next-hop matrix (shared, mutable)."""
        return self._matrix

    @property
    def num_entries(self) -> int:
        return int(np.count_nonzero(self._matrix >= 0))

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted keys and next hops of the present entries, in one scan."""
        flat = self._matrix.ravel()
        mask = flat >= 0
        return (np.flatnonzero(mask).astype(np.int64),
                flat[mask].astype(np.int64))

    def lookup(self, nodes: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        """Next hop of each ``(node, destination)`` pair; ``-1`` when absent."""
        return self._matrix[np.asarray(nodes, dtype=np.int64),
                            np.asarray(destinations, dtype=np.int64)].astype(np.int64)

    def lookup_one(self, node: int, destination: int) -> int:
        """Scalar lookup (``-1`` when absent)."""
        return int(self._matrix[int(node), int(destination)])

    def batch_view(self, destinations: np.ndarray) -> "_DenseTableView":
        """A per-batch lookup view over the raveled next-hop matrix.

        The flat row view is materialized once per batch, so each lockstep
        step is a single fused-index gather (``flat[node * n + dest]``)
        instead of the generic 2-D fancy-indexing path.  Lookups through the
        view are identical to :meth:`lookup`.
        """
        return _DenseTableView(self._matrix, self.n)

    def entries_per_node(self) -> np.ndarray:
        """Number of stored entries per node (space-accounting helper)."""
        return (self._matrix >= 0).sum(axis=1, dtype=np.int64)


class _SortedTableView:
    """Per-batch cached lookup view of a :class:`NextHopTable`."""

    __slots__ = ("_keys", "_next", "n", "_col_rank", "_cols")

    def __init__(self, keys: np.ndarray, next_hops: np.ndarray, n: int,
                 col_rank: Optional[np.ndarray] = None,
                 cols: Optional[np.ndarray] = None) -> None:
        self._keys = keys
        self._next = next_hops
        self.n = n
        self._col_rank = col_rank if cols is not None and cols.size else None
        self._cols = cols if cols is not None and cols.size else None

    def _sorted_lookup(self, nodes: np.ndarray,
                       destinations: np.ndarray) -> np.ndarray:
        keys = self._keys
        if keys.size == 0:
            return np.full(nodes.shape, -1, dtype=np.int64)
        wanted = nodes * self.n + destinations
        pos = np.searchsorted(keys, wanted)
        pos_c = np.minimum(pos, keys.size - 1)
        return np.where(keys[pos_c] == wanted, self._next[pos_c], -1)

    def lookup(self, nodes: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        """Batch lookup identical to :meth:`NextHopTable.lookup`.

        ``nodes`` / ``destinations`` must already be int64 index arrays (the
        engine's working arrays are), so no conversion runs per step.
        Destinations covered by the table's column cache resolve with a
        dense gather; the rest fall back to the ``searchsorted`` path —
        the cached columns store exactly the sorted rows (misses included,
        as ``-1``), so the split is invisible in the results.
        """
        if self._cols is None:
            return self._sorted_lookup(nodes, destinations)
        rank = self._col_rank[destinations]
        hit = rank >= 0
        if hit.all():
            return self._cols[rank, nodes].astype(np.int64)
        out = np.empty(nodes.shape, dtype=np.int64)
        out[hit] = self._cols[rank[hit], nodes[hit]]
        miss = ~hit
        out[miss] = self._sorted_lookup(nodes[miss], destinations[miss])
        return out


class _DenseTableView:
    """Per-batch cached lookup view of a :class:`DenseNextHopTable`."""

    __slots__ = ("_flat", "n")

    def __init__(self, matrix: np.ndarray, n: int) -> None:
        self._flat = matrix.ravel()    # C-contiguous: a view, not a copy
        self.n = n

    def lookup(self, nodes: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        """Batch lookup identical to :meth:`DenseNextHopTable.lookup`."""
        return self._flat[nodes * self.n + destinations].astype(np.int64)


class ForwardingProgram:
    """A scheme's routing state compiled for the lockstep engine.

    ``planner(source, destination)`` must return a :class:`PacketPlan` whose
    legs reference only trees registered in ``bank`` and tables in
    ``tables``.  The plan mirrors the scalar control flow; the engine supplies
    the hops.
    """

    def __init__(self, graph: WeightedGraph,
                 planner: Callable[[int, int], PacketPlan],
                 bank: Optional[TreeBank] = None,
                 tables: Sequence[NextHopTable] = (),
                 header_bits: int = 0,
                 label: str = "",
                 batch_planner: Optional[Callable] = None) -> None:
        self.graph = graph
        self._planner = planner
        self.bank = (bank if bank is not None else TreeBank(graph.n)).freeze()
        self.tables = list(tables)
        self.header_bits = int(header_bits)
        self.label = label
        #: optional vectorized planner ``(src, dst) -> kernels.BatchPlans``;
        #: when set, the fused engine plans whole batches without ever
        #: instantiating per-packet :class:`PacketPlan` objects.  It must
        #: produce exactly the legs ``plan()`` would (the parity suite
        #: asserts walk-identical outcomes).
        self.batch_planner = batch_planner

    def plan(self, source: int, destination: int) -> PacketPlan:
        """Plan the legs of one request (both endpoints are node indices)."""
        return self._planner(source, destination)

    def describe(self) -> Dict[str, object]:
        """Compiled-state summary (diagnostics / benches)."""
        return {
            "label": self.label,
            "trees": self.bank.num_trees,
            "tree_slots": self.bank.num_slots,
            "tables": len(self.tables),
            "table_entries": sum(t.num_entries for t in self.tables),
        }


@dataclass
class LockstepOutcome:
    """Everything the simulator needs from one lockstep run.

    The hop arrays are packet-major and chronological within each packet —
    exactly the order the scalar verifier would enumerate them in — so
    verification and cost accumulation over them are bit-identical to the
    scalar engine's.  ``results`` is only populated when the run materializes
    per-packet :class:`RouteResult` objects; aggregate evaluation reads the
    array fields instead and skips that per-packet Python entirely.
    """

    results: Optional[List[RouteResult]]
    hop_index: np.ndarray      # packet id per hop
    hop_heads: np.ndarray
    hop_tails: np.ndarray
    found: np.ndarray
    final_nodes: np.ndarray
    phases: np.ndarray
    strategy_codes: np.ndarray
    strategy_names: List[str]
    header_bits: np.ndarray    # per packet; every entry is program.header_bits
    notes: List[Optional[dict]]


def run_lockstep(program: ForwardingProgram, sources: Sequence[int],
                 destinations: Sequence[int],
                 materialize: bool = True,
                 timings: Optional[Dict[str, float]] = None) -> LockstepOutcome:
    """Advance a whole batch of packets over the compiled tables.

    The batch runs through the **fused cohort kernels**
    (:mod:`repro.routing.kernels`): packets are bucketed by leg kind and each
    cohort advances to leg completion per kernel call, with vectorized batch
    planning for schemes that provide one.  Walks, hop records and outcome
    metadata match the scalar ``route()`` reference (asserted by
    ``tests/test_lockstep_engine.py``).

    Hop caps mirror the scalar loops (``2m + 1`` per tree leg, ``n + 1`` per
    table phase).  With ``materialize=False`` the per-packet ``RouteResult``
    objects (Python path lists) are skipped and only the outcome arrays are
    returned — the batch-evaluation fast path.  ``timings``, when given,
    accumulates wall seconds under ``"plan"`` and ``"step"``.
    """
    # array-native inputs pass through without a Python-list round trip —
    # traffic batches arrive as ndarrays tens of thousands of packets long;
    # other sequences (lists, tuples, generators) are materialized first
    if not isinstance(sources, np.ndarray):
        sources = list(sources)
    if not isinstance(destinations, np.ndarray):
        destinations = list(destinations)
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    dst = np.atleast_1d(np.asarray(destinations, dtype=np.int64))
    require(src.shape == dst.shape, "sources and destinations must have equal length")
    return run_fused(program, src, dst, materialize=materialize,
                     timings=timings)
