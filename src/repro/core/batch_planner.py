"""Vectorized batch planning for the AGM scheme's compiled forwarding.

The per-packet planner of :meth:`AGMRoutingScheme.compile_forwarding
<repro.core.scheme.AGMRoutingScheme.compile_forwarding>` replays the level
loop of Section 3 one packet at a time.  :class:`AGMBatchPlanner` runs the
same loop over whole packet arrays and emits the
:class:`~repro.routing.kernels.BatchPlans` that flattening the per-packet
plans would give, leg for leg:

* the dense/sparse test, the tree a level searches and its search bound
  are gathers from per-(node, level) arrays built once per program;
* a Lemma 7 lookup finds the destination exactly when it is in the tree,
  and heads for the responsible node at ``offset + bucket``;
* a Lemma 4 bounded search is located by trie arithmetic on the
  destination's hash digits (see
  :meth:`~repro.trees.name_independent.NameIndependentTreeRouting.bounded_search_depths`);
* every hash is evaluated once per distinct ``(tree, destination)`` pair in
  the batch, by one :class:`~repro.hashing.universal.HashStack` pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hashing.universal import HashStack
from repro.routing.forwarding import LEG_TREE, TreeBank
from repro.routing.kernels import BatchPlans
from repro.trees.error_reporting import DictionaryTreeRouting
from repro.trees.name_independent import NameIndependentTreeRouting
from repro.utils.validation import require

#: strategy codes of the emitted plans (indices into ``STRATEGY_NAMES``)
LOCAL, NOT_FOUND, SPARSE, DENSE, FALLBACK = range(5)
STRATEGY_NAMES = ("local", "not-found", "sparse", "dense", "fallback")


class _Legs:
    """Tree legs of one batch, collected in per-packet order and assembled once."""

    def __init__(self, num: int) -> None:
        self.count = np.zeros(num, dtype=np.int64)
        self.parts: List[tuple] = []

    def add(self, packets: np.ndarray, trees: np.ndarray, slots: np.ndarray,
            terminal: Optional[np.ndarray] = None, strategy: int = -1,
            phases: int = 0) -> None:
        """Append one leg to each of ``packets`` (distinct) toward ``slots``.

        Where ``terminal`` holds, the leg finishes the packet with
        ``(strategy, phases)``.
        """
        if packets.size == 0:
            return
        seq = self.count[packets]
        self.count[packets] += 1
        self.parts.append((packets, seq, trees, slots, terminal, strategy, phases))

    def assemble(self) -> tuple:
        """``(leg_lo, leg_a, leg_b, leg_strategy, leg_phases, leg_terminal)``."""
        num = self.count.size
        leg_lo = np.zeros(num, dtype=np.int64)
        np.cumsum(self.count[:-1], out=leg_lo[1:])
        total = int(self.count.sum())
        leg_a = np.empty(total, dtype=np.int64)
        leg_b = np.empty(total, dtype=np.int64)
        leg_strategy = np.full(total, -1, dtype=np.int64)
        leg_phases = np.zeros(total, dtype=np.int64)
        leg_terminal = np.zeros(total, dtype=bool)
        for packets, seq, trees, slots, terminal, strategy, phases in self.parts:
            position = leg_lo[packets] + seq
            leg_a[position] = trees
            leg_b[position] = slots
            if terminal is not None:
                done = position[terminal]
                leg_terminal[done] = True
                leg_strategy[done] = strategy
                leg_phases[done] = phases
        return leg_lo, leg_a, leg_b, leg_strategy, leg_phases, leg_terminal


class AGMBatchPlanner:
    """The AGM level loop over packet arrays (a ``batch_planner``).

    Built once per compiled program, after ``bank`` is frozen: every array
    it holds is read-only afterwards, so forked shards share it.  Calling it
    increments ``scheme.fallback_uses`` once per packet that reaches the
    fallback, as the per-packet planner does.
    """

    def __init__(self, scheme, fallback_of_node: Dict[int, DictionaryTreeRouting],
                 bank: TreeBank, tree_id_of: Dict[int, int]) -> None:
        graph = scheme.graph
        n, k = graph.n, scheme.k
        self._scheme = scheme
        self.n, self.k = n, k
        self.bank = bank.freeze()
        self.folded = scheme.folded_names

        num_trees = bank.num_trees
        self.hashes = HashStack()
        self.hash_row = np.zeros(num_trees, dtype=np.int64)
        self.hash_len = np.ones(num_trees, dtype=np.int64)
        self.sigma = np.ones(num_trees, dtype=np.int64)
        self.trie_base = np.zeros(num_trees, dtype=np.int64)

        # Lemma 4 trees: depth-order position -> slot, slot -> trie depth
        trie_parts: List[np.ndarray] = []
        self.slot_depth = np.zeros(bank.num_slots, dtype=np.int64)
        base = 0
        for routing in scheme.sparse.trees.values():
            tree = tree_id_of[id(routing)]
            nodes, lengths = routing.trie_layout()
            slots = int(bank.offsets[tree]) \
                + routing.tree.dfs_in[routing.tree.positions(nodes)]
            trie_parts.append(slots)
            self.slot_depth[slots] = lengths
            self.trie_base[tree] = base
            base += nodes.size
            self.sigma[tree] = routing.sigma
            self.hash_row[tree] = routing.digit_hash.stack_into(self.hashes)
            self.hash_len[tree] = routing.digit_hash.length
        self.trie_slot = np.concatenate(trie_parts) if trie_parts \
            else np.zeros(0, dtype=np.int64)

        # Lemma 7 trees (dense covers and fallbacks): one bucket row each
        dictionaries = [r for routings in scheme.dense.covers.values()
                        for r in routings]
        dictionaries += list({id(r): r for r in fallback_of_node.values()}.values())
        for routing in dictionaries:
            self.hash_row[tree_id_of[id(routing)]] = \
                routing.bucket_hash.stack_into(self.hashes)
        self.hashes.freeze()

        # per-(node, level) tree and search bound; -1 marks a level that
        # cannot walk (the defensive no-op cases of the strategies)
        self.dense = scheme.decomposition.dense_table()
        self.level_tree = np.full((n, k + 1), -1, dtype=np.int64)
        self.level_bound = np.zeros((n, k + 1), dtype=np.int64)
        for (u, i), c in scheme.sparse.center_of.items():
            routing = scheme.sparse.tree_of_center(c)
            if routing.tree.contains(u):
                self.level_tree[u, i] = tree_id_of[id(routing)]
                self.level_bound[u, i] = scheme.sparse.bound(u, i)
        for (u, i) in scheme.dense.exponent_of:
            if scheme.dense.is_applicable(u, i):
                self.level_tree[u, i] = \
                    tree_id_of[id(scheme.dense.home_tree_routing(u, i))]

        self.fallback_tree = np.full(n, -1, dtype=np.int64)
        for v, routing in fallback_of_node.items():
            self.fallback_tree[v] = tree_id_of[id(routing)]

    # ------------------------------------------------------------------ #
    def _hash_rows(self, trees: np.ndarray, targets: np.ndarray,
                   width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hash rows ``0 .. width-1`` of each tree at each target name.

        Evaluated once per distinct ``(tree, target)`` pair: returns the
        ``(pairs, width)`` values (0 past a tree's own hash length), each
        pair's tree, and the pair index of every input.
        """
        pairs, inverse = np.unique(trees * self.n + targets, return_inverse=True)
        p_tree = pairs // self.n
        columns = np.arange(width, dtype=np.int64)
        valid = columns[None, :] < self.hash_len[p_tree][:, None]
        rows = self.hash_row[p_tree][:, None] + columns[None, :]
        folded = np.broadcast_to(self.folded[pairs - p_tree * self.n][:, None],
                                 rows.shape)
        out = np.zeros(rows.shape, dtype=np.int64)
        out[valid] = self.hashes.evaluate(rows[valid], folded[valid])
        return out, p_tree, inverse

    def _lookup(self, legs: _Legs, packets, trees, sources, targets,
                strategy: int, phases: int) -> np.ndarray:
        """Lemma 7 lookups: root, responsible node, then target or source."""
        bank = self.bank
        target_slot = bank.slots_of(trees, targets)
        found = target_slot >= 0
        roots = bank.offsets[trees]
        buckets, _, inverse = self._hash_rows(trees, targets, 1)
        responsible = DictionaryTreeRouting.responsible_slots(
            roots, buckets[inverse, 0])
        end = target_slot
        miss = ~found
        if miss.any():
            end = target_slot.copy()
            end[miss] = bank.slots_of(trees[miss], sources[miss])
        legs.add(packets, trees, roots)
        legs.add(packets, trees, responsible)
        legs.add(packets, trees, end, terminal=found, strategy=strategy,
                 phases=phases)
        return found

    def _search(self, legs: _Legs, packets, trees, sources, targets, bounds,
                phases: int) -> np.ndarray:
        """Sparse levels: climb to the center, then a Lemma 4 bounded search."""
        bank = self.bank
        target_slot = bank.slots_of(trees, targets)
        name_length = np.where(target_slot >= 0, self.slot_depth[target_slot], -1)
        width = int(self.hash_len[trees].max())
        digits, p_tree, inverse = self._hash_rows(trees, targets, width)
        paths = NameIndependentTreeRouting.trie_path_positions(
            digits, self.sigma[p_tree], bank.sizes[p_tree])
        path = paths[inverse]
        deepest = (paths >= 0).sum(axis=1)[inverse]
        depth, found = NameIndependentTreeRouting.bounded_search_depths(
            name_length, bounds, deepest)
        roots = bank.offsets[trees]
        # a target at the root is found there: the climb is the whole walk
        legs.add(packets, trees, roots, terminal=found & (name_length == 0),
                 strategy=SPARSE, phases=phases)
        base = self.trie_base[trees]
        for j in range(1, int(depth.max(initial=0)) + 1):
            sel = depth >= j
            legs.add(packets[sel], trees[sel],
                     self.trie_slot[base[sel] + path[sel, j - 1]])
        hit = found & (name_length > 0)
        legs.add(packets[hit], trees[hit], target_slot[hit],
                 terminal=np.ones(int(hit.sum()), dtype=bool),
                 strategy=SPARSE, phases=phases)
        miss = ~found
        back = miss & (depth >= 1)
        legs.add(packets[back], trees[back], roots[back])
        legs.add(packets[miss], trees[miss],
                 bank.slots_of(trees[miss], sources[miss]))
        return found

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> BatchPlans:
        n, k = self.n, self.k
        num = int(src.size)
        if num:
            require(int(src.min()) >= 0 and int(src.max()) < n,
                    f"source out of range [0, {n})")
            require(int(dst.min()) >= 0 and int(dst.max()) < n,
                    f"destination out of range [0, {n})")
        local = src == dst
        out_strategy = np.where(local, LOCAL, NOT_FOUND).astype(np.int64)
        out_phases = np.where(local, 0, k + 1).astype(np.int64)
        legs = _Legs(num)
        active = np.flatnonzero(~local)
        for i in range(k + 1):
            if active.size == 0:
                break
            sources = src[active]
            trees = self.level_tree[sources, i]
            dense = self.dense[sources, i]
            found = np.zeros(active.size, dtype=bool)
            sel = (trees >= 0) & dense
            if sel.any():
                found[sel] = self._lookup(legs, active[sel], trees[sel],
                                          sources[sel], dst[active[sel]],
                                          DENSE, i + 1)
            sel = (trees >= 0) & ~dense
            if sel.any():
                found[sel] = self._search(legs, active[sel], trees[sel],
                                          sources[sel], dst[active[sel]],
                                          self.level_bound[sources[sel], i],
                                          i + 1)
            active = active[~found]

        notes_of: List[Optional[dict]] = [None] * num
        trees = self.fallback_tree[src[active]]
        fallback = active[trees >= 0]
        if fallback.size:
            # last resort, expected never to fire; counted when it does
            self._scheme.fallback_uses += int(fallback.size)
            self._lookup(legs, fallback, trees[trees >= 0], src[fallback],
                         dst[fallback], FALLBACK, k + 1)
            for p in fallback.tolist():
                notes_of[p] = {"fallback_used": 1.0}

        leg_lo, leg_a, leg_b, leg_strategy, leg_phases, leg_terminal = \
            legs.assemble()
        return BatchPlans(
            num=num, leg_kind=np.full(leg_a.size, LEG_TREE, dtype=np.int8),
            leg_a=leg_a, leg_b=leg_b, leg_strategy=leg_strategy,
            leg_phases=leg_phases, leg_terminal=leg_terminal,
            leg_lo=leg_lo, leg_hi=leg_lo + legs.count,
            out_strategy=out_strategy, out_phases=out_phases,
            strategy_names=list(STRATEGY_NAMES), notes_of=notes_of)
