"""Fused per-program hop kernels: the executor behind ``run_lockstep``.

Packets are grouped into **cohorts** by the *kind* of leg they are about to
execute (tree walk / table phase / literal replay) and each cohort is driven
to **leg completion** in one kernel call, instead of advancing every live
packet one generic step per Python iteration:

* tree cohorts climb with vectorized parent gathers and descend along
  memoized per-target root paths (members leave the cohort as they arrive,
  so later iterations shrink);
* table cohorts resolve whole multi-hop runs against a per-batch
  :class:`~repro.routing.forwarding.NextHopTable` /
  :class:`~repro.routing.forwarding.DenseNextHopTable` **batch view** (the
  composite search keys / row views are materialized once per batch, not
  once per step);
* literal cohorts replay their recorded walks with a single ``repeat`` /
  gather — no per-hop loop at all.

Leg transitions happen by re-bucketing the advancing packets into the next
round's cohorts instead of per-packet mode branching.  The walks produced
are identical, node for node, to the scalar ``route()`` reference: hop caps
(``2m + 1`` per tree leg, ``n + 1`` per table phase), miss/skip semantics
and the final packet-major chronological hop order are all preserved (each
packet's legs execute in strictly increasing rounds, so the closing stable
argsort yields every packet's hops in walk order).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.routing.messages import RouteResult

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: max distinct target root-paths memoized per frozen TreeBank.  Skewed
#: traffic descends toward a few hundred hot destinations every batch, so
#: the cache is tiny in steady state; the cap only bounds adversarial
#: all-unique workloads (~10 MB at typical path depths).
PATH_CACHE_CAP = 1 << 16


# --------------------------------------------------------------------- #
# batch plans (SoA)
# --------------------------------------------------------------------- #
class BatchPlans:
    """The flattened plans of one packet batch in structure-of-arrays form.

    The arrays :func:`flatten_plans` builds from a list of
    :class:`~repro.routing.forwarding.PacketPlan` objects; a scheme can
    supply them **vectorized** (a ``batch_planner``) without ever
    instantiating per-packet plan objects.  The executor takes ownership of
    the arrays (it mutates ``out_strategy`` / ``out_phases`` in place), so
    planners must build fresh arrays per batch.
    """

    __slots__ = ("num", "leg_kind", "leg_a", "leg_b", "leg_strategy",
                 "leg_phases", "leg_terminal", "leg_lo", "leg_hi",
                 "literal_nodes", "out_strategy", "out_phases",
                 "notes_of", "strategy_names")

    def __init__(self, num: int, leg_kind: np.ndarray, leg_a: np.ndarray,
                 leg_b: np.ndarray, leg_strategy: np.ndarray,
                 leg_phases: np.ndarray, leg_terminal: np.ndarray,
                 leg_lo: np.ndarray, leg_hi: np.ndarray,
                 out_strategy: np.ndarray, out_phases: np.ndarray,
                 strategy_names: List[str],
                 literal_nodes: Optional[np.ndarray] = None,
                 notes_of: Optional[List[Optional[dict]]] = None) -> None:
        self.num = int(num)
        self.leg_kind = leg_kind
        self.leg_a = leg_a
        self.leg_b = leg_b
        self.leg_strategy = leg_strategy
        self.leg_phases = leg_phases
        self.leg_terminal = leg_terminal
        self.leg_lo = leg_lo
        self.leg_hi = leg_hi
        self.literal_nodes = literal_nodes if literal_nodes is not None else _EMPTY_I64
        self.out_strategy = out_strategy
        self.out_phases = out_phases
        self.notes_of = notes_of if notes_of is not None else [None] * self.num
        self.strategy_names = strategy_names


def flatten_plans(program, src: np.ndarray, dst: np.ndarray) -> BatchPlans:
    """Flatten per-packet ``program.plan()`` calls into a :class:`BatchPlans`.

    The generic path for schemes without a vectorized batch planner,
    including the tree-target slot patching via ``bank.slots_of``.
    """
    from repro.routing.forwarding import LEG_LITERAL, LEG_TABLE, LEG_TREE

    bank = program.bank
    num = int(src.size)
    plans = [program.plan(u, v) for u, v in zip(src.tolist(), dst.tolist())]

    strategy_code: Dict[str, int] = {}
    strategy_names: List[str] = []

    def code_of(strategy: Optional[str]) -> int:
        if strategy is None:
            return -1
        found = strategy_code.get(strategy)
        if found is None:
            found = len(strategy_names)
            strategy_code[strategy] = found
            strategy_names.append(strategy)
        return found

    leg_kind_l: List[int] = []
    leg_a_l: List[int] = []       # tree id / table id / literal lo
    leg_b_l: List[int] = []       # target slot / -1 / literal hi
    leg_strategy_l: List[int] = []
    leg_phases_l: List[int] = []
    leg_terminal_l: List[bool] = []
    literal_nodes_l: List[int] = []
    tree_positions: List[int] = []
    tree_ids_l: List[int] = []
    tree_targets_l: List[int] = []

    leg_lo = np.zeros(num, dtype=np.int64)
    leg_hi = np.zeros(num, dtype=np.int64)
    out_strategy = np.full(num, -1, dtype=np.int64)
    out_phases = np.zeros(num, dtype=np.int64)
    notes_of: List[Optional[dict]] = [None] * num

    for p, plan in enumerate(plans):
        leg_lo[p] = len(leg_kind_l)
        for kind, a, b, strategy, phases, terminal in plan.legs:
            position = len(leg_kind_l)
            leg_kind_l.append(kind)
            if kind == LEG_TREE:
                leg_a_l.append(a)
                leg_b_l.append(-1)   # patched to the target slot below
                tree_positions.append(position)
                tree_ids_l.append(a)
                tree_targets_l.append(b)
            elif kind == LEG_TABLE:
                leg_a_l.append(a)
                leg_b_l.append(-1)
            else:  # LEG_LITERAL: ``a`` is the hop list
                leg_a_l.append(len(literal_nodes_l))
                literal_nodes_l.extend(a)
                leg_b_l.append(len(literal_nodes_l))
            leg_strategy_l.append(code_of(strategy))
            leg_phases_l.append(phases)
            leg_terminal_l.append(terminal)
        leg_hi[p] = len(leg_kind_l)
        out_strategy[p] = code_of(plan.final_strategy)
        out_phases[p] = plan.final_phases
        notes_of[p] = plan.notes

    leg_b = np.asarray(leg_b_l, dtype=np.int64)
    if tree_positions:
        slots = bank.slots_of(np.asarray(tree_ids_l, dtype=np.int64),
                              np.asarray(tree_targets_l, dtype=np.int64))
        if (slots < 0).any():
            raise RuntimeError(
                "compiled plan targets a node outside its tree (planner bug)")
        leg_b[np.asarray(tree_positions, dtype=np.int64)] = slots

    return BatchPlans(
        num=num,
        leg_kind=np.asarray(leg_kind_l, dtype=np.int8),
        leg_a=np.asarray(leg_a_l, dtype=np.int64),
        leg_b=leg_b,
        leg_strategy=np.asarray(leg_strategy_l, dtype=np.int64),
        leg_phases=np.asarray(leg_phases_l, dtype=np.int64),
        leg_terminal=np.asarray(leg_terminal_l, dtype=bool),
        leg_lo=leg_lo, leg_hi=leg_hi,
        out_strategy=out_strategy, out_phases=out_phases,
        strategy_names=strategy_names,
        literal_nodes=np.asarray(literal_nodes_l, dtype=np.int64),
        notes_of=notes_of)


# --------------------------------------------------------------------- #
# cohort kernels
# --------------------------------------------------------------------- #
def _run_tree_cohort(bank, idx, cur, tgt, off, budget, node, record) -> np.ndarray:
    """Walk a tree cohort to leg completion; returns the completed packets.

    Every member is strictly *between* its entry slot and its target (entry
    hits and misses were peeled off during entry resolution).  The unique
    tree path climbs from the entry slot to the LCA with the target and
    then descends the target's root path.  Ascents run as vectorized parent
    gathers until each packet's slot interval first contains its target.
    Descents are served from per-target **root-path caches** (the slot path
    root→target, memoized on the frozen bank — hot destinations replay
    theirs every batch): slots strictly increase along a root path, so one
    ``searchsorted`` over the cache-resident concatenated paths locates
    every packet's ancestor position at once, and the remaining hops are a
    flat suffix gather.
    The bank's arrays are only ever written by ``freeze()`` and repairs
    recompile the whole program, so a cached path can never go stale.  Hop
    caps mirror the scalar tree walk: a walk longer than its ``2m + 1``
    budget raises.
    """
    if idx.size == 0:
        return idx
    node_of_slot = bank.node_of_slot
    done_parts: List[np.ndarray] = [idx[:0]]
    down_parts: List[tuple] = []
    a_idx, a_cur, a_tgt, a_off, a_budget = idx, cur, tgt, off, budget
    # ascent phase: parent gathers until each packet's interval contains
    # its target (it then sits on the target's root path and descends)
    while a_idx.size:
        descending = (a_cur <= a_tgt) \
            & (a_tgt - a_off <= bank.dfs_out[a_cur])
        if descending.any():
            down_parts.append((a_idx[descending], a_cur[descending],
                               a_tgt[descending], a_budget[descending]))
            keep = ~descending
            a_idx, a_cur, a_tgt = a_idx[keep], a_cur[keep], a_tgt[keep]
            a_off, a_budget = a_off[keep], a_budget[keep]
            if a_idx.size == 0:
                break
        parents = bank.parent_slot[a_cur]
        if (parents < 0).any():
            raise RuntimeError(
                "lockstep tree walk stepped above a root: target label is "
                "outside the packet's current tree")
        record(a_idx, node_of_slot[a_cur], node_of_slot[parents])
        a_budget -= 1
        if (a_budget < 0).any():
            raise RuntimeError("lockstep tree walk did not terminate")
        arrived = parents == a_tgt
        if arrived.any():
            node[a_idx[arrived]] = node_of_slot[a_tgt[arrived]]
            done_parts.append(a_idx[arrived])
            keep = ~arrived
            a_idx, a_tgt, a_off = a_idx[keep], a_tgt[keep], a_off[keep]
            a_budget, parents = a_budget[keep], parents[keep]
        a_cur = parents
    # descent phase: replay the suffix of each target's cached root path
    if down_parts:
        d_idx, d_cur, d_tgt, d_budget = \
            (np.concatenate(p) for p in zip(*down_parts))
        # memoized per-target root paths, kept on the bank: its slot arrays
        # never change after freeze(), so a cached path stays valid
        cache = getattr(bank, "_path_cache", None)
        if cache is None:
            cache = bank._path_cache = {}
        uniq_t, t_inv = np.unique(d_tgt, return_inverse=True)
        parent = bank.parent_slot
        paths = []
        for t in uniq_t.tolist():
            path = cache.get(t)
            if path is None:
                chain = [t]
                s = int(parent[t])
                while s >= 0:
                    chain.append(s)
                    s = int(parent[s])
                path = np.asarray(chain[::-1], dtype=np.int64)
                if len(cache) < PATH_CACHE_CAP:
                    cache[t] = path
            paths.append(path)
        lens = np.fromiter((p.size for p in paths), dtype=np.int64,
                           count=len(paths))
        seg_hi = np.cumsum(lens)
        flat = np.concatenate(paths)
        # per-path slots strictly increase, so segment-offset keys are
        # globally sorted and one searchsorted finds every packet's
        # position on its own target's root path
        span = np.int64(node_of_slot.size)
        seg_of = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        pos = np.searchsorted(seg_of * span + flat,
                              t_inv * span + d_cur, side="right")
        counts = seg_hi[t_inv] - pos
        if (counts > d_budget).any():
            raise RuntimeError("lockstep tree walk did not terminate")
        flat_nodes = node_of_slot[flat]
        total = int(counts.sum())
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        tails = flat_nodes[np.repeat(pos, counts) + within]
        heads = np.empty(total, dtype=np.int64)
        heads[1:] = tails[:-1]
        heads[starts] = node_of_slot[d_cur]
        record(np.repeat(d_idx, counts), heads, tails)
        node[d_idx] = node_of_slot[d_tgt]
        done_parts.append(d_idx)
    return np.concatenate(done_parts)


def _run_table_cohort(view, idx, node, dst, n, record):
    """Resolve a table cohort's multi-hop runs to leg completion.

    Returns ``(finalized, advanced)``: packets that reached their
    destination (finalize with the current leg's metadata) and packets that
    missed or hit the ``n + 1`` hop cap (advance to their next leg).  The
    per-step order of operations — cap check first, then lookup, then the
    reached check — matches the scalar hop-by-hop table loop exactly.
    """
    budget = np.full(idx.size, n + 1, dtype=np.int64)
    nodes = node[idx]
    dests = dst[idx]
    finalized = [idx[:0]]
    advanced = [idx[:0]]
    while idx.size:
        capped = budget <= 0
        if capped.any():
            advanced.append(idx[capped])
            keep = ~capped
            idx, nodes = idx[keep], nodes[keep]
            dests, budget = dests[keep], budget[keep]
            if idx.size == 0:
                break
        nxt = view.lookup(nodes, dests)
        miss = nxt < 0
        if miss.any():
            advanced.append(idx[miss])
            keep = ~miss
            idx, nodes, nxt = idx[keep], nodes[keep], nxt[keep]
            dests, budget = dests[keep], budget[keep]
            if idx.size == 0:
                break
        record(idx, nodes, nxt)
        node[idx] = nxt
        nodes = nxt
        budget -= 1
        reached = nodes == dests
        if reached.any():
            finalized.append(idx[reached])
            keep = ~reached
            idx, nodes = idx[keep], nodes[keep]
            dests, budget = dests[keep], budget[keep]
    return np.concatenate(finalized), np.concatenate(advanced)


def _run_literal_cohort(idx, lo, hi, literal_nodes, node, record) -> None:
    """Replay literal walks with one ``repeat``/gather (no per-hop loop).

    All members have non-empty ranges (empties complete during entry
    resolution).  Heads are the previous tails shifted by one within each
    segment, seeded with the packet's current node.
    """
    counts = hi - lo
    total = int(counts.sum())
    rep_idx = np.repeat(idx, counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    tails = literal_nodes[np.repeat(lo, counts) + offsets]
    heads = np.empty(total, dtype=np.int64)
    heads[1:] = tails[:-1]
    heads[starts] = node[idx]
    record(rep_idx, heads, tails)
    node[idx] = literal_nodes[hi - 1]


# --------------------------------------------------------------------- #
# the fused executor
# --------------------------------------------------------------------- #
def run_fused(program, src: np.ndarray, dst: np.ndarray,
              materialize: bool = True, timings: Optional[Dict[str, float]] = None):
    """Execute a batch through the fused cohort kernels.

    The executor behind :func:`~repro.routing.forwarding.run_lockstep`,
    which validates the inputs and returns this function's
    :class:`~repro.routing.forwarding.LockstepOutcome`.  ``timings``, when
    given, accumulates wall seconds under ``"plan"`` (batch planning /
    flattening) and ``"step"`` (kernel execution + assembly).
    """
    from repro.routing.forwarding import (LEG_LITERAL, LEG_TABLE, LEG_TREE,
                                          LockstepOutcome)

    t0 = time.perf_counter() if timings is not None else 0.0
    planner = getattr(program, "batch_planner", None)
    bp = planner(src, dst) if planner is not None else flatten_plans(program, src, dst)
    if timings is not None:
        t1 = time.perf_counter()
        timings["plan"] = timings.get("plan", 0.0) + (t1 - t0)

    bank = program.bank
    n = program.graph.n
    num = bp.num
    node = src.copy()
    leg_ptr = bp.leg_lo.copy()
    out_strategy = bp.out_strategy
    out_phases = bp.out_phases
    views = [table.batch_view(dst) for table in program.tables]

    hop_idx_parts: List[np.ndarray] = []
    hop_head_parts: List[np.ndarray] = []
    hop_tail_parts: List[np.ndarray] = []

    def record(idx: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
        hop_idx_parts.append(idx)
        hop_head_parts.append(heads)
        hop_tail_parts.append(tails)

    def complete_leg(idx: np.ndarray) -> np.ndarray:
        """Finalize terminal legs; advance the rest, returning them."""
        if idx.size == 0:
            return idx
        legs = leg_ptr[idx]
        terminal = bp.leg_terminal[legs]
        fin = idx[terminal]
        out_strategy[fin] = bp.leg_strategy[legs[terminal]]
        out_phases[fin] = bp.leg_phases[legs[terminal]]
        advancing = idx[~terminal]
        leg_ptr[advancing] += 1
        return advancing

    pending = np.arange(num, dtype=np.int64)
    while pending.size:
        # -- entry resolution: bucket pending packets into this round's
        #    cohorts (skips, instant completions and exhaustion loop here) --
        tree_parts: List[tuple] = []
        table_parts: Dict[int, List[np.ndarray]] = {}
        lit_parts: List[tuple] = []
        while pending.size:
            live = pending[leg_ptr[pending] < bp.leg_hi[pending]]
            if live.size == 0:
                pending = live
                break
            legs = leg_ptr[live]
            kinds = bp.leg_kind[legs]
            next_pending: List[np.ndarray] = []

            tree_sel = kinds == LEG_TREE
            if tree_sel.any():
                t_idx, t_leg = live[tree_sel], legs[tree_sel]
                slots = bank.slots_of(bp.leg_a[t_leg], node[t_idx])
                miss = slots < 0
                if miss.any():
                    skipped = t_idx[miss]   # current node outside tree: skip leg
                    leg_ptr[skipped] += 1
                    next_pending.append(skipped)
                    t_idx, t_leg, slots = t_idx[~miss], t_leg[~miss], slots[~miss]
                targets = bp.leg_b[t_leg]
                arrived = slots == targets
                if arrived.any():
                    next_pending.append(complete_leg(t_idx[arrived]))
                going = ~arrived
                g_idx, g_leg = t_idx[going], t_leg[going]
                if g_idx.size:
                    trees = bp.leg_a[g_leg]
                    tree_parts.append((g_idx, slots[going], targets[going],
                                       bank.offsets[trees],
                                       2 * bank.sizes[trees] + 1))

            table_sel = kinds == LEG_TABLE
            if table_sel.any():
                b_idx = live[table_sel]
                tids = bp.leg_a[legs[table_sel]]
                for tid in np.unique(tids):
                    table_parts.setdefault(int(tid), []).append(b_idx[tids == tid])

            literal_sel = kinds == LEG_LITERAL
            if literal_sel.any():
                l_idx, l_leg = live[literal_sel], legs[literal_sel]
                empty = bp.leg_a[l_leg] == bp.leg_b[l_leg]
                if empty.any():
                    next_pending.append(complete_leg(l_idx[empty]))
                keep = ~empty
                l_idx, l_leg = l_idx[keep], l_leg[keep]
                if l_idx.size:
                    lit_parts.append((l_idx, bp.leg_a[l_leg], bp.leg_b[l_leg]))

            pending = np.concatenate(next_pending) if next_pending else _EMPTY_I64

        # -- run each cohort to leg completion, re-bucket the advancers --
        advancing: List[np.ndarray] = []
        if tree_parts:
            idx, cur, tgt, off, budget = (np.concatenate(parts)
                                          for parts in zip(*tree_parts))
            completed = _run_tree_cohort(bank, idx, cur, tgt, off, budget,
                                         node, record)
            advancing.append(complete_leg(completed))
        for tid, parts in table_parts.items():
            idx = np.concatenate(parts)
            finalized, advanced = _run_table_cohort(views[tid], idx, node,
                                                    dst, n, record)
            if finalized.size:   # table success: finalize with the leg's metadata
                legs = leg_ptr[finalized]
                out_strategy[finalized] = bp.leg_strategy[legs]
                out_phases[finalized] = bp.leg_phases[legs]
            leg_ptr[advanced] += 1
            advancing.append(advanced)
        if lit_parts:
            idx, lo, hi = (np.concatenate(parts) for parts in zip(*lit_parts))
            _run_literal_cohort(idx, lo, hi, bp.literal_nodes, node, record)
            advancing.append(complete_leg(idx))
        pending = np.concatenate(advancing) if advancing else _EMPTY_I64

    # -- assemble (packet-major, chronological hop order) -- #
    if hop_idx_parts:
        all_idx = np.concatenate(hop_idx_parts)
        all_heads = np.concatenate(hop_head_parts)
        all_tails = np.concatenate(hop_tail_parts)
        order = np.argsort(all_idx, kind="stable")
        hop_index = all_idx[order]
        hop_heads = all_heads[order]
        hop_tails = all_tails[order]
    else:
        hop_index = _EMPTY_I64
        hop_heads = _EMPTY_I64
        hop_tails = _EMPTY_I64

    found = node == dst
    header = int(program.header_bits)

    results: Optional[List[RouteResult]] = None
    if materialize:
        counts = np.bincount(hop_index, minlength=num) if num \
            else np.zeros(0, dtype=np.int64)
        groups = np.split(hop_tails, np.cumsum(counts)[:-1]) if num else []
        results = []
        strategy_names = bp.strategy_names
        for p in range(num):
            path = [int(src[p])] + groups[p].tolist()
            result = RouteResult(
                found=bool(found[p]),
                path=path,
                cost=0.0,
                phases_used=int(out_phases[p]),
                strategy=strategy_names[out_strategy[p]] if out_strategy[p] >= 0 else "",
                max_header_bits=header,
            )
            if bp.notes_of[p]:
                result.notes = dict(bp.notes_of[p])
            results.append(result)
    outcome = LockstepOutcome(
        results=results, hop_index=hop_index, hop_heads=hop_heads,
        hop_tails=hop_tails, found=found,
        final_nodes=node, phases=out_phases, strategy_codes=out_strategy,
        strategy_names=bp.strategy_names,
        header_bits=np.full(num, header, dtype=np.int64), notes=bp.notes_of)
    if timings is not None:
        timings["step"] = timings.get("step", 0.0) + (time.perf_counter() - t1)
    return outcome
