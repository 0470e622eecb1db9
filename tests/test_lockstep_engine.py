"""Parity and unit tests for compiled forwarding + the lockstep engine.

The headline guarantee of the compiled-forwarding layer is *exact* parity:
for every scheme in the library the lockstep engine must return the same
walks (node for node), the same found/strategy/phase metadata, and the same
stretch statistics as the scalar ``route()`` engine, on every graph family.
"""

import numpy as np
import pytest

from repro.core.params import AGMParams
from repro.dynamics.events import ChurnEvent, apply_events
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import path_graph, random_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.graphs.trees import Tree
from repro.routing import kernels
from repro.routing.forwarding import (LEG_TREE, ForwardingProgram,
                                      NextHopTable, PacketPlan, TreeBank,
                                      literal_leg, run_lockstep, table_leg,
                                      tree_leg)
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.routing.simulator import RoutingSimulator
from repro.utils.validation import ValidationError


FAMILIES = ("small_geometric", "small_grid", "small_cliques")


def _assert_results_match(scalar, lockstep, pairs):
    assert len(scalar) == len(lockstep) == len(pairs)
    for (u, v), s, l in zip(pairs, scalar, lockstep):
        assert l.path == s.path, f"paths differ for pair ({u}, {v})"
        assert l.found == s.found
        assert l.hops == s.hops
        assert l.strategy == s.strategy
        assert l.phases_used == s.phases_used
        assert l.max_header_bits == s.max_header_bits
        assert l.notes == s.notes
        assert l.cost == pytest.approx(s.cost)


def _pairs_for(sim, graph, seed):
    pairs = sim.sample_pairs(120, seed=seed)
    pairs += [(u, u) for u in range(0, graph.n, max(graph.n // 5, 1))]
    return pairs


class TestSchemeParity:
    """Lockstep == scalar for every scheme on >= 3 graph families."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scheme_name",
                             [s for s in SCHEME_NAMES if s != "agm"])
    def test_baseline_parity(self, request, family, scheme_name):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        pairs = _pairs_for(sim, graph, seed=3)
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_agm_parity(self, request, family):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme("agm", graph, k=2, seed=5, oracle=oracle,
                              params=AGMParams.experiment())
        pairs = _pairs_for(sim, graph, seed=4)
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    def test_agm_k3_parity(self, small_er, er_oracle, agm_k3):
        sim = RoutingSimulator(small_er, oracle=er_oracle)
        pairs = _pairs_for(sim, small_er, seed=6)
        scalar = sim.route_batch(agm_k3, pairs, engine="scalar")
        lockstep = sim.route_batch(agm_k3, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    @pytest.mark.parametrize("scheme_name", ["agm", "thorup-zwick"])
    def test_report_parity(self, small_geometric, geometric_oracle, scheme_name):
        """Aggregate reports agree field for field (modulo the engine tag)."""
        sim = RoutingSimulator(small_geometric, oracle=geometric_oracle)
        kwargs = {"params": AGMParams.experiment()} if scheme_name == "agm" else {}
        scheme = build_scheme(scheme_name, small_geometric, k=2, seed=9,
                              oracle=geometric_oracle, **kwargs)
        pairs = sim.sample_pairs(150, seed=11)
        scalar = sim.evaluate(scheme, pairs=pairs, engine="scalar").as_dict()
        lockstep = sim.evaluate(scheme, pairs=pairs, engine="lockstep").as_dict()
        assert scalar.pop("engine") == "scalar"
        assert lockstep.pop("engine") == "lockstep"
        assert lockstep == scalar

    def test_disconnected_graph_parity(self):
        graph = WeightedGraph(9, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0),
                                  (4, 5, 1.5), (6, 7, 1.0), (7, 8, 3.0)])
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme("agm", graph, k=2, seed=2, oracle=oracle,
                              params=AGMParams.experiment())
        pairs = [(u, v) for u in range(graph.n) for v in range(graph.n)]
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)


class _UncompiledScheme(RoutingSchemeInstance):
    """A scheme without a compiled form (delegates ``route()`` to ``inner``)."""

    scheme_name = "uncompiled"

    def __init__(self, graph, inner):
        super().__init__(graph)
        self._inner = inner

    def route(self, source, destination_name):
        return self._inner.route(source, destination_name)

    def compute_header_bits(self):
        return self._inner.header_bits()


class TestEngineSelection:
    def test_uncompiled_scheme_routes_only_under_scalar(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        inner = build_scheme("shortest-path", small_grid, oracle=oracle)
        scheme = _UncompiledScheme(small_grid, inner)
        pairs = sim.sample_pairs(40, seed=1)
        report = sim.evaluate(scheme, pairs=pairs, engine="scalar")
        assert report.engine == "scalar" and report.failures == 0
        with pytest.raises(NotImplementedError, match='engine="scalar"'):
            sim.evaluate(scheme, pairs=pairs)
        assert sim.evaluate(inner, pairs=pairs).engine == "lockstep"

    def test_unknown_engine_rejected(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        inner = build_scheme("shortest-path", small_grid, oracle=oracle)
        for engine in ("warp-drive", "auto"):
            with pytest.raises(ValidationError, match="engine must be one of"):
                sim.evaluate(inner, num_pairs=5, seed=1, engine=engine)


class TestTreeBank:
    def test_walks_follow_unique_tree_paths(self, small_geometric, geometric_spt):
        tree = geometric_spt
        bank = TreeBank(small_geometric.n)
        tree_id = bank.add(tree)

        def planner(source: int, destination: int) -> PacketPlan:
            return PacketPlan([tree_leg(tree_id, destination, strategy="tree",
                                        terminal=True)], "gave-up", 0)

        program = ForwardingProgram(small_geometric, planner, bank=bank,
                                    label="one-tree")
        rng = np.random.default_rng(5)
        nodes = list(tree.nodes)
        pairs = [tuple(int(x) for x in rng.choice(nodes, size=2))
                 for _ in range(40)]
        outcome = run_lockstep(program, [u for u, _ in pairs],
                               [v for _, v in pairs])
        for (u, v), result in zip(pairs, outcome.results):
            assert result.path == tree.path(u, v)
            assert result.found and result.strategy == "tree"

    def test_membership_lookup(self, small_geometric, geometric_spt):
        bank = TreeBank(small_geometric.n)
        tree_id = bank.add(geometric_spt)
        assert bank.add(geometric_spt) == tree_id  # idempotent registration
        bank.freeze()
        inside = next(iter(geometric_spt.nodes))
        assert bank.slot_of(tree_id, inside) >= 0
        assert bank.slots_of(np.asarray([tree_id + 7]),
                             np.asarray([inside]))[0] == -1

    def test_frozen_slots_follow_each_tree_dfs(self, small_geometric,
                                              geometric_spt):
        """Slot ``offset + dfs_in(v)`` holds ``v``, its subtree's last DFS
        number and its parent's slot, in every tree of the bank."""
        trees = [geometric_spt, shortest_path_tree(small_geometric, 7),
                 Tree.single_node(3)]
        bank = TreeBank(small_geometric.n)
        ids = [bank.add(tree) for tree in trees]
        bank.freeze()
        assert bank.num_slots == sum(tree.size for tree in trees)
        for tree_id, tree in zip(ids, trees):
            offset = int(bank.offsets[tree_id])
            for v in tree.nodes:
                slot = offset + tree.slot(v)
                assert bank.slot_of(tree_id, v) == slot
                assert bank.node_of_slot[slot] == v
                assert bank.dfs_out[slot] == tree.dfs_out[tree.slot(v)]
                parent = tree.parent_of(v)
                expected = -1 if parent < 0 \
                    else offset + tree.slot(parent)
                assert bank.parent_slot[slot] == expected

    def test_frozen_hop_depth_counts_edges_from_the_root(self, agm_k2):
        """On a frozen AGM bank ``hop_depth`` is 0 exactly at the roots (the
        first slot of every tree) and one more than the parent's elsewhere."""
        bank = agm_k2.compiled_forwarding().bank
        parent = bank.parent_slot
        roots = parent < 0
        np.testing.assert_array_equal(np.flatnonzero(roots), bank.offsets)
        np.testing.assert_array_equal(bank.hop_depth == 0, roots)
        np.testing.assert_array_equal(bank.hop_depth[~roots],
                                      bank.hop_depth[parent[~roots]] + 1)
        assert bank.hop_depth.max() > 1

    def test_empty_bank(self):
        bank = TreeBank(5).freeze()
        assert bank.num_trees == 0 and bank.num_slots == 0
        assert (bank.slots_of(np.asarray([0, 1]), np.asarray([2, 3])) == -1).all()


class TestNextHopTable:
    def test_lookup_hits_and_misses(self, tiny_path):
        table = NextHopTable.from_name_dicts(
            tiny_path,
            [{tiny_path.name_of(1): 1}, {tiny_path.name_of(2): 2}, {}, {}, {}, {}])
        hits = table.lookup(np.asarray([0, 1, 2]), np.asarray([1, 2, 3]))
        assert hits.tolist() == [1, 2, -1]
        assert table.lookup(np.asarray([0]), np.asarray([3]))[0] == -1

    def _random_table(self, n=40, entries=300, seed=0):
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, n, size=entries)
        dests = rng.integers(0, n, size=entries)
        keys, keep = np.unique(nodes * n + dests, return_index=True)
        return NextHopTable.from_arrays(
            n, nodes[keep], dests[keep],
            rng.integers(0, n, size=keep.size)), n

    def test_batch_view_lookup_identical_to_table(self):
        """The regression contract of the per-batch views: every lookup
        through a view — dense column cache hits and sorted fallbacks
        alike — equals ``table.lookup`` on the same pairs."""
        table, n = self._random_table(seed=3)
        rng = np.random.default_rng(4)
        queries_nodes = rng.integers(0, n, size=500)
        queries_dests = rng.integers(0, n, size=500)
        # view over a destination subset: those dests hit the column cache,
        # the rest exercise the searchsorted fallback inside one lookup
        view = table.batch_view(np.unique(queries_dests)[: n // 3])
        expected = table.lookup(queries_nodes, queries_dests)
        got = view.lookup(queries_nodes.astype(np.int64),
                          queries_dests.astype(np.int64))
        assert np.array_equal(got, expected)
        assert got.dtype == np.int64
        # growing the cache with a second view keeps lookups identical
        view2 = table.batch_view(queries_dests)
        assert np.array_equal(
            view2.lookup(queries_nodes.astype(np.int64),
                         queries_dests.astype(np.int64)), expected)

    def test_batch_view_of_empty_table(self):
        table = NextHopTable(6, np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
        view = table.batch_view(np.asarray([0, 1], dtype=np.int64))
        out = view.lookup(np.asarray([0, 5], dtype=np.int64),
                          np.asarray([1, 2], dtype=np.int64))
        assert out.tolist() == [-1, -1]

    def test_dense_batch_view_matches_table(self, tiny_path):
        from repro.routing.forwarding import DenseNextHopTable

        n = 5
        matrix = np.full((n, n), -1, dtype=np.int32)
        matrix[0, 2] = 1
        matrix[1, 2] = 2
        dense = DenseNextHopTable(matrix)
        view = dense.batch_view(np.asarray([2], dtype=np.int64))
        nodes = np.asarray([0, 1, 3], dtype=np.int64)
        dests = np.asarray([2, 2, 2], dtype=np.int64)
        assert np.array_equal(view.lookup(nodes, dests),
                              dense.lookup(nodes, dests))


class TestCompiledProgramShape:
    def test_program_describe(self, agm_k2):
        program = agm_k2.compiled_forwarding()
        info = program.describe()
        assert info["label"] == "agm"
        assert info["trees"] == program.bank.num_trees > 0
        assert program.bank.num_slots > 0

    def test_program_is_cached(self, agm_k2):
        assert agm_k2.compiled_forwarding() is agm_k2.compiled_forwarding()

    def test_agm_plan_has_tree_legs(self, small_geometric, agm_k2):
        program = agm_k2.compiled_forwarding()
        sim = RoutingSimulator(small_geometric)
        (u, v), = sim.sample_pairs(1, seed=13)
        plan = program.plan(u, v)
        assert plan.legs and all(leg[0] == LEG_TREE for leg in plan.legs)

    def test_run_lockstep_without_materialize(self, small_geometric, agm_k2):
        program = agm_k2.compiled_forwarding()
        sim = RoutingSimulator(small_geometric)
        pairs = sim.sample_pairs(30, seed=17)
        sources = [u for u, _ in pairs]
        destinations = [v for _, v in pairs]
        fast = run_lockstep(program, sources, destinations, materialize=False)
        assert fast.results is None
        full = run_lockstep(program, sources, destinations, materialize=True)
        assert fast.found.tolist() == [r.found for r in full.results]
        assert np.array_equal(fast.hop_tails, full.hop_tails)


class TestLockstepEdgeCases:
    """Previously-untested ``run_lockstep`` paths: empty batches, hop-cap
    exhaustion on a broken table, and destinations detached by churn."""

    def test_empty_batch_returns_empty_outcome(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        outcome = run_lockstep(scheme.compiled_forwarding(), [], [])
        assert outcome.found.size == 0
        assert outcome.hop_index.size == 0
        assert outcome.results == []
        report = sim.evaluate(scheme, pairs=[], engine="lockstep")
        assert report.num_pairs == 0 and report.failures == 0

    def test_array_inputs_match_list_inputs(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        program = scheme.compiled_forwarding()
        pairs = sim.sample_pairs(40, seed=9)
        sources = [u for u, _ in pairs]
        destinations = [v for _, v in pairs]
        from_lists = run_lockstep(program, sources, destinations,
                                  materialize=False)
        from_arrays = run_lockstep(program, np.asarray(sources),
                                   np.asarray(destinations), materialize=False)
        assert np.array_equal(from_lists.found, from_arrays.found)
        assert np.array_equal(from_lists.hop_tails, from_arrays.hop_tails)
        assert np.array_equal(from_lists.final_nodes, from_arrays.final_nodes)

    def test_table_hop_cap_exhaustion_advances_to_final_metadata(self):
        # a deliberately broken table: 0 <-> 1 loop toward destination 3
        graph = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        table = NextHopTable.from_arrays(
            graph.n, np.asarray([0, 1]), np.asarray([3, 3]), np.asarray([1, 0]))

        def planner(source: int, destination: int) -> PacketPlan:
            return PacketPlan([table_leg(0, strategy="loop")], "gave-up", 2)

        program = ForwardingProgram(graph, planner, tables=[table],
                                    label="broken-loop")
        outcome = run_lockstep(program, [0], [3])
        # the n + 1 hop cap trips, the leg is abandoned, and the packet
        # finalizes with the plan's final metadata instead of spinning
        assert not outcome.found[0]
        assert outcome.hop_index.size == graph.n + 1
        assert outcome.hop_tails[:4].tolist() == [1, 0, 1, 0]
        assert outcome.strategy_names[outcome.strategy_codes[0]] == "gave-up"
        assert outcome.phases[0] == 2
        # a reachable pair through the same program still misses (entry
        # absent) and falls through with found=False rather than looping
        missing = run_lockstep(program, [2], [3])
        assert not missing.found[0] and missing.hop_index.size == 0

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_detached_destination_after_churn_matches_scalar(self, scheme_name):
        graph = random_geometric_graph(36, seed=771)
        oracle = DistanceOracle(graph, backend="lazy")
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        victim = max(range(graph.n), key=graph.degree) // 2 + 1
        delta = apply_events(graph, [ChurnEvent("detach", victim)])
        scheme.maintain(delta)
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph))
        sources = [u for u in range(graph.n) if u != victim][:10]
        pairs = [(u, victim) for u in sources] + [(victim, sources[0])]
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)
        assert not any(r.found for r in lockstep)
        # reachable traffic still routes under both engines after the repair
        ok_pairs = sim.sample_pairs(30, seed=6)
        ok_pairs = [(u, v) for u, v in ok_pairs if victim not in (u, v)]
        scalar = sim.route_batch(scheme, ok_pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, ok_pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, ok_pairs)
        assert all(r.found for r in lockstep)


def _all_pairs(n: int):
    return (np.repeat(np.arange(n, dtype=np.int64), n),
            np.tile(np.arange(n, dtype=np.int64), n))


def _assert_outcome_arrays_equal(a, b):
    for field in ("hop_index", "hop_heads", "hop_tails", "found",
                  "final_nodes", "phases", "header_bits"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                      err_msg=field)
    names_a = [a.strategy_names[c] if c >= 0 else "" for c in a.strategy_codes]
    names_b = [b.strategy_names[c] if c >= 0 else "" for c in b.strategy_codes]
    assert names_a == names_b


def _path_program(graph):
    """A program on a path graph: one tree over {2, 3, 4} rooted at 3 plus a
    full shortest-path table; packets try the tree first, then the table."""
    n = graph.n
    tree = Tree(3, {2: 3, 4: 3}, {2: 1.0, 4: 1.0})
    bank = TreeBank(n)
    tree_id = bank.add(tree)
    nodes, dests = np.nonzero(~np.eye(n, dtype=bool))
    table = NextHopTable.from_arrays(n, nodes, dests,
                                     np.where(dests > nodes, nodes + 1, nodes - 1))

    def planner(source: int, destination: int) -> PacketPlan:
        legs = [table_leg(0, strategy="table", phases=1)]
        if tree.contains(destination):
            legs.insert(0, tree_leg(tree_id, destination, strategy="tree",
                                    terminal=True))
        return PacketPlan(legs, "gave-up", 2)

    return ForwardingProgram(graph, planner, bank=bank, tables=[table],
                             label="path"), tree_id


def _chain_program(graph):
    """A program on a path graph whose one tree is the whole path rooted at
    node 0 (slot ``v`` holds node ``v``); every packet takes one terminal
    tree leg to its destination."""
    tree = Tree(0, {v: v - 1 for v in range(1, graph.n)},
                {v: 1.0 for v in range(1, graph.n)})
    bank = TreeBank(graph.n)
    tree_id = bank.add(tree)

    def planner(source: int, destination: int) -> PacketPlan:
        return PacketPlan([tree_leg(tree_id, destination, strategy="tree",
                                    terminal=True)], "gave-up", 0)

    return ForwardingProgram(graph, planner, bank=bank, label="chain")


def _assert_plans_equal(a, b):
    """Two :class:`kernels.BatchPlans` are equal leg for leg."""
    for field in ("num", "leg_kind", "leg_a", "leg_b", "leg_phases",
                  "leg_terminal", "leg_lo", "leg_hi", "out_phases",
                  "literal_nodes"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                      err_msg=field)
    for field in ("leg_strategy", "out_strategy"):
        names_a = [a.strategy_names[c] if c >= 0 else None
                   for c in getattr(a, field).tolist()]
        names_b = [b.strategy_names[c] if c >= 0 else None
                   for c in getattr(b, field).tolist()]
        assert names_a == names_b, field
    assert a.notes_of == b.notes_of


#: batch-planned schemes: case id -> (scheme, k, AGM constants)
PLANNER_CASES = {
    "shortest-path": ("shortest-path", 2, None),
    "cowen": ("cowen", 2, None),
    "agm-experiment-k2": ("agm", 2, AGMParams.experiment()),
    # fires the last-resort fallback hundreds of times on these graphs
    "agm-experiment0.05-k3": ("agm", 3, AGMParams.experiment(0.05)),
    "agm-paper-k2": ("agm", 2, AGMParams.paper()),
    "agm-experiment-k1": ("agm", 1, AGMParams.experiment()),
}


class TestFusedExecutor:
    """Direct checks of the fused cohort executor's own code paths."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", list(PLANNER_CASES))
    def test_batch_planner_matches_per_packet_plans(self, request, family,
                                                    case):
        """A vectorized ``batch_planner`` must emit exactly the plans of
        flattening the scheme's per-packet ``plan()`` calls, leg for leg,
        with the same fallback count, and so the same outcome."""
        scheme_name, k, params = PLANNER_CASES[case]
        graph = request.getfixturevalue(family)
        kwargs = {"params": params} if params is not None else {}
        scheme = build_scheme(scheme_name, graph, k=k, seed=5,
                              oracle=DistanceOracle(graph), **kwargs)
        program = scheme.compiled_forwarding()
        assert program.batch_planner is not None
        per_packet = ForwardingProgram(graph, program.plan, bank=program.bank,
                                       tables=program.tables,
                                       header_bits=program.header_bits,
                                       label=program.label)
        src, dst = _all_pairs(graph.n)

        def fallback_uses():
            return getattr(scheme, "fallback_uses", 0)

        start = fallback_uses()
        batched = program.batch_planner(src, dst)
        batched_uses = fallback_uses() - start
        flattened = kernels.flatten_plans(per_packet, src, dst)
        assert fallback_uses() - start - batched_uses == batched_uses
        if case == "agm-experiment0.05-k3":
            assert batched_uses > 0
        _assert_plans_equal(batched, flattened)

        fast = run_lockstep(program, src, dst)
        slow = run_lockstep(per_packet, src, dst)
        _assert_outcome_arrays_equal(fast, slow)
        assert [r.notes for r in fast.results] == [r.notes for r in slow.results]

    def test_agm_batch_planner_validates_endpoints(self, agm_k2):
        """numpy would wrap a negative index silently; the batch planner
        rejects out-of-range endpoints as ``plan()`` does."""
        program = agm_k2.compiled_forwarding()
        n = agm_k2.graph.n
        with pytest.raises(ValidationError):
            program.plan(-1, 0)
        for src, dst in (([0, -1], [1, 2]), ([n], [0]), ([0], [-1]), ([0], [n])):
            with pytest.raises(ValidationError):
                program.batch_planner(np.asarray(src, dtype=np.int64),
                                      np.asarray(dst, dtype=np.int64))

    @pytest.mark.parametrize("scheme_name", [s for s in SCHEME_NAMES
                                             if s != "shortest-path"])
    def test_descents_match_scalar_walks(self, small_geometric,
                                         geometric_oracle, scheme_name):
        """Tree descents walk the scalar ``route()`` paths, and routing the
        same batch twice through one program gives identical outcomes: no
        state carries from one call to the next."""
        kwargs = {"params": AGMParams.experiment()} if scheme_name == "agm" else {}
        scheme = build_scheme(scheme_name, small_geometric, k=2, seed=5,
                              oracle=geometric_oracle, **kwargs)
        program = scheme.compiled_forwarding()
        src, dst = _all_pairs(small_geometric.n)
        first = run_lockstep(program, src, dst)
        again = run_lockstep(program, src, dst, materialize=False)
        _assert_outcome_arrays_equal(first, again)
        for u, v, walked in zip(src.tolist(), dst.tolist(), first.results):
            expected = scheme.route(u, small_geometric.name_of(v))
            assert walked.path == expected.path
            assert walked.found == expected.found

    @pytest.mark.parametrize("scheme_name", ["agm", "exponential"])
    def test_deep_tree_descents_match_scalar(self, monkeypatch, scheme_name):
        """On a 120-node path every tree is a long chain, so descents run
        tens of hops in one climb from the target; the walks still equal
        the scalar engine's node for node."""
        kwargs = {"params": AGMParams.experiment()} if scheme_name == "agm" else {}
        graph = path_graph(120, seed=7)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle,
                              **kwargs)
        pairs = [(u, v) for u in range(0, graph.n, 11) for v in range(graph.n)]
        longest = []
        tree_cohort = kernels._run_tree_cohort

        def spy(bank, idx, cur, tgt, off, budget, node, record):
            # an ascent records one hop per packet and call; a descent
            # records every hop of a packet's descent in one call
            def counting(hop_idx, heads, tails):
                if hop_idx.size:
                    longest.append(int(np.bincount(hop_idx).max()))
                record(hop_idx, heads, tails)
            return tree_cohort(bank, idx, cur, tgt, off, budget, node, counting)

        monkeypatch.setattr(kernels, "_run_tree_cohort", spy)
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        monkeypatch.undo()
        assert max(longest) >= 40
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        _assert_results_match(scalar, lockstep, pairs)

    def test_tree_walk_over_budget_raises(self, tiny_path):
        """A tree leg longer than its ``2m + 1`` hop cap raises, whether the
        walk only climbs or only descends."""
        program = _chain_program(tiny_path)
        program.bank.sizes = np.ones_like(program.bank.sizes)   # cap: 3 hops
        # climb only, then descend only: 3 hops fit the cap, 5 do not
        fits = run_lockstep(program, [3, 0], [0, 3])
        assert [r.path for r in fits.results] == [[3, 2, 1, 0], [0, 1, 2, 3]]
        for source, target in ((5, 0), (0, 5)):
            with pytest.raises(RuntimeError, match="did not terminate"):
                run_lockstep(program, [source], [target])

    def test_ascent_above_a_root_raises(self, tiny_path):
        """A climb that passes a root (here: a corrupt parent slot cuts the
        chain below the target) raises instead of wrapping around."""
        program = _chain_program(tiny_path)
        bank = program.bank
        bank.parent_slot = bank.parent_slot.copy()
        bank.parent_slot[3] = -1
        with pytest.raises(RuntimeError, match="stepped above a root"):
            run_lockstep(program, [5], [1])

    def test_tree_leg_skipped_outside_its_tree(self, tiny_path):
        """A packet whose node is outside a tree leg's tree skips the leg;
        one already at its target completes the terminal leg at once."""
        program, _ = _path_program(tiny_path)
        outcome = run_lockstep(program, [2, 0, 4, 5], [4, 4, 4, 3])
        paths = [r.path for r in outcome.results]
        strategies = [r.strategy for r in outcome.results]
        phases = [r.phases_used for r in outcome.results]
        assert paths == [[2, 3, 4], [0, 1, 2, 3, 4], [4], [5, 4, 3]]
        assert strategies == ["tree", "table", "tree", "table"]
        assert phases == [0, 1, 0, 1]
        assert outcome.found.all()

    def test_tree_target_outside_its_tree_is_rejected(self, tiny_path):
        graph = tiny_path
        program, tree_id = _path_program(graph)

        def planner(source: int, destination: int) -> PacketPlan:
            return PacketPlan([tree_leg(tree_id, destination)], "gave-up", 0)

        broken = ForwardingProgram(graph, planner, bank=program.bank,
                                   label="broken")
        with pytest.raises(RuntimeError, match="outside its tree"):
            run_lockstep(broken, [3], [0])

    def test_literal_legs_chain_into_a_table_leg(self, tiny_path):
        """Empty literals complete at once, recorded hops replay verbatim,
        and the packet then continues on its next leg."""
        program, _ = _path_program(tiny_path)
        table = program.tables[0]

        def planner(source: int, destination: int) -> PacketPlan:
            return PacketPlan([literal_leg([]), literal_leg([1, 2]),
                               literal_leg([]),
                               table_leg(0, strategy="table", phases=3)],
                              "gave-up", 0)

        chained = ForwardingProgram(tiny_path, planner, tables=[table],
                                    label="chained")
        outcome = run_lockstep(chained, [0, 0], [5, 2])
        walked, stopped = outcome.results
        assert walked.path == [0, 1, 2, 3, 4, 5]
        assert walked.found and walked.strategy == "table"
        assert walked.phases_used == 3
        # the literal already ends at the destination: the table has no
        # (2, 2) entry, the leg misses, and the plan's final metadata applies
        assert stopped.path == [0, 1, 2]
        assert stopped.found and stopped.strategy == "gave-up"
        assert outcome.hop_index.tolist() == [0] * 5 + [1] * 2


class TestReportEngineField:
    def test_as_dict_contains_engine(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        report = sim.evaluate(scheme, num_pairs=25, seed=5, engine="lockstep")
        assert report.as_dict()["engine"] == "lockstep"
        assert report.engine == "lockstep"
