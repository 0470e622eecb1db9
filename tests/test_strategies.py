"""Tests for the sparse and dense neighborhood routing strategies (§3.1-3.6)."""

import gc

import pytest

from repro.core import dense_strategy
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.dense_strategy import DenseStrategy
from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AGMParams
from repro.core.sparse_strategy import SparseStrategy
from repro.covers.tree_cover import build_tree_cover
from repro.experiments.workloads import make_workload
from repro.factory import build_scheme
from repro.graphs.generators import dumbbell_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.graphs.trees import Tree
from repro.routing.table import TableCollection
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def components(small_geometric, geometric_oracle):
    """Decomposition + landmarks + both strategies on the geometric fixture (k=2)."""
    k = 2
    params = AGMParams.experiment()
    tables = TableCollection(small_geometric.n)
    decomposition = NeighborhoodDecomposition(small_geometric, k,
                                              oracle=geometric_oracle, params=params)
    landmarks = LandmarkHierarchy(small_geometric, k, oracle=geometric_oracle,
                                  decomposition=decomposition, params=params, seed=5)
    sparse = SparseStrategy(small_geometric, k, geometric_oracle, decomposition,
                            landmarks, params, tables, seed=6)
    dense = DenseStrategy(small_geometric, k, geometric_oracle, decomposition,
                          params, tables, seed=7)
    return small_geometric, geometric_oracle, decomposition, landmarks, sparse, dense, tables


class TestSparseStrategy:
    def test_every_sparse_level_has_center_and_bound(self, components):
        graph, _, decomposition, _, sparse, _, _ = components
        for u in range(graph.n):
            for i in range(decomposition.k + 1):
                if decomposition.is_sparse(u, i):
                    assert sparse.is_applicable(u, i)
                    assert 1 <= sparse.bound(u, i)
                    assert sparse.center(u, i) in sparse.trees

    def test_source_is_in_its_center_tree(self, components):
        graph, _, decomposition, _, sparse, _, _ = components
        for u in range(graph.n):
            for i in range(decomposition.k + 1):
                if decomposition.is_sparse(u, i):
                    tree = sparse.tree_of_center(sparse.center(u, i)).tree
                    assert tree.contains(u)

    def test_route_finds_destinations_in_guarantee_ball(self, components):
        graph, oracle, decomposition, _, sparse, _, _ = components
        checked = 0
        for u in range(0, graph.n, 5):
            for i in range(decomposition.k + 1):
                if not decomposition.is_sparse(u, i):
                    continue
                for v in decomposition.e_ball(u, i)[:6]:
                    if v == u:
                        continue
                    walk, cost, found, dest = sparse.route(u, i, graph.name_of(v))
                    checked += 1
                    assert found and dest == v
                    assert walk[0] == u and walk[-1] == v
                    assert cost > 0
        assert checked > 0

    def test_route_miss_returns_to_source(self, components):
        graph, _, decomposition, _, sparse, _, _ = components
        u = 0
        level = next(i for i in range(decomposition.k + 1) if decomposition.is_sparse(u, i))
        walk, cost, found, dest = sparse.route(u, level, "name-that-does-not-exist")
        assert not found and dest is None
        assert walk[0] == u and walk[-1] == u

    def test_route_rejects_dense_level(self, components):
        graph, _, decomposition, _, sparse, _, _ = components
        dense_pairs = [(u, i) for u in range(graph.n) for i in range(decomposition.k + 1)
                       if decomposition.is_dense(u, i)]
        if not dense_pairs:
            pytest.skip("fixture has no dense levels")
        u, i = dense_pairs[0]
        with pytest.raises(Exception):
            sparse.route(u, i, graph.name_of(0))

    def test_storage_charged_to_tables(self, components):
        *_, sparse, _, tables = components
        breakdown = tables.breakdown()
        assert breakdown.get("sparse_tree_tables", 0) > 0
        assert breakdown.get("sparse_level_pointers", 0) > 0


class TestDenseStrategy:
    @pytest.fixture(scope="class")
    def dense_setup(self):
        """A unit-weight grid with k=3 reliably produces non-trivial dense levels
        (ball populations grow steadily, so consecutive ranges stay within the gap)."""
        from repro.graphs.generators import grid_graph

        graph = grid_graph(8, 8, weights="unit", seed=3)
        oracle = DistanceOracle(graph)
        k = 3
        params = AGMParams.experiment()
        tables = TableCollection(graph.n)
        decomposition = NeighborhoodDecomposition(graph, k, oracle=oracle, params=params)
        dense = DenseStrategy(graph, k, oracle, decomposition, params, tables, seed=9)
        return graph, oracle, decomposition, dense, tables

    def test_dense_levels_exist_and_are_applicable(self, dense_setup):
        graph, _, decomposition, dense, _ = dense_setup
        pairs = [(u, i) for u in range(graph.n) for i in range(1, decomposition.k + 1)
                 if decomposition.is_dense(u, i)]
        assert pairs, "grid fixture should produce non-trivial dense levels"
        applicable = [p for p in pairs if dense.is_applicable(*p)]
        assert applicable

    def test_home_tree_contains_source_and_its_root_matches(self, dense_setup):
        graph, _, decomposition, dense, _ = dense_setup
        for u in range(graph.n):
            for i in range(decomposition.k + 1):
                if decomposition.is_dense(u, i) and dense.is_applicable(u, i):
                    routing = dense.home_tree_routing(u, i)
                    assert routing.tree.contains(u)
                    assert dense.root(u, i) == routing.tree.root

    def test_route_finds_destinations_in_f_ball(self, dense_setup):
        graph, _, decomposition, dense, _ = dense_setup
        found_checks = 0
        for u in range(graph.n):
            for i in range(decomposition.k + 1):
                if not (decomposition.is_dense(u, i) and dense.is_applicable(u, i)):
                    continue
                routing = dense.home_tree_routing(u, i)
                for v in decomposition.f_ball(u, i)[:8]:
                    if v == u or not routing.tree.contains(v):
                        continue
                    walk, cost, ok, dest = dense.route(u, i, graph.name_of(v))
                    assert ok and dest == v and walk[-1] == v
                    found_checks += 1
        assert found_checks > 0

    def test_route_miss_returns_to_source(self, dense_setup):
        graph, _, decomposition, dense, _ = dense_setup
        pair = next(((u, i) for u in range(graph.n) for i in range(decomposition.k + 1)
                     if decomposition.is_dense(u, i) and dense.is_applicable(u, i)), None)
        if pair is None:
            pytest.skip("no applicable dense level")
        u, i = pair
        walk, cost, ok, dest = dense.route(u, i, "missing-name")
        assert not ok and walk[0] == u and walk[-1] == u

    def test_storage_charged(self, dense_setup):
        *_, tables = dense_setup
        breakdown = tables.breakdown()
        assert breakdown.get("dense_tree_tables", 0) > 0
        assert breakdown.get("dense_level_pointers", 0) > 0

    def test_lemma2_coverage_via_subgraphs(self, dense_setup):
        """Every node of F(u,i) belongs to the subgraph G_{a(u,i)} the cover is built on."""
        graph, _, decomposition, dense, _ = dense_setup
        members = decomposition.extended_range_members()
        for u in range(graph.n):
            for i in range(decomposition.k + 1):
                if not decomposition.is_dense(u, i):
                    continue
                j = decomposition.range(u, i)
                population = set(members.get(j, []))
                for v in decomposition.f_ball(u, i):
                    assert v in population


class TestGlobalIdCover:
    def test_cover_in_global_ids_is_the_local_cover_mapped(self, small_geometric):
        sub, mapping = small_geometric.subgraph(list(range(0, small_geometric.n, 2)))
        rho = sub.max_weight()
        local = build_tree_cover(sub, 2, rho)
        cover = build_tree_cover(sub, 2, rho, mapping=mapping)
        assert max(tree.size for tree in local.trees) > 1
        assert len(cover.trees) == len(local.trees)
        for tree, ref in zip(cover.trees, local.trees):
            assert tree.root == mapping[ref.root]
            assert tree.nodes == [mapping[v] for v in ref.nodes]
            assert tree.parent_ids().tolist() == \
                [mapping[p] if p >= 0 else -1 for p in ref.parent_ids().tolist()]
            assert tree.radius() == ref.radius()
            # an ascending mapping keeps every DFS order
            assert tree.nodes_by_dfs() == [mapping[v] for v in ref.nodes_by_dfs()]
        assert cover.home == {mapping[v]: index for v, index in local.home.items()}

    def test_mapping_must_ascend(self, small_geometric):
        sub, mapping = small_geometric.subgraph(list(range(0, small_geometric.n, 2)))
        with pytest.raises(ValidationError):
            build_tree_cover(sub, 2, sub.max_weight(), mapping=mapping[::-1])

    def test_dense_build_constructs_one_tree_per_cover_tree(self, monkeypatch):
        # every Tree the build makes stays reachable from the scheme or from
        # the covers captured here, so the live count is the number built
        covers = []

        def capture(*args, **kwargs):
            covers.append(build_tree_cover(*args, **kwargs))
            return covers[-1]

        def live_trees() -> int:
            gc.collect()
            return sum(isinstance(obj, Tree) for obj in gc.get_objects())

        monkeypatch.setattr(dense_strategy, "build_tree_cover", capture)
        before = live_trees()
        scheme = build_scheme("agm", make_workload("barabasi-albert", 72, seed=7),
                              k=4, seed=3, params=AGMParams.paper())
        cover_trees = sum(len(cover.trees) for cover in covers)
        assert cover_trees > 0
        assert live_trees() - before == \
            len(scheme.sparse.trees) + cover_trees + len(scheme._fallback)
        routing_trees = [routing.tree for routings in scheme.dense.covers.values()
                         for routing in routings]
        assert {id(t) for t in routing_trees} == \
            {id(t) for cover in covers for t in cover.trees}
