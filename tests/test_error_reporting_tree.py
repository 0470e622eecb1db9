"""Tests for Lemma 7: dictionary tree routing with O(rad) lookups."""

import pytest

from repro.core.analysis import lemma7_route_bound
from repro.graphs.generators import random_tree_graph
from repro.graphs.shortest_paths import shortest_path_tree
from repro.graphs.trees import Tree
from repro.trees.error_reporting import DictionaryTreeRouting


@pytest.fixture(scope="module")
def setup():
    graph = random_tree_graph(45, seed=6)
    tree = shortest_path_tree(graph, 0)
    names = {v: graph.name_of(v) for v in tree.nodes}
    return graph, tree, DictionaryTreeRouting(tree, names, seed=6)


class TestDictionary:
    def test_every_name_has_a_responsible_node(self, setup):
        graph, tree, routing = setup
        for v in tree.nodes:
            responsible = routing.responsible_node(graph.name_of(v))
            assert tree.contains(responsible)
            assert graph.name_of(v) in routing.buckets[responsible]

    def test_bucket_entries_total_m(self, setup):
        _, tree, routing = setup
        assert sum(len(b) for b in routing.buckets.values()) == tree.size

    def test_bucket_load_balanced(self, setup):
        _, tree, routing = setup
        # expected load 1; w.h.p. O(log m / log log m)
        assert routing.max_bucket_entries() <= 10

    def test_contains_name(self, setup):
        graph, tree, routing = setup
        assert routing.contains_name(graph.name_of(tree.nodes[1]))
        assert not routing.contains_name("ghost")


class TestLookup:
    def test_lookup_finds_every_node_from_every_fifth_source(self, setup):
        graph, tree, routing = setup
        for source in tree.nodes[::5]:
            for target in tree.nodes[::7]:
                result = routing.lookup(source, graph.name_of(target))
                assert result.found
                assert result.path[0] == source and result.path[-1] == target
                assert result.destination == target

    def test_lookup_cost_within_lemma7_bound(self, setup):
        graph, tree, routing = setup
        bound = lemma7_route_bound(tree.radius(), tree.max_edge(), k=2)
        for source in tree.nodes[::4]:
            for target in tree.nodes[::6]:
                result = routing.lookup(source, graph.name_of(target))
                assert result.cost <= bound + 1e-9

    def test_miss_reports_back_to_source(self, setup):
        _, tree, routing = setup
        for source in tree.nodes[::6]:
            result = routing.lookup(source, "not-in-this-tree")
            assert not result.found
            assert result.path[0] == source and result.path[-1] == source
            bound = lemma7_route_bound(tree.radius(), tree.max_edge(), k=2)
            assert result.cost <= bound + 1e-9

    def test_lookup_from_root_alias(self, setup):
        graph, tree, routing = setup
        target = tree.nodes[-1]
        result = routing.lookup_from_root(graph.name_of(target))
        assert result.found and result.path[0] == tree.root

    def test_lookup_walk_uses_tree_edges(self, setup):
        graph, tree, routing = setup
        result = routing.lookup(tree.nodes[2], graph.name_of(tree.nodes[-2]))
        for a, b in zip(result.path, result.path[1:]):
            if a != b:
                assert tree.parent_of(a) == b or tree.parent_of(b) == a

    def test_lookup_self(self, setup):
        graph, tree, routing = setup
        v = tree.nodes[3]
        result = routing.lookup(v, graph.name_of(v))
        assert result.found and result.path[-1] == v

    def test_invalid_source_rejected(self, setup):
        graph, _, routing = setup
        with pytest.raises(Exception):
            routing.lookup(10**6, graph.name_of(0))


class TestStorage:
    def test_table_bits_positive_and_bounded(self, setup):
        _, tree, routing = setup
        for v in tree.nodes:
            bits = routing.table_bits(v)
            assert bits > 0
            # interval table + hash + a handful of bucket entries
            degree = len(tree.children_of(v)) + 1
            assert bits <= 4000 + degree * 64

    def test_budget_fields(self, setup):
        _, tree, routing = setup
        breakdown = routing.table_budget(tree.root).breakdown()
        assert "bucket_hash" in breakdown
        assert "bucket_entries" in breakdown
        assert any(key.startswith("interval_") for key in breakdown)

    def test_header_bits_small(self, setup):
        _, _, routing = setup
        assert routing.header_bits() <= 200


class TestEdgeCases:
    def test_single_node_tree(self):
        tree = Tree.single_node(9)
        routing = DictionaryTreeRouting(tree, {9: "solo"}, seed=1)
        hit = routing.lookup(9, "solo")
        assert hit.found and hit.cost == 0.0
        miss = routing.lookup(9, "other")
        assert not miss.found and miss.path == [9]

    def test_duplicate_names_rejected(self):
        graph = random_tree_graph(8, seed=2)
        tree = shortest_path_tree(graph, 0)
        with pytest.raises(Exception):
            DictionaryTreeRouting(tree, {v: "dup" for v in tree.nodes})
