"""Tests for DFS-interval tree routing."""

import itertools

import numpy as np
import pytest

from repro.graphs.shortest_paths import shortest_path_tree
from repro.graphs.trees import Tree
from repro.trees.interval_routing import IntervalTreeRouting


@pytest.fixture(scope="module")
def routing(geometric_spt):
    return IntervalTreeRouting(geometric_spt)


class TestLabels:
    def test_labels_are_dfs_numbers(self, routing, geometric_spt):
        labels = {routing.label_of(v) for v in geometric_spt.nodes}
        assert labels == set(range(geometric_spt.size))

    def test_node_with_label_inverts(self, routing, geometric_spt):
        for v in geometric_spt.nodes[:10]:
            assert routing.node_with_label(routing.label_of(v)) == v

    def test_label_bits_logarithmic(self, routing, geometric_spt):
        assert routing.label_bits() <= max(geometric_spt.size.bit_length(), 1)

    def test_unknown_node_rejected(self, routing):
        with pytest.raises(Exception):
            routing.label_of(10**6)
        with pytest.raises(Exception):
            routing.node_with_label(10**6)


class TestRouting:
    def test_walk_reaches_target_with_exact_tree_cost(self, routing, geometric_spt):
        nodes = geometric_spt.nodes
        pairs = list(itertools.islice(itertools.product(nodes[:8], nodes[-8:]), 40))
        for s, t in pairs:
            path, cost = routing.walk(s, routing.label_of(t))
            assert path[0] == s and path[-1] == t
            assert cost == pytest.approx(geometric_spt.tree_distance(s, t))

    def test_walk_to_self_is_trivial(self, routing, geometric_spt):
        v = geometric_spt.nodes[3]
        path, cost = routing.walk(v, routing.label_of(v))
        assert path == [v] and cost == 0.0

    def test_next_hop_none_at_destination(self, routing, geometric_spt):
        v = geometric_spt.nodes[0]
        assert routing.next_hop(v, routing.label_of(v)) is None

    def test_next_hop_follows_tree_path(self, routing, geometric_spt):
        s, t = geometric_spt.nodes[1], geometric_spt.nodes[-1]
        expected = geometric_spt.path(s, t)
        nxt = routing.next_hop(s, routing.label_of(t))
        if len(expected) > 1:
            assert nxt == expected[1]

    def test_path_follows_only_tree_edges(self, routing, geometric_spt):
        s, t = geometric_spt.nodes[2], geometric_spt.nodes[-3]
        path, _ = routing.walk(s, routing.label_of(t))
        for a, b in zip(path, path[1:]):
            assert geometric_spt.parent_of(a) == b or geometric_spt.parent_of(b) == a


class TestStorage:
    def test_table_bits_scale_with_degree(self, routing, geometric_spt):
        for v in geometric_spt.nodes:
            bits = routing.table_bits(v)
            degree = len(geometric_spt.children_of(v)) + (0 if v == geometric_spt.root else 1)
            assert bits >= degree  # at least one bit per incident tree edge
            assert bits <= (degree + 1) * 3 * max(geometric_spt.size.bit_length(), 1) + 64

    def test_budget_breakdown_fields(self, routing, geometric_spt):
        root_budget = routing.table_budget(geometric_spt.root).breakdown()
        assert "own_interval" in root_budget
        assert "parent_port" not in root_budget
        leaf = next(v for v in geometric_spt.nodes if not geometric_spt.children_of(v))
        leaf_budget = routing.table_budget(leaf).breakdown()
        assert leaf_budget["child_intervals"] == 0
        assert "parent_port" in leaf_budget

    def test_table_bits_list_matches_table_bits(self, routing, geometric_spt):
        assert routing.table_bits_list() == \
            [routing.table_bits(v) for v in geometric_spt.nodes]

    def test_slot_table_bits_of_trees_laid_end_to_end(self, geometric_spt, tiny_path):
        trees = [geometric_spt, Tree.single_node(0), shortest_path_tree(tiny_path, 2)]
        bits = IntervalTreeRouting.slot_table_bits(
            np.concatenate([tree.parent_local for tree in trees]),
            [tree.size for tree in trees])
        expected = []
        for tree in trees:
            routing = IntervalTreeRouting(tree)
            expected += [routing.table_bits(int(v)) for v in tree.node_of_slot]
        assert bits.tolist() == expected


class TestSmallTrees:
    def test_single_node_tree(self):
        tree = Tree.single_node(0)
        routing = IntervalTreeRouting(tree)
        path, cost = routing.walk(0, routing.label_of(0))
        assert path == [0] and cost == 0.0

    def test_path_tree(self, tiny_path):
        tree = shortest_path_tree(tiny_path, 0)
        routing = IntervalTreeRouting(tree)
        path, cost = routing.walk(0, routing.label_of(5))
        assert path == [0, 1, 2, 3, 4, 5]
