"""Tests for Lemma 5: compact labeled tree routing (b-heavy-child scheme)."""

import itertools
import math

import pytest

from repro.core.analysis import lemma5_label_bits, lemma5_table_bits
from repro.graphs.generators import caterpillar_tree, random_tree_graph, star_graph
from repro.graphs.shortest_paths import shortest_path_tree
from repro.graphs.trees import Tree
from repro.trees.compact_labeled import CompactTreeRouting


def tree_from_graph(graph, root=0):
    return shortest_path_tree(graph, root)


@pytest.fixture(scope="module", params=[1, 2, 3])
def k(request):
    return request.param


@pytest.fixture(scope="module")
def random_tree():
    return tree_from_graph(random_tree_graph(60, seed=9))


class TestCorrectness:
    def test_routes_optimally_on_random_tree(self, random_tree, k):
        routing = CompactTreeRouting(random_tree, k=k)
        nodes = random_tree.nodes
        for s, t in itertools.islice(itertools.product(nodes[::7], nodes[::5]), 60):
            path, cost = routing.walk(s, t)
            assert path[0] == s and path[-1] == t
            assert cost == pytest.approx(random_tree.tree_distance(s, t))

    def test_routes_on_star_and_caterpillar(self, k):
        for graph in (star_graph(20, seed=1), caterpillar_tree(6, 3, seed=1)):
            tree = tree_from_graph(graph)
            routing = CompactTreeRouting(tree, k=k)
            for t in tree.nodes[::3]:
                path, cost = routing.walk(tree.root, t)
                assert path[-1] == t
                assert cost == pytest.approx(tree.depth_of(t))

    def test_next_hop_at_destination_is_none(self, random_tree):
        routing = CompactTreeRouting(random_tree, k=2)
        v = random_tree.nodes[5]
        assert routing.next_hop(v, routing.label_of(v)) is None

    def test_walk_follows_tree_edges_only(self, random_tree):
        routing = CompactTreeRouting(random_tree, k=2)
        s, t = random_tree.nodes[1], random_tree.nodes[-1]
        path, _ = routing.walk(s, t)
        for a, b in zip(path, path[1:]):
            assert random_tree.parent_of(a) == b or random_tree.parent_of(b) == a

    def test_single_node_tree(self):
        routing = CompactTreeRouting(Tree.single_node(4), k=2)
        path, cost = routing.walk(4, 4)
        assert path == [4] and cost == 0.0

    def test_rejects_bad_k(self, random_tree):
        with pytest.raises(Exception):
            CompactTreeRouting(random_tree, k=0)


class TestStructure:
    def test_heavy_children_bounded_by_b(self, random_tree, k):
        routing = CompactTreeRouting(random_tree, k=k)
        for v in random_tree.nodes:
            assert len(routing.heavy_children_of(v)) <= routing.b

    def test_light_edges_bounded_by_k(self, random_tree, k):
        routing = CompactTreeRouting(random_tree, k=k)
        assert routing.max_light_edges() <= k

    def test_label_of_root_has_no_light_edges(self, random_tree):
        routing = CompactTreeRouting(random_tree, k=2)
        assert routing.label_of(random_tree.root).light_edges == ()

    def test_labels_unique(self, random_tree):
        routing = CompactTreeRouting(random_tree, k=2)
        labels = {routing.label_of(v).dfs_in for v in random_tree.nodes}
        assert len(labels) == random_tree.size


class TestBounds:
    def test_table_bits_within_lemma5_bound(self, random_tree, k):
        routing = CompactTreeRouting(random_tree, k=k)
        m = random_tree.size
        bound = lemma5_table_bits(m, k, constant=16.0)
        assert routing.max_table_bits() <= bound

    def test_label_bits_within_lemma5_bound(self, random_tree, k):
        routing = CompactTreeRouting(random_tree, k=k)
        m = random_tree.size
        bound = lemma5_label_bits(m, k, constant=8.0)
        assert routing.max_label_bits() <= bound

    def test_star_center_table_stays_compact_for_k1_vs_k3(self):
        # For a star, k=1 keeps all children heavy; larger k cannot increase tables.
        tree = tree_from_graph(star_graph(64, seed=2))
        t1 = CompactTreeRouting(tree, k=1).max_table_bits()
        t3 = CompactTreeRouting(tree, k=3).max_table_bits()
        assert t3 <= t1

    def test_header_bits_equals_max_label(self, random_tree):
        routing = CompactTreeRouting(random_tree, k=2)
        assert routing.header_bits() == routing.max_label_bits()
