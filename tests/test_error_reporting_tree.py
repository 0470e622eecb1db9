"""Tests for Lemma 7: dictionary tree routing with O(rad) lookups."""

import pytest

from repro.core.analysis import lemma7_route_bound
from repro.covers.tree_cover import build_tree_cover
from repro.graphs.generators import random_geometric_graph, random_tree_graph
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.graphs.trees import Tree
from repro.hashing.universal import BucketHash, fold_names
from repro.trees import error_reporting
from repro.trees.error_reporting import DictionaryFamily
from repro.trees.interval_routing import IntervalTreeRouting

#: names no graph node carries
ABSENT = ["ghost", ("ghost", 1), -1, 2**70]


def reference_buckets(tree, names, seed):
    """The dict-based bucket construction: responsible node -> {name: DFS label}.

    Every member's name goes to the node whose DFS index is the name's
    bucket; the family arrays must hold exactly these entries.
    """
    bucket_hash = BucketHash(tree.size, seed=seed)
    order = tree.node_of_slot.tolist()
    buckets = {v: {} for v in tree.nodes}
    for v, label in zip(tree.nodes, tree.dfs_in.tolist()):
        buckets[order[bucket_hash.bucket(names[v])]][names[v]] = label
    return bucket_hash, buckets


def reference_lookup(tree, bucket_hash, buckets, source, name):
    """``(path, cost, found, destination)``: source -> root -> responsible -> target or back."""
    interval = IntervalTreeRouting(tree)
    path, cost = [source], 0.0

    def walk(label):
        nonlocal cost
        seg, seg_cost = interval.walk(path[-1], label)
        path.extend(seg[1:])
        cost += seg_cost

    walk(0)
    responsible = int(tree.node_of_slot[bucket_hash.bucket(name)])
    walk(interval.label_of(responsible))
    entry = buckets[responsible].get(name)
    if entry is None:
        walk(interval.label_of(source))
        return path, cost, False, None
    walk(entry)
    return path, cost, True, interval.node_with_label(entry)


@pytest.fixture(scope="module")
def setup():
    graph = random_tree_graph(45, seed=6)
    tree = shortest_path_tree(graph, 0)
    names = {v: graph.name_of(v) for v in tree.nodes}
    return graph, tree, DictionaryFamily([tree], names, [6]).routings[0]


@pytest.fixture(scope="module", params=["folded", "unfolded"])
def cover_family(request):
    """Overlapping cover trees of one graph as one family, seeds 100, 101, ..."""
    graph = random_geometric_graph(40, seed=12)
    oracle = DistanceOracle(graph)
    cover = build_tree_cover(graph, 2, oracle.min_positive_distance() * 4,
                             oracle=oracle)
    assert len(cover.trees) > 1
    folded = fold_names(graph.names_view()) if request.param == "folded" else None
    family = DictionaryFamily(cover.trees, graph.names_view(),
                              range(100, 100 + len(cover.trees)), folded=folded)
    return graph, family


class TestFamilyMatchesReference:
    """The family CSR equals the per-tree dict construction it replaced."""

    def test_bucket_membership(self, cover_family):
        graph, family = cover_family
        names = graph.names_view()
        for t, routing in enumerate(family.routings):
            tree = routing.tree
            _, buckets = reference_buckets(tree, names, 100 + t)
            for v in tree.nodes:
                held = {names[x]: tree.slot(x) for x in routing.dictionary_of(v).tolist()}
                assert held == buckets[v]

    def test_contains_name_and_max_bucket(self, cover_family):
        graph, family = cover_family
        names = graph.names_view()
        for t, routing in enumerate(family.routings):
            _, buckets = reference_buckets(routing.tree, names, 100 + t)
            stored = {name for bucket in buckets.values() for name in bucket}
            for name in list(names) + ABSENT:
                assert routing.contains_name(name) == (name in stored)
            assert routing.max_bucket_entries() == max(len(b) for b in buckets.values())

    def test_every_lookup_walk(self, cover_family):
        graph, family = cover_family
        names = graph.names_view()
        for t, routing in enumerate(family.routings):
            tree = routing.tree
            bucket_hash, buckets = reference_buckets(tree, names, 100 + t)
            for source in tree.nodes:
                for name in list(names) + ABSENT:
                    path, cost, found, destination = reference_lookup(
                        tree, bucket_hash, buckets, source, name)
                    result = routing.lookup(source, name)
                    assert (result.path, result.found, result.destination) \
                        == (path, found, destination)
                    assert result.cost == cost
                    targets, hit, at = routing.plan_lookup(source, name)
                    assert (targets[-1], hit, at) == (path[-1], found, destination)

    def test_table_bits_match_per_node_budgets(self, cover_family):
        _, family = cover_family
        nodes, bits = family.table_bits()
        start = 0
        for routing in family.routings:
            expected = [routing.table_budget(v).total() for v in routing.tree.nodes]
            assert routing.table_bits_list() == expected
            assert nodes[start:start + routing.m].tolist() == routing.tree.nodes
            assert bits[start:start + routing.m].tolist() == expected
            start += routing.m


class TestFoldCollisions:
    def test_names_sharing_a_fold_stay_apart(self, monkeypatch):
        graph = random_tree_graph(12, seed=3)
        tree = shortest_path_tree(graph, 0)
        names = {v: f"node-{v}" for v in tree.nodes}
        # every name, and one absent name, folds to the same value
        monkeypatch.setattr(error_reporting, "_fold_name", lambda name: 12345)
        folded = [12345] * (max(tree.nodes) + 1)
        routing = DictionaryFamily([tree], names, [4], folded=folded).routings[0]
        assert routing.max_bucket_entries() == tree.size
        for source in tree.nodes[::3]:
            for v in tree.nodes:
                result = routing.lookup(source, names[v])
                assert result.found and result.destination == v
        assert not routing.contains_name("node-absent")
        assert not routing.lookup(tree.root, "node-absent").found


class TestDictionary:
    def test_every_name_has_a_responsible_node(self, setup):
        graph, tree, routing = setup
        for v in tree.nodes:
            responsible = routing.responsible_node(graph.name_of(v))
            assert tree.contains(responsible)
            assert v in routing.dictionary_of(responsible).tolist()

    def test_bucket_entries_total_m(self, setup):
        _, tree, routing = setup
        assert sum(routing.dictionary_of(v).size for v in tree.nodes) == tree.size

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
        routing = DictionaryFamily([tree], {9: "solo"}, [1]).routings[0]
        hit = routing.lookup(9, "solo")
        assert hit.found and hit.cost == 0.0
        miss = routing.lookup(9, "other")
        assert not miss.found and miss.path == [9]

    def test_duplicate_names_rejected(self):
        graph = random_tree_graph(8, seed=2)
        tree = shortest_path_tree(graph, 0)
        with pytest.raises(Exception):
            DictionaryFamily([tree], {v: "dup" for v in tree.nodes}, [0])

    def test_missing_name_rejected(self):
        graph = random_tree_graph(8, seed=2)
        tree = shortest_path_tree(graph, 0)
        with pytest.raises(Exception):
            DictionaryFamily([tree], {v: v for v in tree.nodes[1:]}, [0])

    def test_empty_family(self):
        family = DictionaryFamily([], (), [])
        assert family.routings == []
        nodes, bits = family.table_bits()
        assert nodes.size == 0 and bits.size == 0
