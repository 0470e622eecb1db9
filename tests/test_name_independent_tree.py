"""Tests for Lemma 4: name-independent error-reporting tree routing."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.analysis import lemma4_table_bits
from repro.core.params import AGMParams
from repro.experiments.workloads import make_workload
from repro.factory import build_scheme
from repro.graphs.generators import random_tree_graph
from repro.graphs.shortest_paths import shortest_path_tree
from repro.graphs.trees import Tree
from repro.hashing import universal
from repro.trees.name_independent import NameIndependentTreeRouting
from repro.utils.bitsize import bits_for_count


def build(m=50, k=2, seed=3):
    graph = random_tree_graph(m, seed=seed)
    tree = shortest_path_tree(graph, 0)
    names = {v: graph.name_of(v) for v in tree.nodes}
    return graph, tree, NameIndependentTreeRouting(tree, names, k=k, seed=seed)


@pytest.fixture(scope="module")
def setup_k2():
    return build(m=50, k=2, seed=3)


@pytest.fixture(scope="module")
def setup_k3():
    return build(m=60, k=3, seed=4)


# ---------------------------------------------------------------------- #
# the dict-based construction, kept as the reference for the array layout
# ---------------------------------------------------------------------- #
def reference_tables(tree, names, sigma, digit_hash):
    """Lemma 4's tables built node by node, as dicts.

    Returns ``(primary_name, trie_children, hash_digits, dictionary)``:
    primary names assigned in ``(depth, node)`` order with ``sigma^j`` names
    of each length ``j``; each node's trie children by digit; every node's
    hash digits; and each holder's dictionary (name -> node) of the targets
    with at most one more digit whose hash prefix is the holder's name.
    """
    primary_name, node_of_primary = {}, {}
    index, level, capacity = 0, 0, 1
    for node in tree.nodes_by_depth():
        if index >= capacity:
            level += 1
            capacity = sigma ** level
            index = 0
        digits, value = [0] * level, index
        for pos in range(level - 1, -1, -1):
            digits[pos] = value % sigma
            value //= sigma
        primary_name[node] = tuple(digits)
        node_of_primary[tuple(digits)] = node
        index += 1
    max_digits = max(len(name) for name in primary_name.values())

    trie_children = {v: {} for v in tree.nodes}
    for node, name in primary_name.items():
        if name:
            trie_children[node_of_primary[name[:-1]]][name[-1]] = node

    hash_digits = {v: digit_hash.digits(names[v]) for v in tree.nodes}
    dictionary = {v: {} for v in tree.nodes}
    for target in tree.nodes:
        t_hash = hash_digits[target]
        for j in range(max(len(primary_name[target]) - 1, 0), max_digits + 1):
            holder = node_of_primary.get(t_hash[:j])
            if holder is not None:
                dictionary[holder][names[target]] = target
    return primary_name, trie_children, hash_digits, dictionary


def reference_plan(routing, tables, names, target_name, j_bound):
    """The bounded search's waypoints over the reference dicts."""
    _, trie_children, _, dictionary = tables
    root = routing.tree.root
    target_hash = routing.digit_hash.digits(target_name)
    targets, current = [], root
    for round_no in range(1, j_bound + 1):
        if names[current] == target_name:
            return targets, True, current
        known = dictionary[current].get(target_name)
        if known is not None:
            return targets + [known], True, known
        if round_no == j_bound:
            break
        digit = target_hash[round_no - 1] if round_no - 1 < len(target_hash) else 0
        child = trie_children[current].get(digit)
        if child is None:
            break
        targets.append(child)
        current = child
    if current != root:
        targets.append(root)
    return targets, False, None


def random_tree(m, unit_weights, seed):
    """A random rooted tree on ``m`` nodes; unit weights give many depth ties."""
    rng = np.random.default_rng(seed)
    parent = {v: int(rng.integers(0, v)) for v in range(1, m)}
    weight = {v: 1.0 if unit_weights else float(rng.uniform(1.0, 10.0))
              for v in parent}
    return Tree(root=0, parent=parent, edge_weight=weight)


#: explicit alphabet sizes and tree sizes: 1, 2, sigma, sigma + 1 and a
#: partial deepest level (1 + 3 + 9 full levels, then 5 of 27)
SIGMAS = [None, 1, 3]
SIZES = [1, 2, 3, 4, 18]


class TestArrayLayoutMatchesReference:
    @pytest.mark.parametrize("unit_weights", [True, False])
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_tables_and_searches(self, k, m, sigma, unit_weights):
        seed = 1000 * k + 10 * m + (sigma or 0) + unit_weights
        tree = random_tree(m, unit_weights, seed)
        rng = np.random.default_rng(seed)
        names = {v: int(x) for v, x in zip(tree.nodes, rng.integers(1, 2**60, size=m))}
        routing = NameIndependentTreeRouting(tree, names, k=k, sigma=sigma, seed=seed)
        tables = reference_tables(tree, names, routing.sigma, routing.digit_hash)
        primary_name, trie_children, hash_digits, dictionary = tables

        lengths = [len(primary_name[v]) for v in tree.nodes]
        assert [routing.digits_of(v) for v in tree.nodes] == lengths
        assert routing.name_lengths().tolist() == lengths
        assert routing.max_digits == max(lengths)
        order, order_lengths = routing.trie_layout()
        assert order.tolist() == tree.nodes_by_depth()
        assert order_lengths.tolist() == [len(primary_name[v]) for v in order.tolist()]
        for v in tree.nodes:
            assert routing.trie_children_of(v) == trie_children[v]
            assert routing.dictionary_of(v).tolist() == sorted(dictionary[v].values())

        hash_bits = routing.digit_hash.storage_bits()
        label_bits = routing.compact.max_label_bits()
        digit_bits = bits_for_count(max(routing.sigma - 1, 1))
        expected_bits = [
            hash_bits + routing.compact.table_bits(v)
            + len(trie_children[v]) * (digit_bits + label_bits)
            + len(dictionary[v]) * (routing.name_bits + label_bits)
            for v in tree.nodes]
        assert routing.compact.table_bits_list() == \
            [routing.compact.table_bits(v) for v in tree.nodes]
        assert routing.table_bits_list() == expected_bits
        assert [routing.table_bits(v) for v in tree.nodes] == expected_bits
        assert routing.max_dictionary_entries() == \
            max(len(d) for d in dictionary.values())

        for target_name in list(names.values()) + ["not-a-member"]:
            for j_bound in range(1, routing.max_digits + 2):
                assert routing.plan_search_from_root(target_name, j_bound) == \
                    reference_plan(routing, tables, names, target_name, j_bound)


def test_agm_build_folds_each_graph_name_once(monkeypatch):
    # Lemma 4 trees, Lemma 7 cover trees and the fallback trees all hash
    # member names, and so does the compiled batch planner; the build folds
    # each graph name once and shares it with the compiled program
    calls = Counter()
    fold = universal._fold_name

    def counting_fold(name):
        calls[name] += 1
        return fold(name)

    monkeypatch.setattr(universal, "_fold_name", counting_fold)
    graph = make_workload("barabasi-albert", 72, seed=7)
    scheme = build_scheme("agm", graph, k=4, seed=3, params=AGMParams.paper())
    scheme.compiled_forwarding()
    assert scheme.sparse.trees and scheme.dense.covers
    assert set(calls) <= set(graph.names_view())
    assert max(calls.values()) == 1


def primary_names(routing):
    """Primary names read off the array trie: a child extends its parent's name by its digit."""
    names = {routing.tree.root: ()}
    pending = [routing.tree.root]
    while pending:
        v = pending.pop()
        for digit, child in routing.trie_children_of(v).items():
            names[child] = names[v] + (digit,)
            pending.append(child)
    return names


class TestPrimaryNames:
    def test_root_has_empty_name(self, setup_k2):
        _, tree, routing = setup_k2
        assert primary_names(routing)[tree.root] == ()
        assert routing.trie_layout()[0][0] == tree.root

    def test_names_unique_and_lengths_bounded(self, setup_k2):
        _, tree, routing = setup_k2
        names = primary_names(routing)
        assert len(set(names.values())) == len(names) == tree.size
        assert all(len(name) == routing.digits_of(v) <= routing.max_digits
                   for v, name in names.items())

    def test_closer_nodes_get_shorter_names(self, setup_k2):
        _, tree, routing = setup_k2
        ordered = tree.nodes_by_depth()
        lengths = [routing.digits_of(v) for v in ordered]
        assert lengths == sorted(lengths)

    def test_level_capacity_respected(self, setup_k2):
        _, _, routing = setup_k2
        by_len = Counter(len(p) for p in primary_names(routing).values())
        for length, count in by_len.items():
            if length > 0:
                assert count <= routing.sigma ** length

    def test_digits_of_and_required_bound(self, setup_k2):
        _, tree, routing = setup_k2
        assert routing.digits_of(tree.root) == 0
        deepest = max(tree.nodes, key=lambda v: routing.digits_of(v))
        assert routing.required_bound([deepest]) == routing.digits_of(deepest)
        assert routing.required_bound([]) == 1


class TestSearch:
    def test_unbounded_search_finds_every_node(self, setup_k2):
        graph, tree, routing = setup_k2
        for v in tree.nodes:
            result = routing.search_from_root(graph.name_of(v))
            assert result.found, f"node {v} not found"
            assert result.path[-1] == v
            assert result.destination == v

    def test_search_respects_stretch_bound(self, setup_k2):
        graph, tree, routing = setup_k2
        bound_factor = 2 * routing.max_digits - 1
        for v in tree.nodes:
            if v == tree.root:
                continue
            result = routing.search_from_root(graph.name_of(v))
            assert result.cost <= bound_factor * tree.depth_of(v) + 1e-9

    def test_search_for_missing_name_reports_error_to_root(self, setup_k2):
        _, tree, routing = setup_k2
        result = routing.search_from_root("definitely-not-a-node")
        assert not result.found
        assert result.path[0] == tree.root and result.path[-1] == tree.root

    def test_bounded_search_finds_shallow_nodes(self, setup_k3):
        graph, tree, routing = setup_k3
        shallow = [v for v in tree.nodes if routing.digits_of(v) <= 1]
        for v in shallow:
            result = routing.search_from_root(graph.name_of(v), j_bound=1)
            assert result.found

    def test_bounded_search_misses_deep_nodes_and_returns(self, setup_k3):
        graph, tree, routing = setup_k3
        deep = [v for v in tree.nodes if routing.digits_of(v) >= 2]
        if not deep:
            pytest.skip("tree too small to have deep nodes")
        missed = 0
        for v in deep:
            result = routing.search_from_root(graph.name_of(v), j_bound=1)
            if not result.found:
                missed += 1
                assert result.path[-1] == tree.root
        assert missed == len(deep)

    def test_bounded_search_error_cost_bound(self, setup_k3):
        # Lemma 4 (b): a failed j-bounded search costs at most
        # (2j-2) * max depth of the nodes with < j digits.
        graph, tree, routing = setup_k3
        j = 2
        eligible = [v for v in tree.nodes if routing.digits_of(v) <= j - 1]
        max_depth = max(tree.depth_of(v) for v in eligible)
        deep = [v for v in tree.nodes if routing.digits_of(v) > j]
        for v in deep[:20]:
            result = routing.search_from_root(graph.name_of(v), j_bound=j)
            if not result.found:
                assert result.cost <= (2 * j) * max_depth + 1e-9

    def test_search_walk_uses_tree_edges(self, setup_k2):
        graph, tree, routing = setup_k2
        v = tree.nodes[-1]
        result = routing.search_from_root(graph.name_of(v))
        for a, b in zip(result.path, result.path[1:]):
            if a != b:
                assert tree.parent_of(a) == b or tree.parent_of(b) == a


class TestStorage:
    def test_table_bits_within_lemma4_shape(self, setup_k2):
        _, tree, routing = setup_k2
        bound = lemma4_table_bits(tree.size, routing.k, constant=200.0)
        assert routing.max_table_bits() <= bound

    def test_dictionary_load_reasonable(self, setup_k2):
        _, tree, routing = setup_k2
        limit = routing.sigma * (math.log2(tree.size) + 1) * 4
        assert routing.max_dictionary_entries() <= limit

    def test_budget_contains_expected_fields(self, setup_k2):
        _, tree, routing = setup_k2
        breakdown = routing.table_budget(tree.root).breakdown()
        assert "hash_function" in breakdown
        assert "dictionary" in breakdown
        assert any(key.startswith("mu_") for key in breakdown)

    def test_header_bits_polylogarithmic(self, setup_k2):
        _, tree, routing = setup_k2
        assert routing.header_bits() <= 64 + 20 * (math.log2(tree.size) + 1) ** 2


class TestEdgeCases:
    def test_single_node_tree(self):
        tree = Tree.single_node(0)
        routing = NameIndependentTreeRouting(tree, {0: "only"}, k=2, seed=0)
        result = routing.search_from_root("only")
        assert result.found and result.cost == 0.0
        missing = routing.search_from_root("other")
        assert not missing.found

    def test_duplicate_names_rejected(self):
        graph = random_tree_graph(10, seed=1)
        tree = shortest_path_tree(graph, 0)
        names = {v: "same" for v in tree.nodes}
        with pytest.raises(Exception):
            NameIndependentTreeRouting(tree, names, k=2)

    def test_missing_name_rejected(self):
        graph = random_tree_graph(10, seed=1)
        tree = shortest_path_tree(graph, 0)
        names = {v: graph.name_of(v) for v in tree.nodes if v != tree.nodes[-1]}
        with pytest.raises(Exception):
            NameIndependentTreeRouting(tree, names, k=2)

    def test_contains_name(self, setup_k2):
        graph, tree, routing = setup_k2
        assert routing.contains_name(graph.name_of(tree.root))
        assert not routing.contains_name("nope")
