"""Unit tests for the rooted Tree structure and ``build_forest``.

``build_forest`` computes every tree's DFS slots and depths in one
level-synchronous array pass.  The reference below is the per-node dict DFS
it replaced; the forest must reproduce its slots exactly and its depths bit
for bit, because both use the same float operation (parent depth plus edge
weight).
"""

import random
from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.construction.context import BuildContext, SPTJob
from repro.graphs.generators import random_geometric_graph
from repro.graphs.trees import Tree, build_forest
from repro.utils.validation import ValidationError


def reference_layout(root: int, parent: Dict[int, int], weight: Dict[int, float]
                     ) -> Tuple[List[int], List[int], List[int], Dict[int, float]]:
    """Dict DFS: ``(node_of_slot, dfs_out, parent_local, depth)``.

    Preorder with children in ascending id; depths accumulate parent depth
    plus edge weight down the tree.
    """
    nodes = sorted(set(parent) | set(parent.values()) | {root})
    children: Dict[int, List[int]] = {v: [] for v in nodes}
    for child, par in parent.items():
        children[par].append(child)
    for kids in children.values():
        kids.sort()
    depth = {root: 0.0}
    stack = [root]
    while stack:
        u = stack.pop()
        for c in children[u]:
            depth[c] = depth[u] + weight[c]
            stack.append(c)
    dfs_in: Dict[int, int] = {}
    dfs_out: Dict[int, int] = {}
    node_of_slot: List[int] = []
    stack2 = [(root, False)]
    while stack2:
        node, processed = stack2.pop()
        if processed:
            last = dfs_in[node]
            for c in children[node]:
                last = max(last, dfs_out[c])
            dfs_out[node] = last
        else:
            dfs_in[node] = len(node_of_slot)
            node_of_slot.append(node)
            stack2.append((node, True))
            for c in reversed(children[node]):
                stack2.append((c, False))
    parent_local = [dfs_in[parent[v]] if v in parent else -1 for v in node_of_slot]
    return (node_of_slot, [dfs_out[v] for v in node_of_slot], parent_local, depth)


def assert_matches_reference(tree: Tree, root: int, parent: Dict[int, int],
                             weight: Dict[int, float]) -> None:
    node_of_slot, dfs_out, parent_local, depth = reference_layout(root, parent, weight)
    assert tree.root == root
    assert tree.nodes == sorted(depth)
    assert tree.node_of_slot.tolist() == node_of_slot
    assert tree.dfs_out.tolist() == dfs_out
    assert tree.parent_local.tolist() == parent_local
    # bit-equal, not approximately equal
    assert tree.depth.tolist() == [depth[v] for v in tree.nodes]
    assert [node_of_slot[s] for s in tree.dfs_in.tolist()] == tree.nodes
    assert_hop_depth_counts_edges(tree)


def assert_hop_depth_counts_edges(tree: Tree) -> None:
    """``hop_depth`` is 0 exactly at the root and the parent's plus one at
    every other slot."""
    up = tree.parent_local
    linked = up >= 0
    assert tree.hop_depth.dtype == np.int32
    assert (tree.hop_depth == 0).tolist() == (~linked).tolist()
    assert (tree.hop_depth[linked] == tree.hop_depth[up[linked]] + 1).all()


def random_tree_dicts(rng: random.Random, size: int
                      ) -> Tuple[int, Dict[int, int], Dict[int, float]]:
    """A random tree over shuffled sparse ids with random weights."""
    ids = rng.sample(range(10 * size + 5), size)
    parent: Dict[int, int] = {}
    weight: Dict[int, float] = {}
    for i in range(1, size):
        parent[ids[i]] = ids[rng.randrange(i)]
        weight[ids[i]] = rng.choice([1.0, 0.5, 3.0, rng.uniform(1e-3, 10.0)])
    return ids[0], parent, weight


def forest_of(trees: List[Tuple[int, Dict[int, int], Dict[int, float]]]) -> List[Tree]:
    """One build_forest call over dict-described trees."""
    rows = []
    for t, (root, parent, weight) in enumerate(trees):
        nodes = sorted(set(parent) | set(parent.values()) | {root})
        rows += [(t, v, parent.get(v, -1), weight.get(v, 0.0)) for v in nodes]
    tree, node, par, w = (list(col) for col in zip(*rows))
    return build_forest([root for root, _, _ in trees], tree, node, par, w)


@pytest.fixture()
def sample_tree() -> Tree:
    #        0
    #      /   \
    #     1     2
    #    / \     \
    #   3   4     5
    parent = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
    weights = {1: 1.0, 2: 2.0, 3: 1.5, 4: 0.5, 5: 3.0}
    return Tree(root=0, parent=parent, edge_weight=weights)


class TestBuildForest:
    def test_single_node(self):
        assert_matches_reference(Tree.single_node(7), 7, {}, {})

    def test_long_path(self):
        # one level per node: the deepest level loop
        size = 500
        parent = {v: v - 1 for v in range(1, size)}
        weight = {v: 0.1 * (v % 7 + 1) for v in range(1, size)}
        tree = Tree(0, parent, weight)
        assert_matches_reference(tree, 0, parent, weight)
        assert tree.dfs_out[0] == size - 1
        assert tree.hop_depth.tolist() == list(range(size))

    def test_star(self):
        parent = {v: 50 for v in range(100) if v != 50}
        weight = {v: 1.0 + v for v in parent}
        assert_matches_reference(Tree(50, parent, weight), 50, parent, weight)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        root, parent, weight = random_tree_dicts(rng, rng.randint(2, 300))
        assert_matches_reference(Tree(root, parent, weight), root, parent, weight)

    def test_one_chunk_of_mixed_sizes(self):
        rng = random.Random(11)
        specs = [random_tree_dicts(rng, size)
                 for size in [1, 400, 2, 1, 37, 3, 250, 1, 5, 120]]
        trees = forest_of(specs)
        assert len(trees) == len(specs)
        for tree, (root, parent, weight) in zip(trees, specs):
            assert_matches_reference(tree, root, parent, weight)

    def test_pruned_member_sets(self):
        graph = random_geometric_graph(120, seed=4)
        csr = graph.to_scipy_csr()
        rng = random.Random(5)
        jobs = [SPTJob(root, sorted(rng.sample(range(graph.n), count)))
                for root, count in [(0, 1), (3, 10), (17, 40), (60, 120)]]
        trees = BuildContext(graph).spt_trees(jobs)
        for job, tree in zip(jobs, trees):
            dist, pred = dijkstra(csr, directed=False, indices=job.root,
                                  return_predecessors=True)
            kept = {job.root}
            for v in job.members:
                while np.isfinite(dist[v]) and v not in kept:
                    kept.add(v)
                    v = int(pred[v])
            parent = {v: int(pred[v]) for v in kept if v != job.root}
            weight = {v: graph.edge_weight(p, v) for v, p in parent.items()}
            assert_matches_reference(tree, job.root, parent, weight)

    def test_hop_depth_on_every_tree_of_a_forest(self):
        """Each view's ``hop_depth`` counts edges from its own root, in a
        forest whose trees sit at different row offsets."""
        rng = random.Random(13)
        trees = forest_of([random_tree_dicts(rng, size)
                           for size in (1, 60, 3, 200, 2)])
        for tree in trees:
            assert_hop_depth_counts_edges(tree)
        assert trees[3].hop_depth.max() > 1

    def test_views_share_the_chunk_arrays(self):
        rng = random.Random(2)
        trees = forest_of([random_tree_dicts(rng, size) for size in (4, 9)])
        first, second = trees[0].node_of_slot, trees[1].node_of_slot
        assert first.base is not None and first.base is second.base
        assert second.size == 9

    def test_empty_forest(self):
        assert build_forest([], [], [], [], []) == []


class TestConstruction:
    def test_size_and_nodes(self, sample_tree):
        assert sample_tree.size == 6
        assert sample_tree.nodes == [0, 1, 2, 3, 4, 5]
        assert len(sample_tree) == 6

    def test_single_node(self):
        t = Tree.single_node(7)
        assert t.size == 1 and t.root == 7 and t.radius() == 0.0 and t.max_edge() == 0.0

    def test_root_cannot_have_parent(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={0: 1, 1: 0}, edge_weight={0: 1.0, 1: 1.0})
        with pytest.raises(ValidationError):
            build_forest([0], [0, 0], [0, 1], [1, 0], [1.0, 1.0])

    def test_missing_weight_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 0}, edge_weight={})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 0}, edge_weight={1: 0.0})
        with pytest.raises(ValidationError):
            build_forest([0], [0, 0], [0, 1], [-1, 0], [0.0, -2.0])

    def test_disconnected_parent_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={2: 9}, edge_weight={2: 1.0})

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 0, 2: 3, 3: 2}, edge_weight={1: 1.0, 2: 1.0, 3: 1.0})

    def test_parent_outside_its_tree_rejected(self):
        # node 1 of tree 0 names node 2, which only tree 1 holds
        with pytest.raises(ValidationError):
            build_forest([0, 2], [0, 0, 1], [0, 1, 2], [-1, 2, -1], [0.0, 1.0, 0.0])

    def test_unsorted_rows_rejected(self):
        with pytest.raises(ValidationError):
            build_forest([0], [0, 0, 0], [0, 2, 1], [-1, 0, 0], [0.0, 1.0, 1.0])

    def test_from_parent_list(self):
        t = Tree.from_parent_list(0, parents=[-1, 0, 1], weights=[0, 2.0, 3.0])
        assert t.size == 3 and t.depth_of(2) == pytest.approx(5.0)


class TestStructure:
    def test_depths(self, sample_tree):
        assert sample_tree.depth_of(0) == 0.0
        assert sample_tree.depth_of(3) == pytest.approx(2.5)
        assert sample_tree.depth_of(5) == pytest.approx(5.0)

    def test_dfs_intervals_nested(self, sample_tree):
        t = sample_tree
        for v in t.nodes:
            assert t.slot(v) <= t.dfs_out[t.slot(v)]
            for c in t.children_of(v):
                assert t.slot(v) < t.slot(c) <= t.dfs_out[t.slot(c)] <= t.dfs_out[t.slot(v)]
        assert sorted(t.dfs_in.tolist()) == list(range(6))

    def test_parents_and_children(self, sample_tree):
        assert sample_tree.parent_of(0) == -1
        assert sample_tree.parent_of(4) == 1
        assert sample_tree.children_of(1) == [3, 4]
        assert sample_tree.parent_ids().tolist() == [-1, 0, 0, 1, 1, 2]

    def test_radius_and_max_edge(self, sample_tree):
        assert sample_tree.radius() == pytest.approx(5.0)
        assert sample_tree.max_edge() == pytest.approx(3.0)

    def test_edge_weight(self, sample_tree):
        assert sample_tree.edge_weight(3, 1) == 1.5
        assert sample_tree.edge_weight(1, 3) == 1.5
        with pytest.raises(ValidationError):
            sample_tree.edge_weight(3, 4)

    def test_orderings(self, sample_tree):
        by_depth = sample_tree.nodes_by_depth()
        assert by_depth[0] == 0
        depths = [sample_tree.depth_of(v) for v in by_depth]
        assert depths == sorted(depths)
        by_dfs = sample_tree.nodes_by_dfs()
        assert by_dfs[0] == 0

    def test_ancestry(self, sample_tree):
        t = sample_tree
        assert t.is_ancestor(0, 5) and t.is_ancestor(1, 4) and t.is_ancestor(3, 3)
        assert not t.is_ancestor(1, 5)
        assert t.child_toward(0, 4) == 1
        assert t.child_toward(1, 1) is None
        assert t.child_toward(2, 3) is None

    def test_contains(self, sample_tree):
        assert sample_tree.contains(3) and not sample_tree.contains(42)
        assert sample_tree.positions([3, 42, 0]).tolist() == [3, -1, 0]


class TestPaths:
    def test_path_to_root(self, sample_tree):
        assert sample_tree.path_to_root(3) == [3, 1, 0]
        assert sample_tree.path_to_root(0) == [0]

    def test_lca(self, sample_tree):
        assert sample_tree.lca(3, 4) == 1
        assert sample_tree.lca(3, 5) == 0
        assert sample_tree.lca(2, 5) == 2

    def test_path_between_nodes(self, sample_tree):
        assert sample_tree.path(3, 4) == [3, 1, 4]
        assert sample_tree.path(4, 5) == [4, 1, 0, 2, 5]
        assert sample_tree.path(3, 3) == [3]

    def test_tree_distance(self, sample_tree):
        assert sample_tree.tree_distance(3, 4) == pytest.approx(2.0)
        assert sample_tree.tree_distance(4, 5) == pytest.approx(6.5)
        assert sample_tree.tree_distance(0, 0) == 0.0

    def test_next_hop(self, sample_tree):
        assert sample_tree.next_hop(0, 5) == 2
        assert sample_tree.next_hop(3, 5) == 1
        assert sample_tree.next_hop(1, 4) == 4
        with pytest.raises(ValidationError):
            sample_tree.next_hop(3, 3)
