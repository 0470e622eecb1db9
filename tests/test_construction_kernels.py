"""Construction kernels: the ancestor closure that prunes SPT forest rows."""

from __future__ import annotations

import numpy as np

from repro.construction.kernels import ancestor_closure


def random_forest(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random rooted forest as a parent array (-1 at roots)."""
    parent = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for i in range(1, n):
        if rng.random() < 0.9:     # ~10% extra roots
            parent[order[i]] = order[rng.integers(0, i)]
    return parent


def ancestors_of(members: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Mask of every node on some member's full root chain (members included)."""
    mask = np.zeros(parent.size, dtype=bool)
    for v in members.tolist():
        while v >= 0 and not mask[v]:
            mask[v] = True
            v = int(parent[v])
    return mask


class TestAncestorClosure:
    def test_closure_contains_members_and_is_ancestor_closed(self):
        for seed in (0, 1, 2, 3, 11):
            rng = np.random.default_rng(seed)
            n = 200
            parent = random_forest(n, rng)
            members = rng.choice(n, size=rng.integers(1, n), replace=False)
            pre_kept = np.zeros(n, dtype=bool)
            pre_kept[rng.choice(n, size=10, replace=False)] = True
            keep = ancestor_closure(members, parent, pre_kept.copy())
            assert keep[members].all() and keep[pre_kept].all()
            # closed: chains stop only at roots or at nodes kept beforehand
            fresh = np.flatnonzero(keep & ~pre_kept)
            parents = parent[fresh]
            assert keep[parents[parents >= 0]].all()
            # minimal: every kept node is a member, was pre-kept, or is an
            # ancestor of a member
            assert not (keep & ~pre_kept & ~ancestors_of(members, parent)).any()

    def test_without_pre_kept_nodes_closure_is_exactly_the_root_chains(self):
        rng = np.random.default_rng(7)
        n = 150
        parent = random_forest(n, rng)
        members = rng.choice(n, size=25, replace=False)
        keep = ancestor_closure(members, parent, np.zeros(n, dtype=bool))
        np.testing.assert_array_equal(keep, ancestors_of(members, parent))

    def test_no_members_leaves_keep_unchanged(self):
        rng = np.random.default_rng(8)
        parent = random_forest(50, rng)
        pre_kept = np.zeros(50, dtype=bool)
        pre_kept[[3, 17]] = True
        keep = ancestor_closure(np.zeros(0, dtype=np.int64), parent,
                                pre_kept.copy())
        np.testing.assert_array_equal(keep, pre_kept)
