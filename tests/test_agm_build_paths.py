"""The AGM build gives one scheme whichever distance and ``G_j`` path it takes.

The build holds the graph's all-pairs matrix when it fits one forest block
(every tier-1 graph), so these tests pin the paths the larger graphs take:

* held against not held: a backend that refuses the matrix forces the row
  and radius-limited passes, over an ample and over a spilling row cache,
  and the scheme, its compiled program and the all-pairs lockstep outcome
  must not change;
* host against subgraph: a cover of ``G_j`` built on the host graph equals
  the cover built on the induced copy of every node;
* no copies: when every population covers all nodes, the build never calls
  ``WeightedGraph.subgraph``;
* the block-diagonal assembly of a chunk of cover trees equals SciPy's
  ``block_diag`` over the per-cluster submatrices.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.params import AGMParams
from repro.core.scheme import AGMRoutingScheme
from repro.covers.sparse_cover import build_sparse_cover
from repro.covers.tree_cover import build_tree_cover, cluster_block_matrix
from repro.experiments.workloads import aspect_ratio_suite, make_workload
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.generators import erdos_renyi_graph, grid_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import run_lockstep


class _NoHoldBackend(LazyDijkstraBackend):
    """A lazy backend that never keeps an all-pairs matrix."""

    def adopt_all_pairs(self, matrix: np.ndarray) -> None:
        pass


def _disconnected_graph() -> WeightedGraph:
    """An Erdős–Rényi and a grid component plus one isolated node (n=56)."""
    edges, offset = [], 0
    for part in (erdos_renyi_graph(30, seed=2), grid_graph(5, 5, seed=3)):
        edges += [(u + offset, v + offset, w) for u, v, w in part.edges()]
        offset += part.n
    return WeightedGraph(offset + 1, edges, seed=4)


GRAPHS = {
    "barabasi-albert-72": lambda: make_workload("barabasi-albert", 72, seed=7),
    "grid-64": lambda: make_workload("grid", 64, seed=7),
    "disconnected-56": _disconnected_graph,
    # aspect ratio 1e6: at k=3 some populations V_j are proper subsets, so
    # one build takes both the host-graph and the subgraph path
    "geometric-delta1e6": lambda: aspect_ratio_suite([1e6], n=48, seed=3)[0][1],
}
CONSTANTS = {
    "paper-k2": (2, AGMParams.paper()),
    "experiment0.05-k3": (3, AGMParams.experiment(0.05)),
}


def _fingerprint(scheme: AGMRoutingScheme) -> dict:
    """Tables, compiled program and all-pairs outcome of a built scheme."""
    n = scheme.graph.n
    program = scheme.compiled_forwarding()
    bank = program.bank
    out = {
        "table_bits": [scheme.table_bits(v) for v in range(n)],
        "breakdown": sorted(scheme.table_breakdown().items()),
        "header_bits": scheme.header_bits(),
        "bank": [bank.node_of_slot, bank.dfs_out, bank.parent_slot,
                 bank._member_keys, bank._member_slots],
        "tables": [table.entries() for table in program.tables],
    }
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    outcome = run_lockstep(program, src, dst, materialize=False)
    out["outcome"] = [outcome.hop_index, outcome.hop_heads, outcome.hop_tails,
                      outcome.found, outcome.final_nodes, outcome.phases,
                      outcome.strategy_codes, outcome.header_bits]
    return out


def _assert_same(a, b) -> None:
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("cache_rows", [None, 8], ids=["ample-cache", "spilling-cache"])
@pytest.mark.parametrize("constants", sorted(CONSTANTS))
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_held_and_row_paths_build_the_same_scheme(family, constants, cache_rows):
    k, params = CONSTANTS[constants]
    graph = GRAPHS[family]()
    held = DistanceOracle(graph)
    # an 8-row LRU spills and restores rows during the build, the path a
    # build above one forest block takes under a small memory budget
    backend = _NoHoldBackend(graph) if cache_rows is None \
        else _NoHoldBackend(graph, cache_rows=cache_rows)
    rows = DistanceOracle(graph, backend=backend)
    reference = AGMRoutingScheme(graph, k=k, params=params, oracle=held, seed=5)
    streamed = AGMRoutingScheme(graph, k=k, params=params, oracle=rows, seed=5)
    assert held.backend.holds_all_pairs()
    assert not backend.holds_all_pairs() and backend.misses > 0
    if cache_rows is None:
        assert backend.row_spills == 0
    else:
        assert backend.row_spills > 0 and backend.row_restores > 0
    _assert_same(_fingerprint(reference), _fingerprint(streamed))


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_host_cover_equals_subgraph_cover(family):
    graph = GRAPHS[family]()
    oracle = DistanceOracle(graph)
    subgraph, mapping = graph.subgraph(range(graph.n))
    for scale in (1, 4, 16):
        rho = oracle.min_positive_distance() * scale
        host = build_tree_cover(graph, 2, rho, oracle=oracle)
        copy = build_tree_cover(subgraph, 2, rho, oracle=DistanceOracle(subgraph),
                                mapping=mapping)
        assert host.home == copy.home
        assert len(host.trees) == len(copy.trees)
        for a, b in zip(host.trees, copy.trees):
            assert a.root == b.root
            for name in ("node_ids", "dfs_in", "depth", "weight", "node_of_slot",
                         "parent_local", "dfs_out"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _count_subgraph_calls(monkeypatch) -> list:
    calls = []
    original = WeightedGraph.subgraph

    def counting(self, nodes):
        calls.append(len(set(nodes)))
        return original(self, nodes)

    monkeypatch.setattr(WeightedGraph, "subgraph", counting)
    return calls


def test_whole_graph_populations_make_no_copies(monkeypatch):
    graph = make_workload("barabasi-albert", 120, seed=7)
    calls = _count_subgraph_calls(monkeypatch)
    scheme = AGMRoutingScheme(graph, k=3, params=AGMParams.experiment(0.05), seed=5)
    members = scheme.decomposition.extended_range_members()
    assert len(scheme.dense.covers) > 1
    assert all(len(members[j]) == graph.n for j in scheme.dense.covers)
    assert calls == []


def test_proper_subset_populations_keep_the_subgraph_path(monkeypatch):
    graph = GRAPHS["geometric-delta1e6"]()
    calls = _count_subgraph_calls(monkeypatch)
    scheme = AGMRoutingScheme(graph, k=3, params=AGMParams.experiment(0.05), seed=5)
    members = scheme.decomposition.extended_range_members()
    partial = [j for j in scheme.dense.covers if len(members[j]) < graph.n]
    assert partial and len(partial) < len(scheme.dense.covers)
    assert sorted(calls) == sorted(len(members[j]) for j in partial)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_cluster_block_matrix_equals_block_diag(family):
    graph = GRAPHS[family]()
    csr = graph.to_scipy_csr()
    oracle = DistanceOracle(graph)
    rho = oracle.min_positive_distance() * 4
    cover = build_sparse_cover(graph, 2, rho, oracle=oracle)
    blocks = [np.asarray(sorted(c.nodes), dtype=np.int64) for c in cover.clusters]
    assert len(blocks) > 1
    for limit in (rho, 2 * rho, np.inf):
        pieces = []
        for members in blocks:
            sub = csr[members][:, members].tocsr()
            sub.data[sub.data > limit + 1e-12] = 0
            sub.eliminate_zeros()
            pieces.append(sub)
        expected = sp.block_diag(pieces, format="csr")
        got = cluster_block_matrix(csr, blocks, limit)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.indptr, expected.indptr)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.data, expected.data)


@pytest.mark.parametrize("family", ["barabasi-albert-72", "disconnected-56"])
def test_lemma4_family_equals_per_tree_constructor(family):
    from repro.construction.context import BuildContext, SPTJob
    from repro.hashing.universal import fold_names
    from repro.trees.name_independent import NameIndependentTreeRouting

    graph = GRAPHS[family]()
    component_of = {v: component for component in graph.connected_components()
                    for v in component}
    roots = list(range(0, graph.n, 5))
    trees = BuildContext(graph).spt_trees([SPTJob(r, component_of[r]) for r in roots])
    seeds = [1000 + r for r in roots]
    batched = NameIndependentTreeRouting.family(
        trees, seeds, k=3, sigma=4, name_bits=64,
        folded=fold_names(graph.names_view()), name_index=graph.name_index())
    names = graph.names_view()
    probes = list(names[::7]) + ["absent"]
    for tree, seed, routing in zip(trees, seeds, batched):
        single = NameIndependentTreeRouting(tree, {v: names[v] for v in tree.nodes},
                                            k=3, sigma=4, seed=seed)
        np.testing.assert_array_equal(routing._dict_indptr, single._dict_indptr)
        np.testing.assert_array_equal(routing._dict_targets, single._dict_targets)
        assert routing.table_bits_list() == single.table_bits_list()
        for name in probes:
            assert routing.contains_name(name) == single.contains_name(name)
            for bound in (1, 2, None):
                assert routing.plan_search_from_root(name, bound) \
                    == single.plan_search_from_root(name, bound)
