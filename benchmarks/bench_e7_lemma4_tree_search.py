"""E7 — Lemma 4: name-independent tree searches (stretch and per-node storage)."""

import pytest

from benchmarks.conftest import record
from repro.core.analysis import lemma4_table_bits
from repro.graphs.generators import random_tree_graph
from repro.graphs.shortest_paths import shortest_path_tree
from repro.trees.name_independent import NameIndependentTreeRouting


@pytest.mark.bench
@pytest.mark.parametrize("k", [2, 3])
def test_e7_lemma4_search(benchmark, quick, k):
    m = 120 if quick else 400
    graph = random_tree_graph(m, seed=41)
    tree = shortest_path_tree(graph, 0)
    names = {v: graph.name_of(v) for v in tree.nodes}
    routing = NameIndependentTreeRouting(tree, names, k=k, seed=41)
    targets = [graph.name_of(v) for v in tree.nodes[:: max(tree.size // 40, 1)]]

    def search_all():
        return [routing.search_from_root(t) for t in targets]

    results = benchmark(search_all)
    assert all(r.found for r in results)
    worst_stretch = 0.0
    for r in results:
        node = r.destination
        if node is not None and tree.depth_of(node) > 0:
            worst_stretch = max(worst_stretch, r.cost / tree.depth_of(node))
    record(
        benchmark,
        experiment="E7",
        tree_size=tree.size,
        k=k,
        searches=len(targets),
        worst_root_stretch=round(worst_stretch, 2),
        stretch_bound=2 * routing.max_digits - 1,
        max_table_bits=routing.max_table_bits(),
        table_bound=round(lemma4_table_bits(tree.size, k, constant=200.0)),
        max_dictionary_entries=routing.max_dictionary_entries(),
    )
    assert worst_stretch <= 2 * routing.max_digits - 1 + 1e-9
