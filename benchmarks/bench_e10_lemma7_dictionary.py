"""E10 — Lemma 7: dictionary tree routing lookups on cover trees."""

import pytest

from benchmarks.conftest import record
from repro.core.analysis import lemma7_route_bound
from repro.covers.tree_cover import build_tree_cover
from repro.trees.error_reporting import DictionaryFamily


@pytest.mark.bench
def test_e10_lemma7_lookup(benchmark, bench_graph, bench_oracle):
    k = 2
    rho = bench_oracle.diameter() / 4
    cover = build_tree_cover(bench_graph, k, rho, oracle=bench_oracle)
    tree = max(cover.trees, key=lambda t: t.size)
    names = {v: bench_graph.name_of(v) for v in tree.nodes}
    routing = DictionaryFamily([tree], names, [61]).routings[0]
    sources = tree.nodes[:: max(tree.size // 10, 1)]
    targets = tree.nodes[:: max(tree.size // 10, 1)]

    def lookup_all():
        return [routing.lookup(s, names[t]) for s in sources for t in targets]

    results = benchmark(lookup_all)
    bound = lemma7_route_bound(tree.radius(), tree.max_edge(), k)
    assert all(r.found for r in results)
    assert all(r.cost <= bound + 1e-9 for r in results)
    record(
        benchmark,
        experiment="E10",
        tree_size=tree.size,
        lookups=len(results),
        max_lookup_cost=round(max(r.cost for r in results), 3),
        lemma7_bound=round(bound, 3),
        tree_radius=round(tree.radius(), 3),
        max_table_bits=routing.max_table_bits(),
        max_bucket_entries=routing.max_bucket_entries(),
    )
