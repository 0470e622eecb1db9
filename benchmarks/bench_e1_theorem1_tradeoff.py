"""E1 — Theorem 1's space-stretch trade-off (the ``tradeoff`` experiment kind).

For each k, build the AGM scheme on the common workload and measure the
maximum/average stretch over sampled pairs and the per-node table size; the
theoretical references are recorded next to the measurements.
"""

import pytest

from benchmarks.conftest import record
from repro.core.analysis import lemma11_table_bits, stretch_bound, theorem1_table_bits
from repro.core.scheme import AGMRoutingScheme


@pytest.mark.bench
@pytest.mark.parametrize("k", [1, 2, 3])
def test_e1_tradeoff(benchmark, bench_graph, bench_oracle, bench_simulator, agm_params, k):
    def build_and_evaluate():
        scheme = AGMRoutingScheme.build(bench_graph, k=k, params=agm_params,
                                        oracle=bench_oracle, seed=17)
        report = bench_simulator.evaluate(scheme, num_pairs=80, seed=5)
        return scheme, report

    scheme, report = benchmark.pedantic(build_and_evaluate, rounds=1, iterations=1)
    assert report.failures == 0
    record(
        benchmark,
        experiment="E1",
        n=bench_graph.n,
        k=k,
        max_stretch=round(report.max_stretch, 3),
        avg_stretch=round(report.avg_stretch, 3),
        stretch_bound_linear=stretch_bound(k, constant=16),
        max_table_bits=report.max_table_bits,
        avg_table_bits=round(report.avg_table_bits),
        bits_bound_theorem1=round(theorem1_table_bits(bench_graph.n, k)),
        bits_bound_lemma11=round(lemma11_table_bits(bench_graph.n, k)),
        header_bits=report.max_header_bits,
        fallback_uses=scheme.fallback_uses,
    )
    # the measured stretch must respect the O(k) guarantee (generous constant)
    assert report.max_stretch <= 16 * k + 8
