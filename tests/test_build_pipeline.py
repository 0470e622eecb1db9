"""Build pipeline: parallel construction ≡ serial, and the batched primitives.

The ``BuildContext`` worker-thread fan-out and the ``build_matrix`` cell
fan-out must be bit-identical to serial builds: routes (node for node),
space accounting, headers and the compiled forwarding programs agree for
all six schemes.  The batched primitives (sparse-cover membership counts,
distance-limited SPT forests) are checked against plain references.  What
the single construction path builds is pinned by the golden build digests
in ``test_golden_digests.py``.
"""

import numpy as np
import pytest

from repro.construction.context import BuildContext, SPTJob
from repro.covers.sparse_cover import build_sparse_cover
from repro.experiments.harness import build_matrix
from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.routing.simulator import RoutingSimulator


def _build(name, graph, oracle, seed, parallel=None):
    context = BuildContext(graph, oracle=oracle, parallel=parallel)
    return build_scheme(name, graph, k=2, seed=seed, oracle=oracle,
                        context=context)


def _assert_equivalent(graph, oracle, reference, candidate, pairs):
    for (u, v) in pairs:
        a = reference.route_by_index(u, v)
        b = candidate.route_by_index(u, v)
        assert a.path == b.path
        assert a.found == b.found
        assert a.strategy == b.strategy
        assert a.cost == pytest.approx(b.cost)
    assert reference.max_table_bits() == candidate.max_table_bits()
    assert reference.avg_table_bits() == pytest.approx(candidate.avg_table_bits())
    assert reference.header_bits() == candidate.header_bits()
    assert reference.table_breakdown() == candidate.table_breakdown()
    assert reference.compiled_forwarding().describe() == \
        candidate.compiled_forwarding().describe()
    spec_a = {k: v for k, v in reference.rebuild_spec().items() if k != "oracle"}
    spec_b = {k: v for k, v in candidate.rebuild_spec().items() if k != "oracle"}
    assert spec_a == spec_b
    # lockstep engine reports agree field for field
    sim = RoutingSimulator(graph, oracle=oracle)
    rep_a = sim.evaluate(reference, pairs=pairs, engine="lockstep").as_dict()
    rep_b = sim.evaluate(candidate, pairs=pairs, engine="lockstep").as_dict()
    assert rep_a == rep_b


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_parallel_build_is_bit_identical_to_serial(scheme):
    graph = make_workload("barabasi-albert", 80, seed=5)
    oracle = DistanceOracle(graph)
    sim = RoutingSimulator(graph, oracle=oracle)
    pairs = sim.sample_pairs(40, seed=2)
    serial = _build(scheme, graph, oracle, 13, parallel=None)
    parallel = _build(scheme, graph, oracle, 13, parallel=3)
    _assert_equivalent(graph, oracle, serial, parallel, pairs)


def test_build_matrix_rows_and_instances():
    graphs = [("er", make_workload("erdos-renyi", 60, seed=3)),
              ("ba", make_workload("barabasi-albert", 60, seed=4))]
    serial = build_matrix("e11", ["cowen", "thorup-zwick"], graphs, ks=[2],
                          seed=9, keep_instances=True)
    fanned = build_matrix("e11", ["cowen", "thorup-zwick"], graphs, ks=[2],
                          seed=9, parallel=3, keep_instances=True)
    assert [row["scheme"] for row in serial.rows] == \
        [row["scheme"] for row in fanned.rows]
    for row_a, row_b in zip(serial.rows, fanned.rows):
        for key in ("graph", "scheme", "k", "n", "m", "max_table_bits",
                    "avg_table_bits", "header_bits"):
            assert row_a[key] == row_b[key]
        assert row_a["build_seconds"] > 0
    # the fanned-out instances route identically to the serial ones
    for key, scheme in serial.metadata["instances"].items():
        twin = fanned.metadata["instances"][key]
        graph = scheme.graph
        sim = RoutingSimulator(graph)
        for (u, v) in sim.sample_pairs(25, seed=6):
            assert scheme.route_by_index(u, v).path == \
                twin.route_by_index(u, v).path


def test_membership_counts_is_ndarray_and_matches_clusters():
    graph = make_workload("erdos-renyi", 70, seed=2)
    oracle = DistanceOracle(graph)
    rho = 2.0 * oracle.min_positive_distance()
    cover = build_sparse_cover(graph, 2, rho, oracle=oracle)
    counts = cover.membership_counts(graph.n)
    assert isinstance(counts, np.ndarray)
    expected = np.zeros(graph.n, dtype=np.int64)
    for cluster in cover.clusters:
        for v in cluster.nodes:
            expected[v] += 1
    assert np.array_equal(counts, expected)
    assert cover.max_membership(graph.n) == int(expected.max())


def test_spt_forest_with_limits_matches_reference_trees():
    graph = make_workload("barabasi-albert", 90, seed=8)
    oracle = DistanceOracle(graph)
    context = BuildContext(graph, oracle=oracle)
    jobs = []
    references = []
    for root in [0, 5, 11, 40]:
        members = oracle.nearest(root, 12)
        limit = float(oracle.row(root)[members].max())
        jobs.append(SPTJob(root, members, limit))
        references.append(shortest_path_tree(graph, root, members=members))
    for tree, reference in zip(context.spt_trees(jobs), references):
        assert tree.root == reference.root
        assert tree.nodes == reference.nodes
        assert tree.parent_ids().tolist() == reference.parent_ids().tolist()
        assert tree.weight.tolist() == reference.weight.tolist()
