"""Tests for the routing framework: messages, tables, simulator, scheme API."""

import math

import pytest

from repro.graphs.graph import WeightedGraph
from repro.routing.messages import Header, RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.routing.simulator import InvalidRouteError, RoutingSimulator
from repro.routing.table import RoutingTable, TableCollection
from repro.traffic.engine import run_traffic
from repro.traffic.models import make_traffic_model


class TestRouteResult:
    def test_hops_and_endpoints(self):
        r = RouteResult(found=True, path=[1, 2, 3], cost=2.0)
        assert r.hops == 2 and r.source == 1 and r.last_node == 3

    def test_empty_path(self):
        r = RouteResult(found=False)
        assert r.hops == 0 and r.source is None and r.last_node is None

    def test_extend_glues_shared_endpoint(self):
        r = RouteResult(found=False, path=[1, 2])
        r.extend([2, 3, 4])
        assert r.path == [1, 2, 3, 4]
        r.extend([7, 8])
        assert r.path == [1, 2, 3, 4, 7, 8]
        r.extend([])
        assert r.path == [1, 2, 3, 4, 7, 8]

    def test_header_size(self):
        h = Header(destination_name="x", phase=2, strategy="sparse", payload_bits=10)
        assert h.size_bits(name_bits=64, phase_bits=4) == 64 + 4 + 8 + 10


class TestRoutingTable:
    def test_put_get_and_bits(self):
        t = RoutingTable(0)
        t.put("a", 123, bits=10)
        t.put("b", "x", bits=5, category="labels")
        assert t.get("a") == 123 and "b" in t and len(t) == 2
        assert t.size_bits() == 15
        assert t.breakdown() == {"entries": 10, "labels": 5}

    def test_charge_without_data(self):
        t = RoutingTable(1)
        t.charge("hash", 100, count=2)
        assert t.size_bits() == 200 and len(t) == 0

    def test_collection_stats(self):
        c = TableCollection(3)
        c[0].charge("x", 10)
        c[1].charge("x", 30)
        c[2].charge("y", 20)
        assert c.max_bits() == 30
        assert c.avg_bits() == pytest.approx(20.0)
        assert c.total_bits() == 60
        assert c.breakdown() == {"x": 40, "y": 20}
        assert len(c) == 3 and c.table_bits(2) == 20


class _FixedWalkScheme(RoutingSchemeInstance):
    """Test double returning a pre-set walk (no compiled form: scalar only)."""

    scheme_name = "fixed"

    def __init__(self, graph, walk, found=True):
        super().__init__(graph)
        self._walk = walk
        self._found = found

    def route(self, source, destination_name):
        return RouteResult(found=self._found, path=list(self._walk), cost=0.0)

    def header_bits(self):
        return 8


@pytest.fixture()
def square():
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                         names=list("abcd"))


class TestSimulator:
    def test_sample_pairs_connected_and_distinct(self, square):
        sim = RoutingSimulator(square)
        pairs = sim.sample_pairs(50, seed=1)
        assert len(pairs) == 50
        assert all(u != v for u, v in pairs)

    def test_all_pairs_count(self, square):
        sim = RoutingSimulator(square)
        assert len(sim.all_pairs()) == 4 * 3

    def test_verify_walk_recomputes_cost(self, square):
        sim = RoutingSimulator(square)
        result = RouteResult(found=True, path=[0, 1, 2], cost=99.0)
        assert sim.verify_walk(result, 0, 2) == pytest.approx(2.0)

    def test_verify_walk_rejects_nonadjacent_step(self, square):
        sim = RoutingSimulator(square)
        result = RouteResult(found=True, path=[0, 2], cost=0.0)
        with pytest.raises(InvalidRouteError):
            sim.verify_walk(result, 0, 2)

    def test_verify_walk_rejects_wrong_start_or_end(self, square):
        sim = RoutingSimulator(square)
        with pytest.raises(InvalidRouteError):
            sim.verify_walk(RouteResult(found=True, path=[1, 2]), 0, 2)
        with pytest.raises(InvalidRouteError):
            sim.verify_walk(RouteResult(found=True, path=[0, 1]), 0, 2)

    def test_evaluate_computes_stretch(self, square):
        sim = RoutingSimulator(square)
        # A scheme that always walks 0-1-2 regardless of the request:
        scheme = _FixedWalkScheme(square, [0, 1, 2])
        report = sim.evaluate(scheme, pairs=[(0, 2)], engine="scalar")
        assert report.max_stretch == pytest.approx(1.0)
        assert report.avg_stretch == pytest.approx(1.0)
        assert report.failures == 0 and report.unreachable == 0
        assert report.max_header_bits == 8
        result, = sim.route_batch(scheme, [(0, 2)], engine="scalar")
        assert result.cost == pytest.approx(2.0)

    def test_evaluate_counts_failures(self, square):
        sim = RoutingSimulator(square)
        scheme = _FixedWalkScheme(square, [0], found=False)
        report = sim.evaluate(scheme, pairs=[(0, 2), (0, 1)], engine="scalar")
        assert report.failures == 2 and report.unreachable == 0
        # stretch covers delivered packets only: none here
        for value in (report.max_stretch, report.avg_stretch,
                      report.median_stretch, report.p95_stretch):
            assert math.isnan(value)

    def test_evaluate_counts_disconnected_pairs_as_unreachable(self):
        graph = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        sim = RoutingSimulator(graph)
        scheme = _FixedWalkScheme(graph, [0], found=False)
        report = sim.evaluate(scheme, pairs=[(0, 1), (0, 2), (0, 3)],
                              engine="scalar")
        assert report.num_pairs == 3
        assert report.failures == 1 and report.unreachable == 2

    def test_scalar_traffic_run_raises_invalid_route_for_a_foreign_start(self, square):
        # every walk starts at node 1, whatever its source
        scheme = _FixedWalkScheme(square, [1, 2], found=False)
        model = make_traffic_model("uniform", square, seed=0)
        with pytest.raises(InvalidRouteError,
                           match="walk starts at 1, expected source [023]"):
            run_traffic(scheme, model, 16, engine="scalar")

    def test_report_as_dict_roundtrip(self, square):
        sim = RoutingSimulator(square)
        scheme = _FixedWalkScheme(square, [0, 1])
        report = sim.evaluate(scheme, pairs=[(0, 1)], engine="scalar")
        d = report.as_dict()
        assert d["scheme"] == "fixed" and d["num_pairs"] == 1

    def test_scheme_api_describe(self, square):
        scheme = _FixedWalkScheme(square, [0, 1])
        info = scheme.describe()
        assert info["scheme"] == "fixed"
        assert info["n"] == 4
        assert scheme.route_by_index(0, 1).path == [0, 1]
