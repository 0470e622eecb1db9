"""Integration tests: all schemes on a common workload, examples, cross-module flows."""

import runpy
import sys
from pathlib import Path

import pytest

from repro import AGMParams, AGMRoutingScheme, RoutingSimulator, build_scheme
from repro.experiments.harness import run_matrix
from repro.graphs.generators import ring_of_cliques
from repro.graphs.shortest_paths import DistanceOracle

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestCrossSchemeIntegration:
    @pytest.fixture(scope="class")
    def cliques_setup(self):
        graph = ring_of_cliques(5, 6, seed=42)
        oracle = DistanceOracle(graph)
        return graph, oracle, RoutingSimulator(graph, oracle=oracle)

    def test_all_schemes_route_correctly_on_common_graph(self, cliques_setup):
        graph, oracle, simulator = cliques_setup
        pairs = simulator.sample_pairs(60, seed=3)
        reports = {}
        for name in ("shortest-path", "cowen", "thorup-zwick",
                     "awerbuch-peleg", "exponential", "agm"):
            kwargs = {"params": AGMParams.experiment()} if name == "agm" else {}
            scheme = build_scheme(name, graph, k=2, seed=8, oracle=oracle, **kwargs)
            report = simulator.evaluate(scheme, pairs=pairs)
            assert report.failures == 0, f"{name} failed to route some pairs"
            reports[name] = report
        # qualitative shape of the comparison (Section 1 / 1.3):
        assert reports["shortest-path"].max_stretch <= reports["agm"].max_stretch
        assert reports["cowen"].max_stretch <= 3 + 1e-6
        assert (reports["shortest-path"].avg_table_bits
                > reports["thorup-zwick"].avg_table_bits)

    def test_run_matrix_integration(self, cliques_setup):
        graph, _, _ = cliques_setup
        result = run_matrix("integration", schemes=["agm"], graphs=[("cliques", graph)],
                            ks=[2], num_pairs=25, seed=1,
                            scheme_kwargs={"agm": {"params": AGMParams.experiment()}})
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["failures"] == 0
        assert row["fallback_uses"] == 0 or row["fallback_uses"] < 5

    def test_agm_k_sweep_space_stretch_tradeoff_direction(self, cliques_setup):
        """Higher k must not *decrease* measured stretch by much; the point of the
        trade-off is that stretch grows (roughly linearly) while space per level
        shrinks.  With tiny n the space side is noisy, so only the stretch
        direction is asserted here; the space exponent is covered by benches."""
        graph, oracle, simulator = cliques_setup
        stretches = []
        for k in (1, 3):
            scheme = AGMRoutingScheme.build(graph, k=k, params=AGMParams.experiment(),
                                            oracle=oracle, seed=5)
            report = simulator.evaluate(scheme, num_pairs=60, seed=6)
            assert report.failures == 0
            stretches.append(report.avg_stretch)
        assert stretches[1] >= stretches[0] * 0.8


class TestExamples:
    """Every example script must run end-to-end (they are part of the public API surface)."""

    @pytest.mark.parametrize("script", ["quickstart.py", "dht_overlay.py"])
    def test_fast_examples_run(self, script, capsys):
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
        out = capsys.readouterr().out
        assert "stretch" in out.lower()

    @pytest.mark.parametrize("script", ["churn_demo.py", "live_demo.py"])
    def test_churn_examples_run(self, script, capsys):
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
        out = capsys.readouterr().out
        assert "stale" in out and "repair" in out

    def test_scale_free_example_runs(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "scale_free_demo.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "aspect ratio" in out.lower()

    @pytest.mark.slow
    def test_isp_example_runs(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "isp_network.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "trade-off" in out.lower()


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert set(repro.__all__) >= {"WeightedGraph", "AGMRoutingScheme", "RoutingSimulator",
                                      "AGMParams", "build_scheme", "RouteResult"}
        assert repro.__version__

    def test_readme_quickstart_snippet(self, small_geometric):
        # mirrors the snippet in README.md / the package docstring
        from repro import AGMRoutingScheme, RoutingSimulator

        scheme = AGMRoutingScheme.build(small_geometric, k=2,
                                        params=AGMParams.experiment(), seed=1)
        report = RoutingSimulator(small_geometric).evaluate(scheme, num_pairs=50, seed=2)
        assert report.max_stretch >= 1.0
        assert report.failures == 0
