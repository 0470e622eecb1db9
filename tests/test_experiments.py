"""Tests for the experiment harness, workloads, reporting and the paper's kinds."""

import pytest

from repro.experiments.harness import ExperimentResult, evaluate_scheme_on_graph, run_matrix
from repro.experiments.matrix.kinds import (
    run_comparison,
    run_lemma_properties,
    run_scale_free,
    run_stretch_growth,
    run_tradeoff,
)
from repro.experiments.reporting import format_series, format_table, results_to_csv
from repro.experiments.workloads import (
    WorkloadSpec,
    aspect_ratio_suite,
    full_mode,
    make_workload,
    standard_suite,
)


class TestWorkloads:
    def test_standard_suite_builds_connected_graphs(self):
        for spec in standard_suite(quick=True):
            g = spec.build(quick=True)
            assert g.is_connected()
            assert g.n >= 30

    def test_workload_spec_sizes(self):
        spec = WorkloadSpec("x", "geometric", quick_n=30, full_n=60, seed=1)
        assert spec.build(quick=True).n <= spec.build(quick=False).n

    def test_make_workload_families(self):
        for family in ("geometric", "grid", "erdos-renyi"):
            assert make_workload(family, 36, seed=2).is_connected()
        with pytest.raises(ValueError):
            make_workload("unknown", 10)

    def test_aspect_ratio_suite_monotone(self):
        from repro.graphs.metrics import aspect_ratio

        suite = aspect_ratio_suite([1e2, 1e5], n=30, seed=5)
        assert len(suite) == 2
        deltas = [aspect_ratio(g) for _, g in suite]
        assert deltas[1] > deltas[0]

    def test_full_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert not full_mode()
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert full_mode()


class TestHarness:
    def test_evaluate_scheme_on_graph_fields(self, small_er, er_oracle):
        row = evaluate_scheme_on_graph("shortest-path", small_er, k=2, num_pairs=30,
                                       seed=1, oracle=er_oracle)
        assert row["scheme"] == "shortest-path"
        assert row["failures"] == 0
        assert row["max_stretch"] == pytest.approx(1.0)
        assert row["max_table_bits"] > 0
        assert row["build_seconds"] >= 0

    def test_run_matrix_row_count_and_filter(self, small_er):
        result = run_matrix("t", schemes=["shortest-path", "cowen"],
                            graphs=[("er", small_er)], ks=[2], num_pairs=20, seed=1)
        assert len(result.rows) == 2
        assert {r["scheme"] for r in result.rows} == {"shortest-path", "cowen"}
        assert len(result.filter(scheme="cowen")) == 1
        assert result.column("n") == [small_er.n, small_er.n]

    def test_experiment_result_add_row(self):
        r = ExperimentResult("x")
        r.add_row(a=1, b=2)
        assert r.rows == [{"a": 1, "b": 2}]

    def test_run_matrix_parallel_matches_serial(self, small_er, small_geometric):
        kwargs = dict(schemes=["shortest-path", "cowen", "thorup-zwick"],
                      graphs=[("er", small_er), ("geo", small_geometric)],
                      ks=[1, 2], num_pairs=20, seed=3)
        serial = run_matrix("serial", **kwargs)
        fanned = run_matrix("parallel", parallel=4, **kwargs)
        assert len(fanned.rows) == len(serial.rows) == 12
        # identical measurements in identical (deterministic) order; only the
        # wall-time column may differ between runs
        for left, right in zip(serial.rows, fanned.rows):
            left = {k: v for k, v in left.items() if k != "build_seconds"}
            right = {k: v for k, v in right.items() if k != "build_seconds"}
            assert left == right


class TestReporting:
    def test_format_table_contains_values(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 0.0001}], title="T")
        assert "# T" in text and "2.5" in text and "0.0001" in text

    def test_format_table_empty(self):
        assert "no rows" in format_table([], title="empty")

    def test_format_table_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]

    def test_format_series_bars(self):
        text = format_series([1, 2], [1.0, 2.0], "x", "y", title="S")
        assert "#" in text and "# S" in text

    def test_results_to_csv(self):
        csv = results_to_csv([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,b" and lines[1] == "1,x" and len(lines) == 3
        assert results_to_csv([]) == ""


class TestExperimentKinds:
    """Each of the paper's experiment kinds must run end-to-end on tiny inputs."""

    def test_comparison_kind_tiny(self):
        result = run_comparison(quick=True, seed=1, k=2,
                                schemes=["shortest-path", "cowen"], num_pairs=15)
        assert result.rows
        assert all(r["failures"] == 0 for r in result.rows)

    def test_tradeoff_kind_delivers_within_the_linear_envelope(self):
        # E1 at quick size: four graphs, k = 1..3.  The printed 8k + 4
        # column is a reference only; the quick run already exceeds it
        result = run_tradeoff(quick=True, seed=0)
        assert sorted({r["k"] for r in result.rows}) == [1, 2, 3]
        for row in result.rows:
            assert row["failures"] == 0
            assert row["max_stretch"] <= 16 * row["k"] + 8

    def test_stretch_growth_kind_delivers_every_pair(self):
        result = run_stretch_growth(quick=True, seed=0)
        assert {r["scheme"] for r in result.rows} == {"agm", "exponential"}
        assert all(r["failures"] == 0 for r in result.rows)
        assert len(result.metadata["agm_avg_stretch_growth_ratios"]) == 2

    def test_scale_free_kind_tiny(self):
        result = run_scale_free(quick=True, seed=1, k=2, deltas=[1e2, 1e12], num_pairs=12)
        agm_rows = result.filter(scheme="agm")
        ap_rows = result.filter(scheme="awerbuch-peleg")
        assert len(agm_rows) == 2 and len(ap_rows) == 2
        assert all(r["failures"] == 0 for r in result.rows)
        # the scale-free scheme's tables must grow less than the hierarchical one's,
        # whose storage tracks log Δ (the scale-free kind, E3, runs the full sweep)
        agm_growth = agm_rows[-1]["max_table_bits"] / agm_rows[0]["max_table_bits"]
        ap_growth = ap_rows[-1]["max_table_bits"] / ap_rows[0]["max_table_bits"]
        assert agm_growth < ap_growth
        assert agm_growth <= 3.0

    def test_lemma_properties_kind_tiny(self):
        result = run_lemma_properties(quick=True, seed=1, k=2)
        assert result.rows
        for row in result.rows:
            assert row["lemma2_violations"] == 0
            assert row["lemma3_violations"] == 0
