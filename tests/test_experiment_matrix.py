"""Tests for the config-driven experiment matrix (spec, kinds, runner, CLI)."""

import json
import sys

import pytest

from repro.experiments.matrix import (
    KIND_NAMES,
    load_spec,
    run_spec,
    spec_from_mapping,
    strip_timing,
)
from repro.experiments.matrix.kinds import (
    ALL_SCHEMES,
    graph_factory_from_source,
    resolve_graph_sources,
    resolve_scheme_kwargs,
    run_comparison,
)
from repro.experiments.matrix.spec import parse_count, pick_size, spec_fingerprint


class TestSpec:
    def test_minimal_spec(self):
        spec = spec_from_mapping({"name": "x", "kind": "comparison"})
        assert spec.seeds == (0,) and spec.params == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            spec_from_mapping({"name": "x", "kind": "no-such-kind"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            spec_from_mapping({"name": "x", "kind": "grid", "grpahs": []})

    def test_bad_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            spec_from_mapping({"name": "x", "kind": "grid", "seeds": ["a"]})
        with pytest.raises(ValueError, match="seeds"):
            spec_from_mapping({"name": "x", "kind": "grid", "seeds": []})

    def test_scalar_seed_promoted(self):
        spec = spec_from_mapping({"name": "x", "kind": "grid", "seeds": 7})
        assert spec.seeds == (7,)

    def test_parse_count(self):
        assert parse_count(123) == 123
        assert parse_count("50k") == 50_000
        assert parse_count("1.5M") == 1_500_000
        assert parse_count("2_000") == 2_000
        with pytest.raises(ValueError):
            parse_count("lots")

    def test_pick_size(self):
        assert pick_size({"quick": 10, "full": 99}, quick=True) == 10
        assert pick_size({"quick": 10, "full": 99}, quick=False) == 99
        assert pick_size({"full": 99}, quick=True) == 99  # fallback to the one given
        assert pick_size(42, quick=True) == 42
        with pytest.raises(ValueError, match="quick"):
            pick_size({"small": 1}, quick=True)

    def test_fingerprint_ignores_seed_list_but_not_params(self):
        a = spec_from_mapping({"name": "x", "kind": "comparison", "seeds": [0]})
        b = spec_from_mapping({"name": "x", "kind": "comparison", "seeds": [0, 1, 2]})
        c = spec_from_mapping({"name": "x", "kind": "comparison",
                               "params": {"k": 2}})
        assert spec_fingerprint(a, True) == spec_fingerprint(b, True)
        assert spec_fingerprint(a, True) != spec_fingerprint(c, True)
        assert spec_fingerprint(a, True) != spec_fingerprint(a, False)

    def test_committed_configs_all_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        configs = sorted((root / "configs").glob("*.json"))
        assert len(configs) >= 7
        for path in configs:
            spec = load_spec(path)
            assert spec.kind in KIND_NAMES

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="TOML configs need stdlib tomllib (3.11+)")
    def test_toml_config_loads(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        spec = load_spec(root / "configs" / "flash_crowd_migration.toml")
        assert spec.kind == "live"
        assert spec.params["scenario"] == "flash-crowd"
        assert spec.params["scenario_kwargs"]["migrate_every"] == 2


class TestResolution:
    def test_topology_source(self):
        graphs = resolve_graph_sources("topology:rocketfuel-mini", quick=True)
        assert len(graphs) == 1
        label, graph = graphs[0]
        assert label == "rocketfuel-mini" and graph.n == 320

    def test_suite_source_with_limit(self):
        graphs = resolve_graph_sources({"suite": "standard", "limit": 2}, quick=True)
        assert [label for label, _ in graphs] == ["geometric", "erdos-renyi"]

    def test_family_source_threads_seed_offset(self):
        a = resolve_graph_sources({"family": "erdos-renyi", "n": 40, "seed": 1},
                                  quick=True, seed_offset=0)[0][1]
        b = resolve_graph_sources({"family": "erdos-renyi", "n": 40, "seed": 1},
                                  quick=True, seed_offset=5)[0][1]
        assert [tuple(e) for e in a.edges()] != [tuple(e) for e in b.edges()]

    def test_family_source_size_pair(self):
        g = resolve_graph_sources(
            {"family": "erdos-renyi", "n": {"quick": 30, "full": 90}, "seed": 1},
            quick=True)[0][1]
        assert g.n == 30

    def test_bad_sources_rejected(self):
        with pytest.raises(ValueError, match="topology:"):
            resolve_graph_sources("erdos-renyi", quick=True)
        with pytest.raises(ValueError, match="unknown suite"):
            resolve_graph_sources("suite:exotic", quick=True)
        with pytest.raises(ValueError, match="needs 'n'"):
            resolve_graph_sources({"family": "erdos-renyi"}, quick=True)

    def test_graph_factory_returns_fresh_instances(self):
        factory = graph_factory_from_source(
            {"family": "erdos-renyi", "n": 30, "seed": 2}, quick=True)
        a, b = factory(), factory()
        assert a is not b
        assert [tuple(e) for e in a.edges()] == [tuple(e) for e in b.edges()]

    def test_scheme_kwargs_presets(self):
        from repro.core.params import AGMParams

        resolved = resolve_scheme_kwargs({"agm": {"params": "experiment"}})
        assert resolved["agm"]["params"] == AGMParams.experiment()
        overridden = resolve_scheme_kwargs(
            {"agm": {"params": {"base": "experiment", "dense_gap": 5}}})
        assert overridden["agm"]["params"].dense_gap == 5
        with pytest.raises(ValueError, match="preset"):
            resolve_scheme_kwargs({"agm": {"params": "bogus"}})


class TestRunner:
    def test_committed_e2_config_reproduces_the_kind_bit_identically(self, tmp_path):
        """configs/e2_comparison.json through the matrix runner equals
        kinds.run_comparison() row for row (timing aside), and E2 delivers
        every sampled pair for all six schemes at k=3."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        spec = load_spec(root / "configs" / "e2_comparison.json")
        report = run_spec(spec, out_dir=tmp_path)
        direct = run_comparison(quick=True, seed=0)
        via_matrix = strip_timing(
            [{k: v for k, v in row.items() if k != "run_seed"}
             for row in report.rows])
        assert via_matrix == strip_timing(direct.rows)
        assert {row["scheme"] for row in direct.rows} == set(ALL_SCHEMES)
        assert {row["k"] for row in direct.rows} == {3}
        assert all(row["failures"] == 0 for row in direct.rows)

    def test_resume_skips_finished_seeds(self, tmp_path):
        spec = spec_from_mapping({
            "name": "tiny", "kind": "grid", "seeds": [1],
            "params": {"graphs": [{"family": "erdos-renyi", "n": 30, "seed": 0}],
                       "schemes": ["shortest-path"], "ks": [2], "num_pairs": 10}})
        first = run_spec(spec, out_dir=tmp_path)
        assert first.ran_seeds == [1] and not first.resumed_seeds
        second = run_spec(spec, out_dir=tmp_path)
        assert second.resumed_seeds == [1] and not second.ran_seeds
        assert strip_timing(second.rows) == strip_timing(first.rows)
        third = run_spec(spec, out_dir=tmp_path, force=True)
        assert third.ran_seeds == [1]

    def test_added_seeds_keep_finished_ones(self, tmp_path):
        base = {"name": "tiny2", "kind": "grid",
                "params": {"graphs": [{"family": "erdos-renyi", "n": 30, "seed": 0}],
                           "schemes": ["shortest-path"], "ks": [2], "num_pairs": 10}}
        run_spec(spec_from_mapping({**base, "seeds": [1]}), out_dir=tmp_path)
        grown = run_spec(spec_from_mapping({**base, "seeds": [1, 4]}),
                         out_dir=tmp_path)
        assert grown.resumed_seeds == [1] and grown.ran_seeds == [4]
        assert sorted({row["run_seed"] for row in grown.rows}) == [1, 4]

    def test_param_change_invalidates_resume(self, tmp_path):
        base = {"name": "tiny3", "kind": "grid", "seeds": [1],
                "params": {"graphs": [{"family": "erdos-renyi", "n": 30, "seed": 0}],
                           "schemes": ["shortest-path"], "ks": [2], "num_pairs": 10}}
        run_spec(spec_from_mapping(base), out_dir=tmp_path)
        changed = dict(base, params=dict(base["params"], num_pairs=12))
        rerun = run_spec(spec_from_mapping(changed), out_dir=tmp_path)
        assert rerun.ran_seeds == [1] and not rerun.resumed_seeds

    def test_seed_sweep_redraws_generated_graphs(self, tmp_path):
        """Satellite fix: the run seed reaches the graph draw, so a seed
        sweep measures different graphs instead of one pinned instance."""
        spec = spec_from_mapping({
            "name": "sweep", "kind": "grid", "seeds": [0, 9],
            "params": {"graphs": [{"family": "erdos-renyi", "n": 40, "seed": 0}],
                       "schemes": ["shortest-path"], "ks": [2], "num_pairs": 12}})
        report = run_spec(spec, out_dir=tmp_path)
        by_seed = {row["run_seed"]: row for row in report.rows}
        assert by_seed[0]["aspect_ratio"] != by_seed[9]["aspect_ratio"]

    def test_artifacts_on_disk(self, tmp_path):
        spec = spec_from_mapping({
            "name": "artifacts", "kind": "grid", "seeds": [2],
            "params": {"graphs": ["topology:rocketfuel-mini"],
                       "schemes": ["shortest-path"], "ks": [2], "num_pairs": 10}})
        report = run_spec(spec, out_dir=tmp_path)
        root = tmp_path / "artifacts"
        assert (root / "seed-2" / "result.json").exists()
        assert (root / "merged.json").exists()
        assert (root / "merged.csv").exists()
        assert (root / "report.md").exists()
        payload = json.loads((root / "seed-2" / "result.json").read_text())
        assert payload["status"] == "ok" and payload["rows"]
        assert payload["rows"][0]["n"] == 320  # the pinned snapshot, verbatim
        assert "artifacts" in report.table()

    def test_live_kind_tiny_end_to_end(self, tmp_path):
        spec = spec_from_mapping({
            "name": "live-tiny", "kind": "live", "seeds": [3],
            "params": {"graph": {"family": "erdos-renyi", "n": 36, "seed": 4},
                       "schemes": ["cowen"], "scenario": "flash-crowd",
                       "k": 2, "epochs": 2, "epoch_packets": 256,
                       "stale_packets": 128}})
        report = run_spec(spec, out_dir=tmp_path)
        rows = report.rows
        assert {row["scheme"] for row in rows} == {"cowen"}
        assert all(row["delivered"] + row["unreachable"] == row["packets"]
                   for row in rows)
        assert "timelines" in report.merged.metadata


class TestCLI:
    def test_main_runs_config(self, tmp_path, capsys):
        from repro.experiments.matrix.__main__ import main

        config = tmp_path / "cli.json"
        config.write_text(json.dumps({
            "name": "cli-smoke", "kind": "grid", "seeds": [0],
            "params": {"graphs": [{"family": "erdos-renyi", "n": 30, "seed": 1}],
                       "schemes": ["shortest-path"], "ks": [2], "num_pairs": 8}}))
        code = main([str(config), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-smoke" in out and "ran=[0]" in out
