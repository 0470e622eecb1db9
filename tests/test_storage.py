"""Budgeted storage layer: spill decisions, accounting, and the acceptance
parity — memmapped and in-RAM builds must produce bit-identical walks and
official traffic statistics."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.backends import LazyDijkstraBackend
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.storage import (
    SPILL_MIN_BYTES,
    alloc_array,
    is_memmap,
    memory_budget,
    persist_array,
    reset_accounting,
    storage_report,
)
from repro.traffic.engine import run_traffic, run_traffic_exact
from repro.traffic.models import make_traffic_model


@pytest.fixture(autouse=True)
def _clean_accounting():
    reset_accounting()
    yield
    reset_accounting()


class TestBudgetParsing:
    @pytest.mark.parametrize("raw,expected", [
        ("", None), ("0", None), ("none", None), ("unlimited", None),
        ("512", 512), ("4K", 4 << 10), ("2m", 2 << 20), ("1G", 1 << 30),
        ("1.5g", int(1.5 * (1 << 30))), ("3T", 3 << 40),
    ])
    def test_suffixes_and_sentinels(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", raw)
        assert memory_budget() == expected

    def test_unset_means_unlimited(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        assert memory_budget() is None

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "lots")
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET"):
            memory_budget()


class TestAllocArray:
    def test_unlimited_budget_stays_in_ram(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        out = alloc_array((1024, 1024), np.int32, fill=-1)
        assert not is_memmap(out)
        assert out.dtype == np.int32 and out.shape == (1024, 1024)
        assert np.all(out == -1)

    def test_over_budget_spills_with_fill(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
        out = alloc_array((1024, 1024), np.int32, fill=-1)   # 4 MB > 1 MB
        assert is_memmap(out)
        assert np.all(out == -1)
        report = storage_report()
        assert report["spill_count"] == 1
        assert report["spilled_bytes"] == out.nbytes

    def test_small_arrays_never_spill(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1")
        out = alloc_array(SPILL_MIN_BYTES // 8 - 1, np.int8, fill=0)
        assert not is_memmap(out)
        assert np.all(out == 0)

    def test_memmap_is_writable_ndarray(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
        out = alloc_array((2048, 512), np.float64)
        out[5, :] = 7.5
        assert isinstance(out, np.ndarray)
        assert np.all(out[5] == 7.5)

    def test_ram_accounting_released_on_collection(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        out = alloc_array(1 << 21, np.int8, fill=0)
        assert storage_report()["budgeted_ram_bytes"] == out.nbytes
        del out
        gc.collect()
        assert storage_report()["budgeted_ram_bytes"] == 0


class TestPersistArray:
    def test_small_array_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1")
        arr = np.arange(16)
        assert persist_array(arr) is arr

    def test_under_budget_keeps_original(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "64M")
        arr = np.arange(1 << 19, dtype=np.int64)             # 4 MB
        assert persist_array(arr) is arr

    def test_over_budget_copies_to_memmap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
        arr = np.arange(1 << 19, dtype=np.int64)
        out = persist_array(arr)
        assert is_memmap(out)
        np.testing.assert_array_equal(np.asarray(out), arr)

    def test_idempotent_on_memmaps(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
        out = alloc_array((1024, 1024), np.int32, fill=3)
        assert persist_array(out) is out


class TestMemmapRamParity:
    """Acceptance: spilled builds are observationally identical to RAM ones.

    The shortest-path scheme's next-hop matrix at n=700 is ~2 MB, so a 1 MB
    budget forces it (and every persisted build array above the spill floor)
    into memmaps; the walks and official statistics must not change by a
    single bit.
    """

    @pytest.fixture(scope="class")
    def parity_graph(self):
        return barabasi_albert_graph(700, seed=77)

    @pytest.mark.parametrize("scheme_name", ["shortest-path", "cowen"])
    def test_walks_and_stats_bit_identical(self, monkeypatch, parity_graph,
                                           scheme_name):
        def outputs():
            oracle = DistanceOracle(parity_graph, backend="lazy")
            scheme = build_scheme(scheme_name, parity_graph, k=2, seed=5,
                                  oracle=oracle)
            model = make_traffic_model("zipf", parity_graph, seed=9,
                                       support=64)
            report = run_traffic(scheme, model, 6000, batch_size=1024,
                                 shards=2, processes=0, oracle=oracle)
            exact = run_traffic_exact(scheme, model, 2048, batch_size=1024,
                                      oracle=oracle)
            return report, exact

        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        ram_report, ram_exact = outputs()
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "64K")
        # drop the spill floor so cowen's mid-size ball/SPT arrays (a few
        # hundred KB at n=700) take the memmap path too
        monkeypatch.setattr("repro.storage.memmap.SPILL_MIN_BYTES", 1 << 16)
        reset_accounting()
        mm_report, mm_exact = outputs()

        assert storage_report()["spill_count"] > 0, \
            "budget did not force any spill; parity test is vacuous"
        assert ram_report.summary() == mm_report.summary()
        for key in ("stretch", "hops", "found", "finite"):
            np.testing.assert_array_equal(ram_exact[key], mm_exact[key])

    def test_row_store_put_get_discard_and_recycle(self):
        from repro.storage import SpilledRowStore
        from repro.storage.rowstore import EXTENT_ROWS

        # byte cap of one row still floors the capacity at one extent
        store = SpilledRowStore(row_length=8, max_bytes=8 * 8)
        assert store.capacity_rows == EXTENT_ROWS
        rows = {u: np.random.default_rng(u).random(8)
                for u in range(EXTENT_ROWS + 40)}
        for u, row in rows.items():
            store.put(u, row)
        # the cap was hit, so the 40 oldest rows were recycled (LRU order)
        assert len(store) == EXTENT_ROWS
        assert store.recycles == 40
        assert all(u not in store for u in range(40))
        for u in (40, 100, len(rows) - 1):
            got = store.get(u)
            np.testing.assert_array_equal(got, rows[u])
            got[0] = -1.0                       # copies: no write-through
            np.testing.assert_array_equal(store.get(u), rows[u])
        store.discard(40)
        assert 40 not in store
        store.clear()
        assert len(store) == 0 and store.report()["extent_bytes"] == 0

    def test_forked_workers_share_spilled_tables(self, monkeypatch,
                                                 parity_graph):
        # memmap pages are inherited across fork; the forked workers must
        # read the spilled tables and match the inline run
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1M")
        oracle = DistanceOracle(parity_graph, backend="lazy")
        scheme = build_scheme("shortest-path", parity_graph, k=2, seed=5,
                              oracle=oracle)
        model = make_traffic_model("zipf", parity_graph, seed=9, support=64)
        inline = run_traffic(scheme, model, 6000, batch_size=1024,
                             shards=2, processes=0, oracle=oracle)
        forked = run_traffic(scheme, model, 6000, batch_size=1024,
                             shards=2, processes=2, oracle=oracle)
        assert forked.processes
        assert inline.summary() == forked.summary()


class TestRowSpillParity:
    """The spillable row cache is observationally invisible.

    A lazy backend whose LRU is far too small for the working set spills
    evicted rows and restores them on the next touch; walks and official
    statistics must match a backend with an ample RAM cache bit for bit,
    for every scheme.  (Mirrors :class:`TestMemmapRamParity`, which covers
    the *build-array* spill path; this class covers the *row-cache* one.)
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(240, seed=21)

    def _outputs(self, graph, scheme_name, cache_rows):
        backend = LazyDijkstraBackend(graph, cache_rows=cache_rows)
        oracle = DistanceOracle(graph, backend=backend)
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        model = make_traffic_model("zipf", graph, seed=9, support=48)
        report = run_traffic(scheme, model, 4000, batch_size=512,
                             oracle=oracle)
        exact = run_traffic_exact(scheme, model, 1024, batch_size=512,
                                  oracle=oracle)
        return report, exact, backend

    @pytest.mark.parametrize("scheme_name", list(SCHEME_NAMES))
    def test_walks_and_stats_bit_identical(self, scheme_name, graph):
        ram_report, ram_exact, _ = self._outputs(graph, scheme_name,
                                                 cache_rows=graph.n + 8)
        spill_report, spill_exact, backend = self._outputs(graph, scheme_name,
                                                           cache_rows=8)
        assert backend.row_spills > 0, \
            "tiny cache produced no spills; parity test is vacuous"
        assert backend.row_restores > 0, \
            "no spilled row was ever restored; parity test is vacuous"
        assert ram_report.summary() == spill_report.summary()
        for key in ("stretch", "hops", "found", "finite"):
            np.testing.assert_array_equal(ram_exact[key], spill_exact[key])

    def test_spilled_rows_invalidate_on_graph_version_bump(self):
        graph = barabasi_albert_graph(160, seed=33)
        backend = LazyDijkstraBackend(graph, cache_rows=4)
        before = {u: np.array(backend.row(u)) for u in range(24)}
        assert backend.row_spills > 0      # 24 touches through a 4-row LRU
        # drop a shortcut edge that changes many shortest paths
        far = int(np.argmax(before[0]))
        graph.add_edge(0, far, graph.min_weight() / 4.0)
        reference = LazyDijkstraBackend(graph, cache_rows=4)
        for u in range(24):
            np.testing.assert_array_equal(backend.row(u), reference.row(u))
        changed = any(
            not np.array_equal(before[u], backend.row(u)) for u in range(24))
        assert changed, "edge insertion changed no distances; test is vacuous"
