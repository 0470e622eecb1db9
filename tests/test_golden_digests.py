"""Golden digests of built schemes, compiled forwarding programs and lockstep outcomes.

Every scheme is built on the small conftest families, compiled, and routed
over all ordered node pairs.  AGM is also pinned at the benchmark's constant
sets: ``AGMParams.paper()`` with k=2, and ``experiment(0.05)`` with k=3,
under which the last-resort fallback fires.  Two more domains pin
construction itself:

* the build domain: all six schemes on ``make_workload`` graphs
  (Erdős–Rényi n=72, Barabási–Albert n=72, grid n=64; graph seed 7) with
  scheme seeds 3 and 11 at k=2, AGM at ``AGMParams.paper()``; plus AGM at
  ``experiment(landmark_count_factor=0.02)`` with k=2 and k=3, whose small
  nearby-landmark count drives the streamed top-``nearby`` membership sweep;
* the trie shapes of Lemma 4: AGM at ``AGMParams.paper()`` with k=1 (every
  center tree is a one-digit trie) and k=4, 5 (depth-4 tries with a partial
  deepest level) on the Barabási–Albert and grid graphs, scheme seeds 3
  and 11;
* a disconnected graph (an Erdős–Rényi component, a grid component and an
  isolated node), which exercises per-component fallback trees and
  unreachable rows.

For each case the per-node table and label bits, the per-category table
totals and the header size of the built scheme, the integer arrays of the
compiled program (tree-bank slots, membership index, next-hop table
entries) and of the ``run_lockstep(..., materialize=False)`` outcome are
hashed with sha256 and compared against ``golden_digests.json``.  Only
integers (and the resolved strategy names) are hashed, so the digests do
not depend on float summation order across numpy versions.

Any change to construction or forwarding that alters a table size, a
compiled table or a single hop shows up here.  Regenerate the file only for
an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.core.params import AGMParams
from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import (erdos_renyi_graph, grid_graph,
                                     random_geometric_graph, ring_of_cliques)
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import run_lockstep

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SCHEME_SEED = 5

#: the conftest families (same generators and seeds)
FAMILIES = {
    "small_geometric": lambda: random_geometric_graph(48, seed=101),
    "small_grid": lambda: grid_graph(6, 6, seed=103),
    "small_cliques": lambda: ring_of_cliques(6, 6, seed=104),
}


def _disconnected_graph() -> WeightedGraph:
    """An Erdős–Rényi and a grid component plus one isolated node (n=56)."""
    edges, offset = [], 0
    for part in (erdos_renyi_graph(30, seed=2), grid_graph(5, 5, seed=3)):
        edges += [(u + offset, v + offset, w) for u, v, w in part.edges()]
        offset += part.n
    return WeightedGraph(offset + 1, edges, seed=4)


#: every graph a case can name: the conftest families, the build domain's
#: graphs and the disconnected graph
GRAPHS = {
    **FAMILIES,
    "erdos-renyi-72": lambda: make_workload("erdos-renyi", 72, seed=7),
    "barabasi-albert-72": lambda: make_workload("barabasi-albert", 72, seed=7),
    "grid-64": lambda: make_workload("grid", 64, seed=7),
    "disconnected-56": _disconnected_graph,
}
BUILD_GRAPHS = ["erdos-renyi-72", "barabasi-albert-72", "grid-64"]
BUILD_SEEDS = [3, 11]
#: k and graphs of the Lemma 4 trie-shape cases (``AGMParams.paper()``)
TRIE_SHAPE_KS = [1, 4, 5]
TRIE_SHAPE_GRAPHS = ["barabasi-albert-72", "grid-64"]


def _digest(array) -> str:
    data = np.ascontiguousarray(np.asarray(array).astype("<i8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _text_digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


#: extra AGM constant sets: case prefix -> (k, params)
AGM_CONSTANTS = {
    "agm-paper-k2": (2, AGMParams.paper()),
    "agm-experiment0.05-k3": (3, AGMParams.experiment(0.05)),
}


def compute_digests(scheme_name: str, family: str, k: int = 2,
                    params: Optional[AGMParams] = None,
                    seed: int = SCHEME_SEED) -> dict:
    """Digest one built scheme, its compiled program and its outcome.

    ``family`` names a graph of :data:`GRAPHS`.  ``params`` applies to AGM
    only and defaults to ``AGMParams.experiment()``.
    """
    graph = GRAPHS[family]()
    oracle = DistanceOracle(graph)
    kwargs = {}
    if scheme_name == "agm":
        kwargs["params"] = params if params is not None else AGMParams.experiment()
    scheme = build_scheme(scheme_name, graph, k=k, seed=seed,
                          oracle=oracle, **kwargs)
    n = graph.n
    breakdown = scheme.table_breakdown()
    program = scheme.compiled_forwarding()
    bank = program.bank
    out = {
        "build.table_bits": _digest([scheme.table_bits(v) for v in range(n)]),
        "build.table_breakdown": _text_digest(
            f"{category}={bits}" for category, bits in sorted(breakdown.items())),
        "build.label_bits": _digest([scheme.label_bits(v) for v in range(n)]),
        "build.header_bits": _digest([scheme.header_bits()]),
        "bank.node_of_slot": _digest(bank.node_of_slot),
        "bank.dfs_out": _digest(bank.dfs_out),
        "bank.parent_slot": _digest(bank.parent_slot),
        "bank.member_keys": _digest(bank._member_keys),
        "bank.member_slots": _digest(bank._member_slots),
    }
    for i, table in enumerate(program.tables):
        keys, next_hops = table.entries()
        out[f"table{i}.keys"] = _digest(keys)
        out[f"table{i}.next_hops"] = _digest(next_hops)

    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    outcome = run_lockstep(program, src, dst, materialize=False)
    names = [outcome.strategy_names[c] if c >= 0 else ""
             for c in outcome.strategy_codes.tolist()]
    out.update({
        "outcome.hop_index": _digest(outcome.hop_index),
        "outcome.hop_heads": _digest(outcome.hop_heads),
        "outcome.hop_tails": _digest(outcome.hop_tails),
        "outcome.found": _digest(outcome.found),
        "outcome.final_nodes": _digest(outcome.final_nodes),
        "outcome.phases": _digest(outcome.phases),
        "outcome.strategies": _text_digest(names),
        "outcome.header_bits": _digest(outcome.header_bits),
    })
    return out


def _build_params(scheme_name: str) -> Optional[AGMParams]:
    """``build_scheme``'s own AGM default, for the build and disconnected domains."""
    return AGMParams.paper() if scheme_name == "agm" else None


def _cases():
    """``(case key, scheme, graph, k, params, seed)`` of every pinned case."""
    cases = [(f"{s}/{f}", s, f, 2, None, SCHEME_SEED)
             for s in SCHEME_NAMES for f in FAMILIES]
    cases += [(f"{prefix}/{f}", "agm", f, k, params, SCHEME_SEED)
              for prefix, (k, params) in AGM_CONSTANTS.items() for f in FAMILIES]
    cases += [(f"build/{s}/{g}/seed{seed}", s, g, 2, _build_params(s), seed)
              for s in SCHEME_NAMES for g in BUILD_GRAPHS for seed in BUILD_SEEDS]
    cases += [(f"build/agm-experiment0.02-k{k}/{g}/seed{seed}", "agm", g, k,
               AGMParams.experiment(landmark_count_factor=0.02), seed)
              for k in (2, 3) for g in BUILD_GRAPHS for seed in BUILD_SEEDS]
    cases += [(f"build/agm-paper-k{k}/{g}/seed{seed}", "agm", g, k,
               AGMParams.paper(), seed)
              for k in TRIE_SHAPE_KS for g in TRIE_SHAPE_GRAPHS
              for seed in BUILD_SEEDS]
    cases += [(f"disconnected/{s}/seed{seed}", s, "disconnected-56", 2,
               _build_params(s), seed)
              for s in SCHEME_NAMES for seed in BUILD_SEEDS]
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key,scheme_name,family,k,params,seed", _cases(),
                         ids=[case[0].replace("/", "-") for case in _cases()])
def test_digests_match_golden(golden, key, scheme_name, family, k, params, seed):
    assert compute_digests(scheme_name, family, k=k, params=params,
                           seed=seed) == golden[key]


def _regenerate() -> None:
    digests = {key: compute_digests(s, f, k=k, params=params, seed=seed)
               for key, s, f, k, params, seed in _cases()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_digests.py --regenerate")
    _regenerate()
