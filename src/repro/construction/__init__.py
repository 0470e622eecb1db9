"""Array-native, parallel scheme construction.

The evaluation path has been compiled and batched for a while (the lockstep
engine) but preprocessing used to be scalar Python: one Dijkstra per tree or
cluster, Python set coarsening for covers, per-entry dict passes for next-hop
tables.  This package makes construction itself batch array work:

* :class:`~repro.construction.context.BuildContext` — the shared per-graph
  build state: batched multi-source shortest-path-tree forests (one
  SciPy kernel call per chunk of roots instead of one call per tree, with
  per-chunk distance limits so small cluster trees stay local searches),
  streamed ball tables in CSR form, one
  :func:`~repro.graphs.trees.build_forest` pass per chunk of trees (whose
  slot arrays :meth:`repro.routing.forwarding.TreeBank.freeze`
  concatenates as they are), and an order-preserving worker-thread ``map``
  for independent scales / cluster chunks.

``build_matrix`` (the construction sibling of ``run_matrix``) lives in
:mod:`repro.experiments.harness`.
"""

from repro.construction.context import (BuildContext, SPTJob,
                                        tree_from_predecessors)

__all__ = [
    "BuildContext",
    "SPTJob",
    "tree_from_predecessors",
]
