"""Scheme repair after graph churn: generic full rebuild + shared helpers.

``RoutingSchemeInstance.maintain(delta)`` lands here by default.  The safe,
always-correct repair is :func:`full_rebuild`: re-run the scheme's own
construction on the mutated graph (same parameters and seed, recovered via
``rebuild_spec()``) and adopt the fresh state in place, so every live
reference to the instance keeps working.  Every scheme but one repairs this
way.

:class:`~repro.baselines.thorup_zwick.ThorupZwickRouting` overrides
``maintain`` with an incremental path: it rebuilds only the cluster trees
whose member set changed or whose tree stopped being a shortest-path tree
(:func:`tree_is_intact`); reused trees keep their routing labels and their
cached forwarding slot arrays, so the recompiled tree bank re-slots only the
dirtied trees.

Every path returns a :class:`RepairReport` so churn runners can account the
repair cost of each event batch.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.trees import Tree

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.dynamics.events import GraphDelta
    from repro.routing.scheme_api import RoutingSchemeInstance


@dataclass
class RepairReport:
    """Cost accounting of one ``maintain()`` call (one event batch)."""

    scheme: str
    strategy: str              # "full-rebuild" | "incremental"
    seconds: float
    rebuilt_trees: int = 0
    reused_trees: int = 0
    dirty_destinations: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for tabular reporting."""
        return {
            "scheme": self.scheme,
            "strategy": self.strategy,
            "seconds": self.seconds,
            "rebuilt_trees": self.rebuilt_trees,
            "reused_trees": self.reused_trees,
            "dirty_destinations": self.dirty_destinations,
        }


def full_rebuild(scheme: "RoutingSchemeInstance",
                 delta: Optional["GraphDelta"] = None) -> RepairReport:
    """Rebuild ``scheme`` from scratch on its (mutated) graph, in place.

    The fresh instance is constructed with the kwargs ``rebuild_spec()``
    recovers (filtered against the constructor's actual signature, so schemes
    with different parameter sets all work), then its state is adopted into
    the live object — callers holding a reference to ``scheme`` see the
    repaired tables immediately, and the stale compiled forwarding program is
    dropped with the old state.  The shared distance oracle is carried over;
    its backend self-heals via the graph's mutation version.
    """
    start = time.perf_counter()
    spec = scheme.rebuild_spec()
    signature = inspect.signature(type(scheme).__init__)
    kwargs = {key: value for key, value in spec.items()
              if key in signature.parameters}
    fresh = type(scheme)(scheme.graph, **kwargs)
    scheme.__dict__.clear()
    scheme.__dict__.update(fresh.__dict__)
    return RepairReport(scheme=scheme.scheme_name, strategy="full-rebuild",
                        seconds=time.perf_counter() - start)


def tree_is_intact(graph: WeightedGraph, tree: Tree, root_row: np.ndarray,
                   atol: float = 1e-6) -> bool:
    """Whether ``tree`` is still a valid shortest-path tree of ``graph``.

    Two conditions, both against the *current* graph state:

    1. every tree edge still exists with its original weight (failures and
       perturbations both break this), and
    2. every tree node's depth equals the fresh distance from the root
       (``root_row``) — so each root-to-node tree path is still a shortest
       path even if some *other* part of the graph got shorter.

    Together these make a reused tree indistinguishable from a freshly built
    one spanning the same members, which is what lets incremental repair skip
    the rebuild.  The tolerance absorbs float summation-order differences
    between tree depths and the Dijkstra kernel.
    """
    parents = tree.parent_ids()
    linked = parents >= 0
    if linked.any():
        # a missing edge reads as weight 0, which no tree edge has
        current = np.asarray(graph.to_scipy_csr()[parents[linked],
                                                  tree.node_ids[linked]]).ravel()
        if not np.array_equal(current, tree.weight[linked]):
            return False
    return bool((np.abs(tree.depth - root_row[tree.node_ids]) <= atol).all())
