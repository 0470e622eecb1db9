"""Convenience constructor for every routing scheme in the library."""

from __future__ import annotations

from typing import Optional

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.scheme_api import RoutingSchemeInstance


#: canonical scheme names accepted by :func:`build_scheme`
SCHEME_NAMES = (
    "agm",
    "shortest-path",
    "cowen",
    "thorup-zwick",
    "awerbuch-peleg",
    "exponential",
)


def build_scheme(
    name: str,
    graph: WeightedGraph,
    k: int = 2,
    seed=None,
    oracle: Optional[DistanceOracle] = None,
    **kwargs,
) -> RoutingSchemeInstance:
    """Build the named routing scheme for ``graph``.

    Parameters
    ----------
    name:
        One of :data:`SCHEME_NAMES`.
    graph:
        The network.
    k:
        Trade-off parameter (ignored by schemes that have none, e.g.
        shortest-path and Cowen).
    seed:
        Randomness for the scheme's sampling / hashing.
    oracle:
        Optional distance oracle shared across schemes (each scheme makes a
        default one otherwise).  Every oracle holds the exact lazy store, so
        every scheme is built from exact distances.
    kwargs:
        Scheme-specific extras (e.g. ``params`` for "agm").
    """
    # Imports are local so that loading the factory does not drag in every
    # scheme module (and to keep the package import graph acyclic).
    key = name.lower().replace("_", "-")
    if key == "agm":
        from repro.core.scheme import AGMRoutingScheme

        return AGMRoutingScheme(graph, k=k, seed=seed, oracle=oracle, **kwargs)
    if key in ("shortest-path", "spt", "full-tables"):
        from repro.baselines.shortest_path import ShortestPathRouting

        return ShortestPathRouting(graph, oracle=oracle, **kwargs)
    if key == "cowen":
        from repro.baselines.cowen import CowenRouting

        return CowenRouting(graph, seed=seed, oracle=oracle, **kwargs)
    if key in ("thorup-zwick", "tz"):
        from repro.baselines.thorup_zwick import ThorupZwickRouting

        return ThorupZwickRouting(graph, k=k, seed=seed, oracle=oracle, **kwargs)
    if key in ("awerbuch-peleg", "hierarchical"):
        from repro.baselines.awerbuch_peleg import AwerbuchPelegRouting

        return AwerbuchPelegRouting(graph, k=k, seed=seed, oracle=oracle, **kwargs)
    if key in ("exponential", "exponential-stretch", "random-sampling"):
        from repro.baselines.exponential_stretch import ExponentialStretchRouting

        return ExponentialStretchRouting(graph, k=k, seed=seed, oracle=oracle, **kwargs)
    raise ValueError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
