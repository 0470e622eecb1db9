"""Route results.

A routing scheme answers a request ``route(source, destination_name)`` by
*walking* the graph: the returned :class:`RouteResult` records the exact node
sequence visited (including detours and backtracking — those are what stretch
measures), plus bookkeeping about which phase/strategy found the destination
and how large the message header had to be.  The paper's claim is that
headers stay polylogarithmic (``~O(1)`` in their notation); every scheme
reports its worst-case header size
(:meth:`repro.routing.scheme_api.RoutingSchemeInstance.header_bits`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RouteResult:
    """Outcome of routing one message.

    Attributes
    ----------
    found:
        Whether the destination was reached.
    path:
        The full node-index sequence walked, starting at the source and —
        when ``found`` — ending at the destination.  Consecutive entries are
        graph-adjacent; the simulator re-derives the cost from this sequence,
        so schemes cannot under-report.
    cost:
        Weighted length of ``path`` as computed by the scheme (the simulator
        cross-checks it).
    phases_used:
        Number of top-level phases (levels ``i``) the scheme went through.
    strategy:
        Which strategy found the destination ("sparse", "dense", "fallback",
        or scheme-specific).
    max_header_bits:
        Largest header observed while routing.
    notes:
        Free-form diagnostics (negative responses, fallbacks fired, ...).
    """

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    phases_used: int = 0
    strategy: str = ""
    max_header_bits: int = 0
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def hops(self) -> int:
        """Number of edges traversed."""
        return max(len(self.path) - 1, 0)

    @property
    def source(self) -> Optional[int]:
        """First node of the walk (None for an empty path)."""
        return self.path[0] if self.path else None

    @property
    def last_node(self) -> Optional[int]:
        """Last node of the walk (None for an empty path)."""
        return self.path[-1] if self.path else None

    def extend(self, segment: List[int]) -> None:
        """Append a walk segment, gluing the shared endpoint if present."""
        if not segment:
            return
        if self.path and segment[0] == self.path[-1]:
            self.path.extend(segment[1:])
        else:
            self.path.extend(segment)
