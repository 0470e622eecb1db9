"""Abstract interface implemented by every routing scheme in the library.

A *scheme instance* is the result of preprocessing one graph: a set of
per-node routing tables plus the logic to route by destination *name*.  The
interface deliberately mirrors the quantities the paper trades off:

* :meth:`route` — produce a walk to the destination (stretch is measured by
  the simulator from the walk);
* :meth:`table_bits` / :meth:`max_table_bits` — per-node space;
* :meth:`header_bits` — worst-case message header size;
* :meth:`label_bits` — for *labeled* schemes, the size of the topology-aware
  address a sender must know (0 for name-independent schemes — that is the
  whole point of the model).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Hashable, Optional

from repro.graphs.graph import WeightedGraph
from repro.routing.messages import RouteResult
from repro.routing.table import TableCollection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.dynamics.events import GraphDelta
    from repro.dynamics.repair import RepairReport
    from repro.routing.forwarding import ForwardingProgram


class RoutingSchemeInstance(abc.ABC):
    """Preprocessed routing state for one graph."""

    #: short machine-readable scheme name ("agm", "cowen", ...)
    scheme_name: str = "abstract"
    #: whether node addresses are topology-dependent labels (labeled model)
    labeled: bool = False

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.tables = TableCollection(graph.n)

    # -- routing ----------------------------------------------------------- #
    @abc.abstractmethod
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Route from node index ``source`` to the node named ``destination_name``."""

    def route_by_index(self, source: int, destination: int) -> RouteResult:
        """Convenience wrapper: route to a destination given by node index."""
        return self.route(source, self.graph.name_of(destination))

    # -- compiled forwarding ------------------------------------------------- #
    def compile_forwarding(self) -> "ForwardingProgram":
        """Compile this scheme's routing state into a forwarding program.

        Schemes that can express their per-hop decisions over flat arrays
        (tree banks, next-hop tables) override this and return a
        :class:`repro.routing.forwarding.ForwardingProgram`; the lockstep
        batch engine then advances whole packet batches with array gathers
        while producing walks identical to :meth:`route`.  Every scheme in
        the library does; a scheme without a compiled form raises here and
        is evaluated with ``engine="scalar"``.
        """
        raise NotImplementedError(
            f"scheme {self.scheme_name!r} has no compiled forwarding program; "
            "evaluate it with engine=\"scalar\"")

    def compiled_forwarding(self) -> "ForwardingProgram":
        """The compiled forwarding program, built once and cached."""
        program = getattr(self, "_compiled_program", None)
        if program is None:
            program = self._compiled_program = self.compile_forwarding()
        return program

    # -- dynamic maintenance ------------------------------------------------- #
    def maintain(self, delta: Optional["GraphDelta"] = None) -> "RepairReport":
        """Repair this instance after the underlying graph mutated.

        Called once per event batch (after
        :func:`repro.dynamics.events.apply_events` edited ``self.graph`` in
        place).  Every scheme repairs the same way: a full rebuild on the
        mutated graph through :func:`repro.dynamics.repair.full_rebuild`,
        which re-runs this instance's construction (same parameters and
        seed, via :meth:`rebuild_spec`) and adopts the fresh state in place.
        A ``delta`` that changed no edge leaves the instance and its compiled
        program as they are (strategy ``"unchanged"``); ``delta=None``
        always rebuilds.  Returns a
        :class:`repro.dynamics.repair.RepairReport` with the wall-time and
        strategy so churn runners can report repair cost per event batch.
        """
        from repro.dynamics.repair import RepairReport, full_rebuild

        if delta is not None and not delta.changed_edges():
            return RepairReport(scheme=self.scheme_name, strategy="unchanged",
                                seconds=0.0)
        return full_rebuild(self)

    def rebuild_spec(self) -> Dict[str, object]:
        """Constructor kwargs that recreate this instance on its (mutated) graph.

        Collected from the attributes every scheme in the library stores at
        construction time; :func:`repro.dynamics.repair.full_rebuild` filters
        them against the concrete constructor's signature, so schemes only
        need to keep their parameters on ``self`` (plus ``_build_seed`` for
        reproducible resampling) for the generic rebuild to be faithful.
        """
        spec: Dict[str, object] = {}
        for attr in ("k", "params", "name_bits", "sample_probability",
                     "responsibility_factor", "oracle"):
            if hasattr(self, attr):
                spec[attr] = getattr(self, attr)
        if hasattr(self, "_build_seed"):
            spec["seed"] = self._build_seed
        return spec

    # -- space accounting ---------------------------------------------------- #
    def table_bits(self, node: int) -> int:
        """Size in bits of ``node``'s routing table."""
        return self.tables.table_bits(node)

    def max_table_bits(self) -> int:
        """Largest routing table over all nodes (the paper's space measure)."""
        return self.tables.max_bits()

    def avg_table_bits(self) -> float:
        """Average routing table size."""
        return self.tables.avg_bits()

    def total_bits(self) -> int:
        """Total routing information in the network."""
        return self.tables.total_bits()

    def table_breakdown(self) -> Dict[str, int]:
        """Total bits per table category (diagnostic)."""
        return self.tables.breakdown()

    def label_bits(self, node: int) -> int:
        """Size of the routing *label* of ``node`` (0 for name-independent schemes)."""
        return 0

    def max_label_bits(self) -> int:
        """Largest label over all nodes."""
        return max(self.label_bits(v) for v in range(self.graph.n))

    def header_bits(self) -> int:
        """Worst-case message header size in bits, computed once per build.

        Every ``route()`` reports it; the value is cached on the instance, so
        a rebuild (which replaces the instance state) recomputes it.
        """
        bits = getattr(self, "_header_bits", None)
        if bits is None:
            bits = self._header_bits = self.compute_header_bits()
        return bits

    @abc.abstractmethod
    def compute_header_bits(self) -> int:
        """Scan this build's structures for the worst-case header size."""

    # -- misc ---------------------------------------------------------------- #
    def describe(self) -> Dict[str, object]:
        """Headline facts about this instance (used in reports)."""
        return {
            "scheme": self.scheme_name,
            "labeled": self.labeled,
            "n": self.graph.n,
            "max_table_bits": self.max_table_bits(),
            "avg_table_bits": self.avg_table_bits(),
            "max_label_bits": self.max_label_bits(),
            "header_bits": self.header_bits(),
        }
