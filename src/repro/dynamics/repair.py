"""Scheme repair after graph churn: one full-rebuild path.

``RoutingSchemeInstance.maintain(delta)`` lands here for every scheme.  The
repair is :func:`full_rebuild`: re-run the scheme's own construction on the
mutated graph (same parameters and seed, recovered via ``rebuild_spec()``)
and adopt the fresh state in place, so every live reference to the instance
keeps working.  A batch that changed no edge skips the rebuild
(``maintain`` reports it as ``"unchanged"``).

Every repair returns a :class:`RepairReport` so churn runners can account
the repair cost of each event batch.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.routing.scheme_api import RoutingSchemeInstance


@dataclass
class RepairReport:
    """Cost accounting of one ``maintain()`` call (one event batch)."""

    scheme: str
    strategy: str              # "full-rebuild" | "unchanged"
    seconds: float
    #: always 0 since no repair patches destinations; perfbench still reads it
    dirty_destinations: int = 0


def full_rebuild(scheme: "RoutingSchemeInstance") -> RepairReport:
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
