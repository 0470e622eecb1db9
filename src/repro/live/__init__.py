"""Live-network service simulation: traffic and churn on one clock.

The :class:`~repro.live.simulator.LiveSimulator` drives a single seeded
timeline where million-packet traffic epochs (the streaming engine's
batch loop) interleave with churn event batches and per-scheme
``maintain()`` repairs.  Packets caught between a failure and its repair
route on *stale* forwarding state over the mutated graph — the staleness
window — and every epoch emits SLA-style mergeable statistics: delivery
rate, stretch histograms, repair latency, and staleness-window loss.
"""

from repro.live.simulator import (
    EpochRecord,
    LiveSimulator,
    LiveTimeline,
    stale_window_outcome,
)

__all__ = [
    "EpochRecord",
    "LiveSimulator",
    "LiveTimeline",
    "stale_window_outcome",
]
