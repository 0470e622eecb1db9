"""Traffic subsystem: seeded workload models + the sharded streaming engine.

``models`` defines who talks to whom (uniform, Zipf-popular, gravity
/locality, hotspot-adversarial) as batch-indexed deterministic array
generators; ``stats`` holds the streaming statistics (per-batch digests and
exactly mergeable quantile histograms); ``engine`` routes millions of
packets per run over the compiled lockstep forwarding layer, optionally
sharded across forked workers that share the parent's compiled program
copy-on-write.
"""

from repro.traffic.engine import (
    DEFAULT_BATCH_SIZE,
    TrafficReport,
    batch_size_of,
    num_batches,
    processes_enabled,
    run_traffic,
    run_traffic_exact,
    stream_shard,
)
from repro.traffic.models import (
    TRAFFIC_MODEL_NAMES,
    TRAFFIC_MODELS,
    GravityTraffic,
    HotspotTraffic,
    TrafficModel,
    UniformTraffic,
    ZipfTraffic,
    make_traffic_model,
)
from repro.traffic.stats import (
    LOG_QUANTILE_RTOL,
    IntHistogram,
    LogHistogram,
    MetricStream,
    TrafficStats,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "GravityTraffic",
    "HotspotTraffic",
    "IntHistogram",
    "LOG_QUANTILE_RTOL",
    "LogHistogram",
    "MetricStream",
    "TRAFFIC_MODELS",
    "TRAFFIC_MODEL_NAMES",
    "TrafficModel",
    "TrafficReport",
    "TrafficStats",
    "UniformTraffic",
    "ZipfTraffic",
    "batch_size_of",
    "make_traffic_model",
    "num_batches",
    "processes_enabled",
    "run_traffic",
    "run_traffic_exact",
    "stream_shard",
]
