"""Streaming statistics for million-packet traffic runs.

The traffic engine never stores per-packet walks: each routed batch is
reduced on the spot into the structures here, so a run's resident state is
O(batches + histogram bins), not O(packets).  Two layers cooperate:

* **Per-batch digests** — count / sum / sum-of-squares / min / max of every
  metric, keyed by *batch index*.  Reduction at summary time iterates the
  digests in batch-index order, so the aggregate mean/std are **bit-identical
  however the batches were partitioned across shards** (float addition is not
  associative; a fixed reduction order makes the result partition-independent).
* **Mergeable quantile histograms** — a base-``2^(1/128)`` log-bucketed
  histogram for real-valued metrics (stretch) and an exact integer histogram
  for hop counts.  Bucket counts are integers, so merging shard histograms is
  exact and commutative: the official ``p50/p95/p99`` quantiles are identical
  for every shard count.

:class:`TrafficStats` bundles the metric streams with the delivery counters
and owns the cross-shard ``merge`` (shards stream disjoint batch-index sets,
so digest merging is a disjoint dict union).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require

#: log-histogram resolution: buckets at powers of ``2 ** (1 / LOG_BINS_PER_OCTAVE)``
#: (relative width ~0.54%, so reported quantiles sit within ~0.3% of the truth)
LOG_BINS_PER_OCTAVE = 128

#: relative accuracy bound of a log-histogram quantile (half a bucket width)
LOG_QUANTILE_RTOL = 2.0 ** (1.0 / (2 * LOG_BINS_PER_OCTAVE)) - 1.0


class LogHistogram:
    """Log-bucketed counting histogram for positive reals (DDSketch-style).

    Bucket ``i`` covers ``[2**(i/K), 2**((i+1)/K))`` with
    ``K = LOG_BINS_PER_OCTAVE``; a value is represented by the bucket's
    geometric midpoint, so any quantile is reported within
    :data:`LOG_QUANTILE_RTOL` relative error.  Counts are integers — merging
    histograms is exact and commutative, which is what makes the official
    traffic quantiles identical across shard counts.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        require(bool((values > 0).all()),
                "log histogram accepts strictly positive values")
        buckets = np.floor(np.log2(values) * LOG_BINS_PER_OCTAVE).astype(np.int64)
        uniq, counts = np.unique(buckets, return_counts=True)
        store = self._counts
        for b, c in zip(uniq.tolist(), counts.tolist()):
            store[b] = store.get(b, 0) + c

    def merge(self, other: "LogHistogram") -> None:
        store = self._counts
        for b, c in other._counts.items():
            store[b] = store.get(b, 0) + c

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile as the matched bucket's geometric midpoint."""
        require(0.0 <= q <= 1.0, f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return float("nan")
        target = max(1, int(math.ceil(q * total)))
        running = 0
        for bucket in sorted(self._counts):
            running += self._counts[bucket]
            if running >= target:
                return 2.0 ** ((bucket + 0.5) / LOG_BINS_PER_OCTAVE)
        raise AssertionError("unreachable: ranks exhausted below total count")


class IntHistogram:
    """Exact counting histogram for small non-negative integers (hop counts)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return
        require(bool((values >= 0).all()),
                "integer histogram accepts non-negative values")
        uniq, counts = np.unique(values, return_counts=True)
        store = self._counts
        for b, c in zip(uniq.tolist(), counts.tolist()):
            store[b] = store.get(b, 0) + c

    def merge(self, other: "IntHistogram") -> None:
        store = self._counts
        for b, c in other._counts.items():
            store[b] = store.get(b, 0) + c

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile (a value that occurs in the stream)."""
        require(0.0 <= q <= 1.0, f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return float("nan")
        target = max(1, int(math.ceil(q * total)))
        running = 0
        for value in sorted(self._counts):
            running += self._counts[value]
            if running >= target:
                return float(value)
        raise AssertionError("unreachable: ranks exhausted below total count")


class MetricStream:
    """One metric's streaming state: per-batch digests + quantile histogram.

    ``kind="log"`` uses the relative-error log histogram (real-valued metrics
    such as stretch); ``kind="int"`` uses exact integer counts (hop counts).
    """

    def __init__(self, kind: str,
                 quantiles: Sequence[float] = (0.5, 0.95, 0.99)) -> None:
        require(kind in ("log", "int"), f"kind must be 'log' or 'int', got {kind!r}")
        self.kind = kind
        self.quantiles = tuple(quantiles)
        self.histogram = LogHistogram() if kind == "log" else IntHistogram()
        #: batch index -> (count, sum, sum of squares, min, max)
        self._digests: Dict[int, Tuple[int, float, float, float, float]] = {}

    def update(self, batch_index: int, values: np.ndarray) -> None:
        """Fold one batch's metric values in (at most once per batch index)."""
        batch_index = int(batch_index)
        require(batch_index not in self._digests,
                f"batch {batch_index} was already folded into this stream")
        values = np.asarray(values, dtype=float)
        if values.size:
            digest = (int(values.size), float(values.sum()),
                      float(np.square(values).sum()),
                      float(values.min()), float(values.max()))
        else:
            digest = (0, 0.0, 0.0, math.inf, -math.inf)
        self._digests[batch_index] = digest
        if values.size:
            self.histogram.update(values)

    # -- cross-shard merge ------------------------------------------------ #
    def shift_batches(self, offset: int) -> None:
        """Re-key every digest by ``batch_index + offset``.

        Used when concatenating runs that each numbered their batches from
        zero (e.g. the epochs of a live timeline) into one merged stream:
        shifting makes the batch-index sets disjoint so ``merge`` stays exact.
        """
        offset = int(offset)
        if offset == 0:
            return
        self._digests = {b + offset: d for b, d in self._digests.items()}

    def merge(self, other: "MetricStream") -> None:
        """Fold a disjoint shard's stream into this one (exact)."""
        require(self.kind == other.kind, "cannot merge streams of different kinds")
        overlap = self._digests.keys() & other._digests.keys()
        require(not overlap,
                f"shards streamed overlapping batches: {sorted(overlap)[:4]}")
        self._digests.update(other._digests)
        self.histogram.merge(other.histogram)

    # -- reductions -------------------------------------------------------- #
    @property
    def count(self) -> int:
        return sum(d[0] for d in self._digests.values())

    def _reduce(self) -> Tuple[int, float, float, float, float]:
        """Reduce digests in batch-index order (partition-independent floats)."""
        count, total, total_sq = 0, 0.0, 0.0
        low, high = math.inf, -math.inf
        for index in sorted(self._digests):
            c, s, sq, lo, hi = self._digests[index]
            count += c
            total += s
            total_sq += sq
            low = min(low, lo)
            high = max(high, hi)
        return count, total, total_sq, low, high

    def summary(self, prefix: str) -> Dict[str, float]:
        """Flat headline stats: avg/min/max/std plus histogram quantiles."""
        count, total, total_sq, low, high = self._reduce()
        out: Dict[str, float] = {f"{prefix}_count": count}
        if count:
            mean = total / count
            variance = max(total_sq / count - mean * mean, 0.0)
            out[f"avg_{prefix}"] = mean
            out[f"min_{prefix}"] = low
            out[f"max_{prefix}"] = high
            out[f"std_{prefix}"] = math.sqrt(variance)
        else:
            out[f"avg_{prefix}"] = float("nan")
            out[f"min_{prefix}"] = float("nan")
            out[f"max_{prefix}"] = float("nan")
            out[f"std_{prefix}"] = float("nan")
        for q in self.quantiles:
            out[f"{prefix}_p{round(q * 100)}"] = self.histogram.quantile(q)
        return out


class ErrorDigest:
    """Per-batch digests of a scoring-certificate error metric.

    The approximate scoring modes (see :mod:`repro.traffic.scoring`) emit a
    per-sampled-packet error value per batch — e.g. the landmark mode's gap
    between the certified stretch bound and the exact sampled stretch.
    Values can legitimately be zero, so the log histogram does not apply;
    digests (count / sum / sum of squares / max, keyed by batch index) give
    exactly-mergeable mean/std/max with the same partition-independence
    argument as :class:`MetricStream`.
    """

    __slots__ = ("_digests",)

    def __init__(self) -> None:
        #: batch index -> (count, sum, sum of squares, max)
        self._digests: Dict[int, Tuple[int, float, float, float]] = {}

    def update(self, batch_index: int, values: np.ndarray) -> None:
        batch_index = int(batch_index)
        require(batch_index not in self._digests,
                f"batch {batch_index} was already folded into this digest")
        values = np.asarray(values, dtype=float)
        if values.size:
            self._digests[batch_index] = (
                int(values.size), float(values.sum()),
                float(np.square(values).sum()), float(values.max()))
        else:
            self._digests[batch_index] = (0, 0.0, 0.0, -math.inf)

    def shift_batches(self, offset: int) -> None:
        """Re-key every digest by ``batch_index + offset`` (see MetricStream)."""
        offset = int(offset)
        if offset == 0:
            return
        self._digests = {b + offset: d for b, d in self._digests.items()}

    def merge(self, other: "ErrorDigest") -> None:
        overlap = self._digests.keys() & other._digests.keys()
        require(not overlap,
                f"shards folded overlapping error batches: {sorted(overlap)[:4]}")
        self._digests.update(other._digests)

    @property
    def count(self) -> int:
        return sum(d[0] for d in self._digests.values())

    def summary(self, prefix: str = "score_error") -> Dict[str, float]:
        """Flat mean/std/max fields (empty dict when nothing was folded)."""
        if not self._digests:
            return {}
        count, total, total_sq = 0, 0.0, 0.0
        high = -math.inf
        for index in sorted(self._digests):
            c, s, sq, hi = self._digests[index]
            count += c
            total += s
            total_sq += sq
            high = max(high, hi)
        out: Dict[str, float] = {f"{prefix}_count": count}
        if count:
            mean = total / count
            out[f"avg_{prefix}"] = mean
            out[f"max_{prefix}"] = high
            out[f"std_{prefix}"] = math.sqrt(
                max(total_sq / count - mean * mean, 0.0))
        return out


class TrafficStats:
    """Streaming statistics of one traffic run (or one shard of it).

    Holds the stretch and hop-count :class:`MetricStream` plus integer
    delivery counters.  Memory is O(batches + histogram bins) regardless of
    packet count.  ``merge`` combines shards that streamed disjoint batch
    sets; every merged field is exactly partition-independent (see the
    module docstring).

    ``bounded`` records whether the stretch stream holds *certified upper
    bounds* (a bounding scorer such as the landmark mode was active) rather
    than exact stretch values.  Bounded runs publish their stretch fields
    under the ``stretch_upper`` prefix (``avg_stretch_upper``,
    ``stretch_upper_p99``, ...) so a bound is never mistaken for a
    measurement; the certificate slack lives in the ``score_error`` fields.
    """

    def __init__(self, bounded: bool = False) -> None:
        self.stretch = MetricStream("log", quantiles=(0.5, 0.95, 0.99))
        self.hops = MetricStream("int", quantiles=(0.5, 0.95, 0.99))
        #: certificate gaps from approximate scoring (empty under exact)
        self.score_error = ErrorDigest()
        #: True when the stretch stream holds certified upper bounds
        self.bounded = bool(bounded)
        self.packets = 0
        self.delivered = 0
        self.failures = 0       # reachable destination, scheme did not deliver
        self.unreachable = 0    # no path exists (e.g. detached by churn)
        self.batches: set = set()

    @property
    def stretch_prefix(self) -> str:
        """Field-name prefix of the stretch stream: exact vs certified bound."""
        return "stretch_upper" if self.bounded else "stretch"

    def update_batch(self, batch_index: int, stretch_values: np.ndarray,
                     hop_values: np.ndarray, packets: int, delivered: int,
                     failures: int, unreachable: int,
                     error_values: Optional[np.ndarray] = None) -> None:
        """Fold one routed batch's reductions in."""
        batch_index = int(batch_index)
        require(batch_index not in self.batches,
                f"batch {batch_index} was already folded into these stats")
        self.batches.add(batch_index)
        self.stretch.update(batch_index, stretch_values)
        self.hops.update(batch_index, hop_values)
        if error_values is not None:
            self.score_error.update(batch_index, error_values)
        self.packets += int(packets)
        self.delivered += int(delivered)
        self.failures += int(failures)
        self.unreachable += int(unreachable)

    def shift_batches(self, offset: int) -> None:
        """Re-key every folded batch by ``batch_index + offset``.

        Makes batch-index sets disjoint when concatenating runs that each
        numbered batches from zero (e.g. live-timeline epochs), so a
        subsequent ``merge`` keeps its exactness guarantees.
        """
        offset = int(offset)
        if offset == 0:
            return
        self.batches = {b + offset for b in self.batches}
        self.stretch.shift_batches(offset)
        self.hops.shift_batches(offset)
        self.score_error.shift_batches(offset)

    def merge(self, other: "TrafficStats") -> "TrafficStats":
        """Fold a disjoint shard's stats into this one; returns ``self``."""
        overlap = self.batches & other.batches
        require(not overlap,
                f"shards streamed overlapping batches: {sorted(overlap)[:4]}")
        if not self.batches:
            self.bounded = other.bounded
        else:
            require(self.bounded == other.bounded or not other.batches,
                    "cannot merge exact-stretch stats with bounded-stretch "
                    "stats: the streams measure different quantities")
        self.batches |= other.batches
        self.stretch.merge(other.stretch)
        self.hops.merge(other.hops)
        self.score_error.merge(other.score_error)
        self.packets += other.packets
        self.delivered += other.delivered
        self.failures += other.failures
        self.unreachable += other.unreachable
        return self

    def summary(self, include_p2: bool = False) -> Dict[str, float]:
        """Flat headline dict (the traffic engine's report payload).

        Every field is bit-identical across shard counts and engines.  Under
        an approximate scoring mode the certificate-error fields
        (``avg/max/std_score_error``) and the sampling standard error of the
        mean stretch (``{prefix}_stderr``) join the payload.

        ``include_p2`` is accepted and ignored: it selected the retired P²
        quantile-sketch fields, and the benchmark harness still passes it.

        When ``bounded`` is set the stretch fields are emitted under the
        ``stretch_upper`` prefix — they are certified upper bounds, not
        measurements, and must never be compared against exact-mode
        ``stretch`` fields.
        """
        out: Dict[str, float] = {
            "packets": self.packets,
            "delivered": self.delivered,
            "failures": self.failures,
            "unreachable": self.unreachable,
        }
        prefix = self.stretch_prefix
        out.update(self.stretch.summary(prefix))
        out.update(self.hops.summary("hops"))
        error = self.score_error.summary()
        if error:
            out.update(error)
            count = out.get(f"{prefix}_count", 0)
            if count:
                out[f"{prefix}_stderr"] = \
                    out[f"std_{prefix}"] / math.sqrt(count)
        return out
