"""Scoring modes for the traffic engine: ``exact`` / ``sampled`` / ``landmark``.

Exact stretch scoring divides every delivered packet's verified walk cost by
the true shortest-path distance — which requires an exact distance row per
destination.  At n=100k a single row is 100k float64s, and a million-packet
Zipf run touches thousands of destinations: evaluation, not construction,
becomes the part that cannot fit.  The two approximate modes bound that
cost:

``sampled``
    Delivery accounting stays exact (reachability is a component-id
    comparison, never a distance), but stretch is measured on a **seeded
    per-batch sample** of delivered packets only — the oracle materializes
    exact rows for at most ``sample_per_batch`` pairs per batch.  The
    stretch quantiles/mean are unbiased estimates whose sampling error is
    reported alongside them (``stretch_stderr`` via the stream digests).

``landmark``
    Every delivered packet is scored against the **certified upper bound**
    ``cost / d_lb(s, t)`` where ``d_lb`` is the ALT landmark lower bound
    ``max_l |d(l, t) - d(l, s)|`` (floored at the minimum edge weight for
    distinct nodes) computed from the exact distance rows of L
    farthest-point landmarks (:func:`farthest_point_landmarks`) — the L
    Dijkstras that pick them are their rows, then O(L) per packet.
    Since ``d_lb <= d``, every reported stretch is ``>=`` the true stretch:
    the quantiles are certified upper bounds.  A seeded per-batch exact
    sample additionally measures the certificate's slack — the per-packet
    gap ``bound - exact`` is folded into ``TrafficStats.score_error`` and
    reported as ``avg/max_score_error``.

Both approximate modes keep delivery/failure/unreachable counters exact and
bit-identical across shard counts and engines: the per-batch sample is a
pure function of ``(seed, batch_index)``, exactly like the traffic models'
batch regeneration.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, single_source_distances
from repro.utils.rng import derive_rng
from repro.utils.validation import require

#: the recognized scoring modes, in increasing exactness
SCORING_MODES = ("landmark", "sampled", "exact")

#: default exact-row sample size per batch for the approximate modes
DEFAULT_SAMPLE_PER_BATCH = 256

#: default landmark count for the ``landmark`` mode's bound rows
DEFAULT_SCORING_LANDMARKS = 16

#: rng stream key for the per-batch scoring sample (distinct from the
#: traffic models' _INIT_KEY=0/_BATCH_KEY=1 streams)
_SCORING_KEY = 2


def farthest_point_landmarks(graph: WeightedGraph, count: int,
                             seed: int = 0) -> Tuple[List[int], np.ndarray]:
    """Up to ``count`` landmarks by the farthest-point (maxmin) rule.

    The first landmark is ``seed % n``; each next one is the node farthest
    from every landmark so far (lowest index on ties).  Nodes in components
    that hold no landmark stay at ``inf``, so every component receives a
    landmark before any receives a second.  Stops early once every node is a
    landmark.  Returns the landmarks and their exact distance rows, one
    ``(L, n)`` array: the single-source Dijkstras that pick them.
    """
    require(count >= 1, "num_landmarks must be >= 1")
    count = min(int(count), graph.n)
    first = int(seed) % graph.n
    landmarks = [first]
    rows = [single_source_distances(graph, first)]
    # a landmark's own row reads 0 at the landmark, so the running minimum
    # drops it from the candidates; np.minimum never writes a kept row
    closest = rows[0]
    while len(landmarks) < count:
        candidate = int(np.argmax(closest))
        if closest[candidate] <= 0:
            break
        landmarks.append(candidate)
        rows.append(single_source_distances(graph, candidate))
        closest = np.minimum(closest, rows[-1])
    return landmarks, np.stack(rows)


class BatchScore(NamedTuple):
    """One batch's scoring reductions (what ``update_batch`` folds)."""

    finite: np.ndarray                  # destination reachable from source
    measured: np.ndarray                # packets whose stretch is folded
    stretch: np.ndarray                 # stretch values (1.0 off-mask)
    error_values: Optional[np.ndarray]  # certificate gaps (landmark mode)


class _ApproxScorer:
    """Shared machinery: component reachability + seeded per-batch samples."""

    #: True when ``score`` emits certified *upper bounds* in the stretch
    #: column instead of exact values; the stats layer then publishes the
    #: stream under the ``stretch_upper`` field prefix.
    bounded = False

    def __init__(self, graph: WeightedGraph, oracle: DistanceOracle,
                 seed=0, sample_per_batch: int = DEFAULT_SAMPLE_PER_BATCH) -> None:
        self.graph = graph
        self.oracle = oracle
        self.seed = seed
        self.sample_per_batch = int(sample_per_batch)
        self._components = graph.component_ids()

    def reachable(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Exact reachability without distances (undirected components)."""
        comp = self._components
        return comp[src] == comp[dst]

    def sample_mask(self, batch_index: int, size: int) -> np.ndarray:
        """Seeded boolean sample over one batch (pure in (seed, index))."""
        mask = np.zeros(size, dtype=bool)
        k = min(self.sample_per_batch, size)
        if k <= 0:
            return mask
        rng = derive_rng(self.seed, _SCORING_KEY, batch_index)
        mask[rng.choice(size, size=k, replace=False)] = True
        return mask

    def exact_stretch(self, src: np.ndarray, dst: np.ndarray,
                      costs: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """True stretch of the selected packets (exact oracle rows)."""
        if not sel.any():
            return np.zeros(0)
        s, d, c = src[sel], dst[sel], costs[sel]
        self.oracle.prefetch(np.unique(d))
        shortest = self.oracle.pair_distances(d, s)
        return np.where(shortest > 0, c / np.where(shortest > 0, shortest, 1.0),
                        1.0)


class SampledScorer(_ApproxScorer):
    """Exact stretch on a seeded subsample; exact delivery accounting."""

    mode = "sampled"

    def score(self, batch_index: int, src: np.ndarray, dst: np.ndarray,
              costs: np.ndarray, found: np.ndarray) -> BatchScore:
        finite = self.reachable(src, dst)
        measured = found & finite & self.sample_mask(batch_index, src.size)
        stretch = np.ones(src.size)
        stretch[measured] = self.exact_stretch(src, dst, costs, measured)
        # sampled stretch is exact on its sample — the certificate error is
        # identically zero; an empty fold still marks the mode as active so
        # the summary reports the sampling standard error
        return BatchScore(finite=finite, measured=measured, stretch=stretch,
                          error_values=np.zeros(0))


class LandmarkScorer(_ApproxScorer):
    """Certified stretch upper bounds from ALT landmark rows + exact sample.

    The stretch column this scorer emits is a *bound*, never a measurement:
    downstream stats publish it as ``stretch_upper_*`` (``bounded = True``),
    with the certified slack of the seeded exact sample in ``score_error``.
    """

    mode = "landmark"
    bounded = True

    def __init__(self, graph: WeightedGraph, oracle: DistanceOracle,
                 seed=0, sample_per_batch: int = DEFAULT_SAMPLE_PER_BATCH,
                 num_landmarks: int = DEFAULT_SCORING_LANDMARKS) -> None:
        super().__init__(graph, oracle, seed=seed,
                         sample_per_batch=sample_per_batch)
        landmarks, rows = farthest_point_landmarks(
            graph, num_landmarks, seed=int(seed or 0) & 0x7FFFFFFF)
        self.landmarks = np.asarray(landmarks, dtype=np.int64)
        #: (L, n) exact distances landmark -> every node
        self.rows = rows
        floor = graph.min_weight()
        self.min_weight = float(floor) if np.isfinite(floor) else 1.0

    def lower_bounds(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """ALT lower bound ``max_l |d(l, dst) - d(l, src)|`` per packet.

        Landmarks outside a pair's component contribute ``inf - inf = nan``
        (masked to 0); a landmark inside it is always finite for both
        endpoints.  Distinct same-component pairs are floored at the global
        minimum edge weight — also a valid lower bound — so the bound is
        strictly positive wherever true distance is.
        """
        diff = np.abs(self.rows[:, dst] - self.rows[:, src])
        bound = np.where(np.isfinite(diff), diff, 0.0).max(axis=0)
        return np.maximum(bound, np.where(src != dst, self.min_weight, 0.0))

    def score(self, batch_index: int, src: np.ndarray, dst: np.ndarray,
              costs: np.ndarray, found: np.ndarray) -> BatchScore:
        finite = self.reachable(src, dst)
        measured = found & finite
        bound = self.lower_bounds(src, dst)
        stretch = np.ones(src.size)
        np.divide(costs, bound, out=stretch, where=measured & (bound > 0))
        sel = measured & self.sample_mask(batch_index, src.size)
        error_values: Optional[np.ndarray] = None
        if sel.any():
            # certificate slack on the seeded exact sample: bound - truth >= 0
            error_values = stretch[sel] - self.exact_stretch(src, dst, costs,
                                                             sel)
        else:
            error_values = np.zeros(0)
        return BatchScore(finite=finite, measured=measured, stretch=stretch,
                          error_values=error_values)


def make_scorer(mode: str, graph: WeightedGraph, oracle: DistanceOracle,
                seed=0, sample_per_batch: int = DEFAULT_SAMPLE_PER_BATCH,
                num_landmarks: int = DEFAULT_SCORING_LANDMARKS):
    """Build the scorer for ``mode`` (``None`` for exact — the inline path)."""
    require(mode in SCORING_MODES,
            f"unknown scoring mode {mode!r}; choose from {SCORING_MODES}")
    if mode == "exact":
        return None
    if mode == "sampled":
        return SampledScorer(graph, oracle, seed=seed,
                             sample_per_batch=sample_per_batch)
    return LandmarkScorer(graph, oracle, seed=seed,
                          sample_per_batch=sample_per_batch,
                          num_landmarks=num_landmarks)
