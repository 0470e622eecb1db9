"""Theoretical bounds of the paper, as evaluable functions.

The benches and the experiment kinds (README, "Experiment matrix") print the
measured quantity next to the corresponding bound, paper against measured
for every claim.  All "bounds" are asymptotic, so each function exposes its
constant factor as a parameter; defaults are the constants that appear
(explicitly or implicitly) in the paper's lemmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


def theorem1_table_bits(n: int, k: int, constant: float = 1.0) -> float:
    """Theorem 1's table bound ``O(k^2 n^{1/k} log^3 n)`` (statement version)."""
    logn = max(math.log2(max(n, 2)), 1.0)
    return constant * (k ** 2) * (n ** (1.0 / k)) * (logn ** 3)


def lemma11_table_bits(n: int, k: int, constant: float = 1.0) -> float:
    """Lemma 11's sparse-strategy storage ``O(k^2 n^{3/k} log^3 n)``.

    Note: the paper's Theorem 1 statement says ``n^{1/k}`` while its own proof
    (via Lemma 11) derives ``n^{3/k}``; the reproduction reports both so the
    discrepancy is visible (DESIGN.md §3 item 6; the ``tradeoff`` kind prints
    both).
    """
    logn = max(math.log2(max(n, 2)), 1.0)
    return constant * (k ** 2) * (n ** (3.0 / k)) * (logn ** 3)


def stretch_bound(k: int, constant: float = 1.0) -> float:
    """The linear stretch bound ``O(k)``."""
    return constant * k


def exponential_stretch_bound(k: int, constant: float = 1.0) -> float:
    """The prior scale-free schemes' stretch ``O(2^k)`` (what the paper improves on)."""
    return constant * (2.0 ** k)


def lemma4_table_bits(n: int, k: int, constant: float = 1.0) -> float:
    """Lemma 4 per-node storage ``O(k n^{1/k} log^2 n)``."""
    logn = max(math.log2(max(n, 2)), 1.0)
    return constant * k * (n ** (1.0 / k)) * (logn ** 2)


def lemma5_table_bits(m: int, k: int, constant: float = 1.0) -> float:
    """Lemma 5 per-node storage ``O(m^{1/k} log m)``."""
    logm = max(math.log2(max(m, 2)), 1.0)
    return constant * (m ** (1.0 / k)) * logm


def lemma5_label_bits(m: int, k: int, constant: float = 1.0) -> float:
    """Lemma 5 label size ``O(k log m)``."""
    logm = max(math.log2(max(m, 2)), 1.0)
    return constant * k * logm


def lemma6_membership(n: int, k: int, constant: float = 2.0) -> float:
    """Lemma 6 sparsity: every node is in at most ``2 k n^{1/k}`` cover trees."""
    return constant * k * (n ** (1.0 / k))


def lemma6_radius(rho: float, k: int, constant: float = 2.0) -> float:
    """Lemma 6 radius bound ``(2k - 1) rho`` (the implementation achieves ``(2k+3) rho``)."""
    return (constant * k + 3) * rho


def lemma7_route_bound(radius: float, max_edge: float, k: int,
                       constant: float = 4.0) -> float:
    """Lemma 7 route-length bound ``4 rad(T) + 2 k maxE(T)``."""
    return constant * radius + 2.0 * k * max_edge


@dataclass
class ScalingFit:
    """Least-squares fit of ``y ~ c * x^alpha`` on log-log scale."""

    exponent: float
    constant: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> ScalingFit:
    """Fit a power law through (xs, ys); used to check measured scaling exponents."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = (xs > 0) & (ys > 0)
    xs, ys = xs[mask], ys[mask]
    if xs.size < 2:
        return ScalingFit(exponent=0.0, constant=float(ys[0]) if ys.size else 0.0, r_squared=1.0)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(exponent=float(slope), constant=float(math.exp(intercept)), r_squared=r2)


def growth_ratio(values: Sequence[float]) -> List[float]:
    """Successive ratios ``values[i+1] / values[i]`` (diagnostic for linear-vs-exponential growth)."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append(b / a if a > 0 else float("inf"))
    return out
