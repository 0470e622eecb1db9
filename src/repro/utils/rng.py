"""Deterministic random-number management.

Every randomized construction in the library (landmark sampling, hash
families, workload generation) takes either an integer seed or a
:class:`numpy.random.Generator`.  The helpers here normalize between the two
and derive statistically independent child generators so that sub-components
can be re-seeded reproducibly without sharing state.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Passing an existing generator returns it unchanged (no copy), so callers
    can thread a single generator through a construction when they want the
    call sites to share a stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def derive_rng(seed: SeedLike, *keys: int) -> np.random.Generator:
    """Derive an independent generator keyed by ``keys``.

    This is used when a construction needs several internally-independent
    randomness consumers (e.g. one per landmark level) that must not be
    affected by how much randomness the others consume.
    """
    if isinstance(seed, np.random.Generator):
        # Fold the generator into a deterministic child via its bit stream.
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        base = int(np.random.default_rng().integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    else:
        base = int(seed)
    ss = np.random.SeedSequence([base, *[int(k) & 0x7FFFFFFF for k in keys]])
    return np.random.default_rng(ss)


def spawn_seeds(seed: SeedLike, count: int) -> list[int]:
    """Return ``count`` independent integer seeds derived from ``seed``."""
    rng = make_rng(seed)
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def sample_without_replacement(
    rng: np.random.Generator, population: Sequence[int], size: int
) -> list[int]:
    """Sample ``size`` distinct elements (all of them if fewer exist)."""
    population = list(population)
    if size >= len(population):
        return population
    idx = rng.choice(len(population), size=size, replace=False)
    return [population[i] for i in idx]


def bernoulli_subset(
    rng: np.random.Generator, population: Iterable[int], probability: float
) -> list[int]:
    """Keep each element independently with the given probability."""
    population = list(population)
    if not population:
        return []
    mask = rng.random(len(population)) < probability
    return [x for x, keep in zip(population, mask) if keep]
