"""Universal / k-wise independent hashing.

Lemma 4 of the paper needs a hash function ``h : names -> Sigma^k`` (with
``Sigma = {0 .. n^{1/k}-1}``) that is ``Theta(log n)``-wise independent and
representable in ``Theta(log^2 n)`` bits, citing Carter–Wegman [11].  The
classic construction is a random polynomial of degree ``t-1`` over a prime
field: ``h(x) = (a_{t-1} x^{t-1} + ... + a_1 x + a_0) mod p``, which is
``t``-wise independent and needs ``t`` field elements of storage.

:class:`KWiseHash` implements that polynomial family; :class:`DigitHash`
post-processes its output into a fixed-length digit string over an alphabet
of size ``sigma`` (the "hash name" of Lemma 4); :class:`BucketHash` reduces a
name to a bucket index (used by the Lemma 7 dictionary distribution).
Arbitrary hashable Python names are first folded to integers with a stable
64-bit FNV-1a, so node names can be ints, strings, or tuples.

The array form evaluates many functions on folded names
(:func:`fold_names`) at once: :class:`HashStack` stacks the functions'
coefficients and :func:`horner_mod_p` runs Horner's rule on ``uint64``
arrays, with each field product split into 32-bit limbs and reduced modulo
the Mersenne prime ``2^61 - 1`` -- bit-identical to the scalar methods.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bitsize import bits_for_count
from repro.utils.rng import make_rng
from repro.utils.validation import require

# A Mersenne prime comfortably above any 61-bit folded name.
_PRIME = (1 << 61) - 1


def _fold_name(name: Hashable) -> int:
    """Stable 64-bit FNV-1a fold of an arbitrary hashable name."""
    data = repr(name).encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % _PRIME


def fold_names(names: Sequence[Hashable]) -> np.ndarray:
    """The folds of ``names`` as a ``uint64`` array (input of the array evaluators)."""
    return np.fromiter((_fold_name(name) for name in names), dtype=np.uint64,
                       count=len(names))


_P64 = np.uint64(_PRIME)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)


def _reduce(x: np.ndarray) -> np.ndarray:
    """``x mod p`` for ``x < 2^64`` with at most one final subtraction.

    ``2^61 = 1 (mod p)``, so folding the bits above 61 onto the low 61 bits
    leaves a value below ``2p``.
    """
    x = (x & _P64) + (x >> np.uint64(61))
    return np.where(x >= _P64, x - _P64, x)


def mulmod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b mod p`` elementwise for ``uint64`` arrays of field elements.

    With ``a = a1 2^32 + a0`` and ``b = b1 2^32 + b0`` every partial product
    fits 64 bits; ``2^64 = 8`` and ``2^61 = 1`` modulo ``p`` fold the high
    parts back, and the sum of the four folded terms stays below ``2^64``.
    """
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    mid = a1 * b0 + a0 * b1                   # < 2^62
    total = (np.uint64(8) * (a1 * b1)         # a1 b1 2^64, < 2^61
             + (mid >> np.uint64(29))         # mid's bits above 29, times 2^61
             + ((mid & _LOW29) << np.uint64(32))
             + _reduce(a0 * b0))
    return _reduce(total)


def horner_mod_p(coefficients: np.ndarray, x: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Evaluate polynomial ``rows[i]`` of ``coefficients`` at ``x[i]`` over ``GF(p)``.

    Row ``r`` holds the coefficients of ``x^0, x^1, ...`` (the layout of
    :attr:`KWiseHash.coefficients`); rows padded with high-degree zeros
    evaluate exactly like the unpadded polynomial.  Each Horner step
    gathers one coefficient per entry, so no ``(len(x), degree)`` matrix
    is built.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    acc = np.zeros(x.shape, dtype=np.uint64)
    for column in range(coefficients.shape[1] - 1, -1, -1):
        acc = mulmod_p(acc, x) + coefficients[rows, column]
        acc = np.where(acc >= _P64, acc - _P64, acc)
    return acc


class KWiseHash:
    """A ``t``-wise independent hash family member over the field ``GF(p)``.

    Parameters
    ----------
    independence:
        The degree of independence ``t`` (the polynomial has ``t`` random
        coefficients).  The paper uses ``t = Theta(log n)``.
    seed:
        Randomness for drawing the coefficients.
    """

    def __init__(self, independence: int, seed=None) -> None:
        require(independence >= 1, "independence must be >= 1")
        rng = make_rng(seed)
        self.independence = int(independence)
        # The leading coefficient may be zero; independence is unaffected.
        # One vectorized draw gives the same values as t scalar draws.
        self.coefficients: Tuple[int, ...] = tuple(
            rng.integers(0, _PRIME, size=self.independence).tolist())

    def value(self, name: Hashable) -> int:
        """Hash ``name`` to an integer in ``[0, p)`` via Horner evaluation."""
        return self.value_of_fold(_fold_name(name))

    def value_of_fold(self, x: int) -> int:
        """:meth:`value` of the name whose fold (:func:`fold_names`) is ``x``."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % _PRIME
        return acc

    def storage_bits(self) -> int:
        """Bits needed to store this function (t field elements)."""
        return self.independence * 61

    def __call__(self, name: Hashable) -> int:
        return self.value(name)


class DigitHash:
    """Hash arbitrary names to fixed-length digit strings over ``Sigma = {0..sigma-1}``.

    This is the "hash name" ``h(v) in Sigma^k`` of Lemma 4.  Successive digits
    are extracted from independent :class:`KWiseHash` functions so that the
    prefix-load property the lemma needs (no digit-string prefix is shared by
    too many nodes) holds with high probability.
    """

    def __init__(self, sigma: int, length: int, independence: int = 32, seed=None) -> None:
        require(sigma >= 1, "alphabet size must be >= 1")
        require(length >= 1, "digit-string length must be >= 1")
        self.sigma = int(sigma)
        self.length = int(length)
        rng = make_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=self.length)
        self._functions = [KWiseHash(independence, seed=int(s)) for s in seeds]

    def digits(self, name: Hashable) -> Tuple[int, ...]:
        """The full digit string ``h(name)`` of length ``length``."""
        return tuple(f.value(name) % self.sigma for f in self._functions)

    def stack_into(self, stack: "HashStack") -> int:
        """Add the digit functions to ``stack``; returns the first of ``length`` rows.

        Row ``first + j`` evaluates digit ``j`` of :meth:`digits`.
        """
        rows = [stack.add(f, self.sigma) for f in self._functions]
        return rows[0]

    def prefix(self, name: Hashable, j: int) -> Tuple[int, ...]:
        """The first ``j`` digits of ``h(name)``."""
        require(0 <= j <= self.length, f"prefix length {j} out of range")
        return self.digits(name)[:j]

    def storage_bits(self) -> int:
        """Bits to store the function family."""
        return sum(f.storage_bits() for f in self._functions)

    def digit_bits(self) -> int:
        """Bits per stored digit."""
        return bits_for_count(max(self.sigma - 1, 1))

    def max_prefix_load(self, names: Sequence[Hashable], j: int) -> int:
        """Largest number of ``names`` sharing one length-``j`` prefix (diagnostic)."""
        from collections import Counter

        counts = Counter(self.prefix(name, j) for name in names)
        return max(counts.values()) if counts else 0


class BucketHash:
    """Hash names into ``num_buckets`` buckets (Lemma 7 dictionary distribution)."""

    def __init__(self, num_buckets: int, independence: int = 8, seed=None) -> None:
        require(num_buckets >= 1, "need at least one bucket")
        self.num_buckets = int(num_buckets)
        self._f = KWiseHash(independence, seed=seed)

    def bucket(self, name: Hashable) -> int:
        """Bucket index of ``name`` in ``[0, num_buckets)``."""
        return self._f.value(name) % self.num_buckets

    def bucket_of_fold(self, x: int) -> int:
        """:meth:`bucket` of the name whose fold (:func:`fold_names`) is ``x``."""
        return self._f.value_of_fold(x) % self.num_buckets

    def stack_into(self, stack: "HashStack") -> int:
        """Add the bucket function to ``stack``; returns its row (:meth:`bucket`)."""
        return stack.add(self._f, self.num_buckets)

    def storage_bits(self) -> int:
        """Bits to store the function."""
        return self._f.storage_bits() + bits_for_count(self.num_buckets)

    def __call__(self, name: Hashable) -> int:
        return self.bucket(name)


class HashStack:
    """Many hash functions stacked for one vectorized evaluation.

    Each row is one :class:`KWiseHash` with the modulus its owner reduces
    by (the alphabet size of a :class:`DigitHash`, the bucket count of a
    :class:`BucketHash`).  Rows are zero-padded to the largest degree, so
    :meth:`evaluate` runs a single Horner pass over any mix of rows.
    """

    def __init__(self) -> None:
        self._coefficients: List[Tuple[int, ...]] = []
        self._moduli: List[int] = []
        self._table: Optional[np.ndarray] = None
        self._modulus: Optional[np.ndarray] = None

    def add(self, function: KWiseHash, modulus: int) -> int:
        """Register ``function`` reduced modulo ``modulus``; returns its row."""
        require(self._table is None, "cannot add rows to a frozen HashStack")
        require(modulus >= 1, "modulus must be >= 1")
        self._coefficients.append(function.coefficients)
        self._moduli.append(int(modulus))
        return len(self._coefficients) - 1

    def freeze(self) -> "HashStack":
        """Build the padded coefficient table (idempotent; no rows after this)."""
        if self._table is None:
            width = max((len(c) for c in self._coefficients), default=0)
            table = np.zeros((len(self._coefficients), width), dtype=np.uint64)
            for r, coefficients in enumerate(self._coefficients):
                table[r, :len(coefficients)] = coefficients
            # column-major: each Horner step gathers from one column
            self._table = np.asfortranarray(table)
            self._modulus = np.asarray(self._moduli, dtype=np.uint64)
            self._coefficients = self._moduli = []
        return self

    def evaluate(self, rows: np.ndarray, folded: np.ndarray) -> np.ndarray:
        """``value(name) mod modulus`` of each ``(row, folded name)`` pair (int64)."""
        self.freeze()
        rows = np.asarray(rows, dtype=np.int64)
        values = horner_mod_p(self._table, folded, rows)
        return (values % self._modulus[rows]).astype(np.int64)
