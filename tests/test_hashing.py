"""Tests for the hashing substrate (k-wise hash, digit hash, bucket hash)."""

import collections

import numpy as np
import pytest

from repro.hashing import universal
from repro.hashing.universal import BucketHash, DigitHash, KWiseHash


class TestKWiseHash:
    def test_deterministic_per_instance(self):
        h = KWiseHash(8, seed=1)
        assert h("node-17") == h("node-17")
        assert h(("a", 3)) == h(("a", 3))

    def test_different_seeds_differ(self):
        a, b = KWiseHash(8, seed=1), KWiseHash(8, seed=2)
        values_a = [a(i) for i in range(50)]
        values_b = [b(i) for i in range(50)]
        assert values_a != values_b

    def test_handles_arbitrary_hashable_names(self):
        h = KWiseHash(4, seed=0)
        for name in [0, "x", (1, "y"), 2**80, -5]:
            assert isinstance(h(name), int)

    def test_storage_bits_scales_with_independence(self):
        assert KWiseHash(16, seed=0).storage_bits() == 2 * KWiseHash(8, seed=0).storage_bits()

    def test_rejects_bad_independence(self):
        with pytest.raises(Exception):
            KWiseHash(0)

    def test_spread_over_range(self):
        h = KWiseHash(8, seed=3)
        values = [h(i) % 97 for i in range(2000)]
        counts = collections.Counter(values)
        # roughly uniform: no residue grabs more than 4x its fair share
        assert max(counts.values()) < 4 * (2000 / 97)


class TestDigitHash:
    def test_digits_shape_and_range(self):
        dh = DigitHash(sigma=5, length=4, seed=2)
        d = dh.digits("some-name")
        assert len(d) == 4
        assert all(0 <= x < 5 for x in d)

    def test_prefix_consistency(self):
        dh = DigitHash(sigma=7, length=5, seed=2)
        assert dh.prefix("n", 3) == dh.digits("n")[:3]
        assert dh.prefix("n", 0) == ()
        with pytest.raises(Exception):
            dh.prefix("n", 6)

    def test_deterministic(self):
        a = DigitHash(sigma=4, length=3, seed=9)
        b = DigitHash(sigma=4, length=3, seed=9)
        assert a.digits("abc") == b.digits("abc")

    def test_sigma_one_degenerate(self):
        dh = DigitHash(sigma=1, length=3, seed=0)
        assert dh.digits("whatever") == (0, 0, 0)

    def test_max_prefix_load_reasonable(self):
        dh = DigitHash(sigma=8, length=3, seed=4)
        names = [f"node-{i}" for i in range(256)]
        # a length-1 prefix splits 256 names over 8 digits: fair share 32
        assert dh.max_prefix_load(names, 1) < 4 * 32
        assert dh.max_prefix_load([], 1) == 0

    def test_storage_and_digit_bits(self):
        dh = DigitHash(sigma=8, length=3, independence=8, seed=0)
        assert dh.digit_bits() == 3
        assert dh.storage_bits() == 3 * 8 * 61


class TestBucketHash:
    def test_bucket_in_range(self):
        bh = BucketHash(17, seed=5)
        assert all(0 <= bh(f"n{i}") < 17 for i in range(200))

    def test_deterministic(self):
        assert BucketHash(10, seed=1)("x") == BucketHash(10, seed=1)("x")

    def test_single_bucket(self):
        bh = BucketHash(1, seed=0)
        assert bh("anything") == 0

    def test_load_balanced(self):
        bh = BucketHash(16, seed=7)
        counts = collections.Counter(bh(f"node-{i}") for i in range(1600))
        assert max(counts.values()) < 3 * 100

    def test_storage_bits_positive(self):
        assert BucketHash(64, seed=0).storage_bits() > 0



#: boundary folds: limb edges of the 32-bit split and the top of the field
BOUNDARY_FOLDS = [0, 1, 2**32 - 1, 2**32, 2**61 - 2]


def _random_folds(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**61 - 1, size=count,
                                         dtype=np.uint64)] + BOUNDARY_FOLDS


def _stacked(structure, folded, width: int):
    """The ``width`` rows ``structure`` adds to a fresh HashStack, at every fold."""
    stack = universal.HashStack()
    first = structure.stack_into(stack)
    rows = np.repeat(first + np.arange(width)[None, :], folded.size, axis=0)
    values = stack.evaluate(rows.ravel(), np.repeat(folded, width))
    return [tuple(row) for row in values.reshape(-1, width).tolist()]


@pytest.fixture
def identity_fold(monkeypatch):
    """Let the scalar methods take folded names directly."""
    monkeypatch.setattr(universal, "_fold_name", lambda name: name)


class TestArrayEvaluators:
    """The numpy evaluators are bit-identical to the scalar methods."""

    def test_mulmod_matches_python_integers(self):
        folds = _random_folds(10_000, seed=1)
        a = np.asarray(folds, dtype=np.uint64)
        b = np.asarray(folds[::-1], dtype=np.uint64)
        expected = [(x * y) % (2**61 - 1) for x, y in zip(folds, folds[::-1])]
        assert universal.mulmod_p(a, b).tolist() == expected

    @pytest.mark.parametrize("independence", [1, 8, 17])
    def test_horner_matches_kwise_value(self, identity_fold, independence):
        h = KWiseHash(independence, seed=independence)
        folds = _random_folds(10_000, seed=2)
        coefficients = np.asarray([h.coefficients], dtype=np.uint64)
        got = universal.horner_mod_p(coefficients, np.asarray(folds, dtype=np.uint64),
                                     rows=np.zeros(len(folds), dtype=np.int64))
        assert got.tolist() == [h.value(x) for x in folds]

    @pytest.mark.parametrize("sigma", [1, 2, 7])
    def test_stacked_digits_match_digit_hash(self, identity_fold, sigma):
        dh = DigitHash(sigma=sigma, length=3, independence=9, seed=sigma)
        folds = _random_folds(10_000, seed=3)
        assert _stacked(dh, np.asarray(folds, dtype=np.uint64), 3) \
            == [dh.digits(x) for x in folds]

    @pytest.mark.parametrize("num_buckets", [1, 2, 97])
    def test_stacked_buckets_match_bucket_hash(self, identity_fold, num_buckets):
        bh = BucketHash(num_buckets, seed=num_buckets)
        folds = _random_folds(10_000, seed=4)
        assert _stacked(bh, np.asarray(folds, dtype=np.uint64), 1) \
            == [(bh.bucket(x),) for x in folds]

    def test_folded_names_of_every_kind(self):
        names = ([0, 1, -5, 2**80, 12345] + [f"node-{i}" for i in range(50)]
                 + [("a", i) for i in range(50)] + [(i, (i, "x")) for i in range(50)])
        folded = universal.fold_names(names)
        dh = DigitHash(sigma=5, length=4, seed=6)
        bh = BucketHash(13, seed=7)
        assert _stacked(dh, folded, 4) == [dh.digits(x) for x in names]
        assert _stacked(bh, folded, 1) == [(bh.bucket(x),) for x in names]

    def test_values_of_folds_match_values_of_names(self):
        bh = BucketHash(29, seed=11)
        names = [0, -3, 2**70, "x", ("y", 2)] + list(range(100))
        folds = universal.fold_names(names).tolist()
        assert [bh.bucket_of_fold(x) for x in folds] == [bh.bucket(x) for x in names]

    def test_stack_mixes_functions_of_different_degree(self):
        dh = DigitHash(sigma=6, length=3, independence=12, seed=8)
        bh = BucketHash(11, independence=8, seed=9)
        stack = universal.HashStack()
        first = dh.stack_into(stack)
        bucket_row = bh.stack_into(stack)
        names = [f"n{i}" for i in range(300)]
        rows = [first + i % 3 if i % 4 else bucket_row for i in range(len(names))]
        expected = [dh.digits(x)[i % 3] if i % 4 else bh.bucket(x)
                    for i, x in enumerate(names)]
        got = stack.evaluate(np.asarray(rows), universal.fold_names(names))
        assert got.tolist() == expected
        with pytest.raises(Exception):
            bh.stack_into(stack)


class TestBatchedHashing:
    """The batched build paths: vectorized draws, family-wide stacks, O(N) memory."""

    #: coefficients drawn by t scalar ``rng.integers(0, p)`` calls, captured
    #: from that implementation, so the one-call draw stays pinned
    PINNED = {
        (0, 1): [1468733653847134283],
        (1, 8): [1180180315279482015, 2191620069684565259, 332409435200520985,
                 2187436695875849721, 719034373671333460, 976124332978671112,
                 1908552239668907427, 943548967973111640],
        (7, 12): [1441372011761543504, 2068834170735742289, 1788609426198978347,
                  519292424664466664, 692136329664195112, 2014277105241507045,
                  12140965723911565, 1893623807495520474, 1837916970145858346,
                  1078984539781433123, 698745202946374536, 642005751248611920],
        (2026, 3): [412595589218459445, 1475539299668093335, 1077447576203165244],
    }

    @pytest.mark.parametrize("seed,degree", sorted(PINNED))
    def test_coefficients_pinned(self, seed, degree):
        coefficients = KWiseHash(degree, seed=seed).coefficients
        assert list(coefficients) == self.PINNED[(seed, degree)]
        assert all(type(c) is int for c in coefficients)

    def test_one_stack_of_many_functions_matches_scalar(self):
        rng = np.random.default_rng(5)
        stack = universal.HashStack()
        functions = []  # (first row, width, scalar evaluator)
        for index in range(40):
            if index % 3:
                dh = DigitHash(sigma=int(rng.integers(1, 9)),
                               length=int(rng.integers(1, 5)),
                               independence=int(rng.integers(1, 20)), seed=index)
                functions.append((dh.stack_into(stack), dh.length, dh.digits))
            else:
                bh = BucketHash(int(rng.integers(1, 50)),
                                independence=int(rng.integers(1, 20)), seed=index)
                functions.append((bh.stack_into(stack), 1,
                                  lambda name, bh=bh: (bh.bucket(name),)))
        names = [f"n{i}" for i in range(60)] + [("t", i) for i in range(20)]
        folded = universal.fold_names(names)
        # every (function, name) pair in one shuffled evaluation
        pairs = [(f, r) for f in range(len(functions)) for r in range(len(names))]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        rows = np.concatenate([functions[f][0] + np.arange(functions[f][1])
                               for f, _ in pairs])
        at = np.repeat([r for _, r in pairs], [functions[f][1] for f, _ in pairs])
        values = stack.evaluate(rows, folded[at]).tolist()
        position = 0
        for f, r in pairs:
            first, width, scalar = functions[f]
            assert tuple(values[position:position + width]) == scalar(names[r])
            position += width

    def test_evaluate_allocates_linear_in_pairs(self):
        import tracemalloc

        stack = universal.HashStack()
        for seed in range(4):
            stack.add(KWiseHash(64, seed=seed), 97)
        stack.freeze()
        pairs = 20_000
        rows = np.arange(pairs) % 4
        folded = np.random.default_rng(1).integers(0, 2**61 - 1, size=pairs,
                                                   dtype=np.uint64)
        tracemalloc.start()
        try:
            stack.evaluate(rows, folded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a handful of uint64 temporaries per pair; gathering the 64-column
        # coefficient rows of every pair alone would take 64 words per pair
        assert peak < 24 * 8 * pairs
