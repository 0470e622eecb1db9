"""Unit tests for repro.utils (rng, bitsize, validation)."""

import numpy as np
import pytest

from repro.utils.bitsize import (
    BitBudget,
    bits_for_count,
    bits_for_distance,
    bits_for_id,
    bits_for_ids,
    ceil_log2,
    kib,
)
from repro.utils.rng import (
    bernoulli_subset,
    derive_rng,
    make_rng,
    sample_without_replacement,
    spawn_seeds,
)
from repro.utils.validation import (
    ValidationError,
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
    check_type,
    require,
)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=5)
        b = make_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_accepts_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        assert isinstance(make_rng(ss), np.random.Generator)

    def test_derive_rng_independent_of_key(self):
        a = derive_rng(1, 10).integers(0, 10**9)
        b = derive_rng(1, 11).integers(0, 10**9)
        assert a != b

    def test_derive_rng_deterministic(self):
        assert derive_rng(3, 1, 2).integers(0, 10**9) == derive_rng(3, 1, 2).integers(0, 10**9)

    def test_spawn_seeds_count_and_determinism(self):
        seeds = spawn_seeds(9, 8)
        assert len(seeds) == 8
        assert seeds == spawn_seeds(9, 8)

    def test_sample_without_replacement_respects_size(self):
        rng = make_rng(0)
        out = sample_without_replacement(rng, range(100), 10)
        assert len(out) == 10
        assert len(set(out)) == 10

    def test_sample_without_replacement_small_population(self):
        rng = make_rng(0)
        assert sorted(sample_without_replacement(rng, [1, 2, 3], 10)) == [1, 2, 3]

    def test_bernoulli_subset_probability_extremes(self):
        rng = make_rng(0)
        assert bernoulli_subset(rng, range(50), 0.0) == []
        assert bernoulli_subset(rng, range(50), 1.0) == list(range(50))

    def test_bernoulli_subset_empty_population(self):
        assert bernoulli_subset(make_rng(0), [], 0.5) == []


class TestBitsize:
    def test_ceil_log2_small_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(1024) == 10

    def test_ceil_log2_exact_near_powers_of_two(self):
        # math.log2 rounds 2**49 + 1 down to 49.0; the bit length does not
        for j in range(1, 63):
            assert ceil_log2(2 ** j - 1) == (j if j > 1 else 0)
            assert ceil_log2(2 ** j) == j
            assert ceil_log2(2 ** j + 1) == j + 1
        assert bits_for_id(2 ** 49 + 1) == 50

    def test_bits_for_ids_matches_bits_for_id_near_powers_of_two(self):
        universe = np.asarray([2 ** j + d for j in range(1, 63) for d in (-1, 0, 1)],
                              dtype=np.int64)
        assert bits_for_ids(universe).tolist() == \
            [bits_for_id(int(x)) for x in universe]

    def test_bits_for_count_boundaries(self):
        assert bits_for_count(0) == 1
        assert bits_for_count(1) == 1
        assert bits_for_count(255) == 8
        assert bits_for_count(256) == 9

    def test_bits_for_count_rejects_negative(self):
        with pytest.raises(ValueError):
            bits_for_count(-1)

    def test_bits_for_id(self):
        assert bits_for_id(2) == 1
        assert bits_for_id(1024) == 10
        with pytest.raises(ValueError):
            bits_for_id(0)

    def test_bits_for_ids_matches_bits_for_id(self):
        powers = 2 ** np.arange(11, 41)
        universe = np.concatenate([np.arange(1, 2050), powers - 1, powers, powers + 1])
        assert bits_for_ids(universe).tolist() == [bits_for_id(int(x)) for x in universe]
        with pytest.raises(ValueError):
            bits_for_ids(np.asarray([3, 0]))

    def test_bits_for_distance_constant(self):
        assert bits_for_distance() == 64

    def test_bit_budget_accumulates(self):
        b = BitBudget()
        b.add("a", 10)
        b.add("a", 5, count=2)
        b.add("b", 7)
        assert b.total() == 27
        assert b.breakdown() == {"a": 20, "b": 7}

    def test_bit_budget_merge_with_prefix(self):
        a, b = BitBudget(), BitBudget()
        b.add("x", 3)
        a.merge(b, prefix="sub_")
        assert a.breakdown() == {"sub_x": 3}

    def test_bit_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            BitBudget().add("a", -1)

    def test_bit_budget_iteration(self):
        b = BitBudget()
        b.add("a", 1)
        assert dict(iter(b)) == {"a": 1}

    def test_kib_conversion(self):
        assert kib(8 * 1024) == 1.0


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "fine")
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_check_positive(self):
        assert check_positive(2.5, "x") == 2.5
        with pytest.raises(ValidationError):
            check_positive(0, "x")

    def test_check_nonnegative(self):
        assert check_nonnegative(0, "x") == 0
        with pytest.raises(ValidationError):
            check_nonnegative(-1, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_check_index(self):
        assert check_index(3, 5, "i") == 3
        with pytest.raises(ValidationError):
            check_index(5, 5, "i")
        with pytest.raises(ValidationError):
            check_index(True, 5, "i")

    def test_check_type(self):
        assert check_type("a", (str,), "s") == "a"
        with pytest.raises(ValidationError):
            check_type(1, (str,), "s")
