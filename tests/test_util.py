"""Seed derivation, ordered parallel mapping, and float formatting."""

import threading

import pytest

from depgap._util import child_rng, child_rngs, child_seed, fmt_float, ordered_map


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, 3) == child_seed(7, 3)

    def test_varies_with_both_arguments(self):
        seeds = {child_seed(s, i) for s in range(4) for i in range(4)}
        assert len(seeds) == 16

    def test_rng_stream_matches_seed(self):
        a = child_rng(5, 9).integers(0, 1_000_000, 8)
        b = child_rng(5, 9).integers(0, 1_000_000, 8)
        assert list(a) == list(b)


class TestOrderedMap:
    def test_preserves_input_order(self):
        items = list(range(40))
        assert ordered_map(lambda v: v * v, items, threads=1) == [v * v for v in items]
        assert ordered_map(lambda v: v * v, items, threads=8) == [v * v for v in items]

    def test_actually_uses_worker_threads(self):
        names = set()

        def record(_):
            names.add(threading.current_thread().name)
            return None

        ordered_map(record, range(64), threads=4)
        assert len(names) > 1

    def test_single_item_short_circuits(self):
        assert ordered_map(lambda v: v + 1, [41], threads=8) == [42]


class TestFmtFloat:
    def test_ten_significant_digits(self):
        assert fmt_float(1.0 / 3.0) == "0.3333333333"
        assert fmt_float(123456789.123) == "123456789.1"

    def test_integral_floats_stay_short(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(0.0) == "0"

    def test_large_and_small_magnitudes(self):
        assert fmt_float(1.234567890123e12) == "1.23456789e+12"
        assert fmt_float(5e-11) == "5e-11"

    def test_nan(self):
        assert fmt_float(float("nan")) == "nan"


class TestChildRngs:
    # Seeds and indices of one to three 32-bit words, zero included: the
    # SeedSequence entropy of a key is the words of both, low first.
    KEYS = [(0, 0), (0, 1), (3, 0), (2**32 - 1, 5), (2**32, 7), (2**64 - 1, 2**32 - 1),
            (2**70 + 3, 1), (2**31, 2**32 + 5), *((child_seed(9, b), i) for b in range(20)
                                                  for i in range(11))]

    def test_equal_one_generator_per_key(self):
        for (seed, index), rng in zip(self.KEYS, child_rngs(self.KEYS)):
            want = child_rng(seed, index)
            assert rng.permutation(100).tolist() == want.permutation(100).tolist()
            assert rng.integers(0, 2**63, 4).tolist() == want.integers(0, 2**63, 4).tolist()

    def test_negative_key_is_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            child_rng(-1, 0)
        with pytest.raises(ValueError):
            child_rngs([(3, 0), (-1, 0)])
