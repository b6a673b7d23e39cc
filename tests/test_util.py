"""Seed derivation, ordered parallel mapping, and float formatting."""

import os
import threading

import numpy as np
import pytest

from depgap import _util
from depgap._util import child_rngs, child_seed, child_seeds, fmt_float, ordered_map


def child_rng(seed, index):
    """The reference for child_rngs: one generator seeded from its key's
    SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


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

    def test_actually_uses_worker_threads(self, monkeypatch):
        # Each call waits for a second one to run beside it, so the map
        # finishes only if two threads serve it at once, on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        names = set()
        both = threading.Barrier(2, timeout=30)

        def record(_):
            names.add(threading.current_thread().name)
            both.wait()

        ordered_map(record, range(64), threads=4)
        assert len(names) > 1

    def test_single_item_short_circuits(self):
        assert ordered_map(lambda v: v + 1, [41], threads=8) == [42]

    @pytest.mark.parametrize("threads, items", [(10**6, 40), (10**6, 3), (3, 40)])
    def test_workers_capped_by_items_and_cpus(self, threads, items, monkeypatch):
        # The recording pool starts no thread, so a huge request stays harmless.
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, values):
                return map(fn, values)

        monkeypatch.setattr(_util, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert ordered_map(lambda v: -v, range(items), threads) == [-v for v in range(items)]
        assert started == [min(threads, items, 4)]

    def test_one_cpu_runs_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        names = ordered_map(lambda _: threading.current_thread().name, range(8), threads=4)
        assert set(names) == {threading.current_thread().name}


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
        for size in (2, _util._ARRAY_HASH_KEYS + 1):
            with pytest.raises(ValueError):
                child_rngs([(3, 0)] * (size - 1) + [(-1, 0)])
            with pytest.raises(ValueError):
                child_seeds([(3, 0)] * (size - 1) + [(-1, 0)])

    @pytest.mark.parametrize("count", [0, 1, 5, 15, 16, 17, 64, len(KEYS)])
    def test_seeds_equal_seed_sequence_on_both_sides_of_the_switch(self, count):
        # Fewer keys than _ARRAY_HASH_KEYS go through SeedSequence, more
        # through the array hash; both give its first 64-bit word. Keys of
        # several entropy lengths are mixed in the first ones.
        keys = self.KEYS[:count]
        want = [int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0]) for key in keys]
        assert child_seeds(keys) == want
        assert [child_seed(*key) for key in keys] == want
        for rng, key in zip(child_rngs(keys), keys):
            assert rng.permutation(50).tolist() == child_rng(*key).permutation(50).tolist()
