"""Tests for multiply-shift hashing (repro.hashing.families)."""

import numpy as np
import pytest

from repro.hashing.families import MultiplyShiftHash, SignHash


class TestFamilyContracts:
    def test_range(self):
        h = MultiplyShiftHash(97, seed=1)
        keys = np.arange(10_000, dtype=np.uint64)
        buckets = h(keys)
        assert buckets.dtype == np.int64
        assert buckets.min() >= 0 and buckets.max() < 97

    def test_deterministic(self):
        keys = np.random.default_rng(2).integers(0, 2**63, size=500)
        h1 = MultiplyShiftHash(1024, seed=42)
        h2 = MultiplyShiftHash(1024, seed=42)
        assert (h1(keys) == h2(keys)).all()

    def test_seeds_differ(self):
        keys = np.arange(2000, dtype=np.uint64)
        h1 = MultiplyShiftHash(1024, seed=1)
        h2 = MultiplyShiftHash(1024, seed=2)
        assert (h1(keys) != h2(keys)).any()

    def test_roughly_uniform(self):
        # Chi-square-ish sanity: no bucket should be wildly over-loaded.
        R = 64
        h = MultiplyShiftHash(R, seed=3)
        keys = np.arange(64_000, dtype=np.uint64)
        counts = np.bincount(h(keys), minlength=R)
        assert counts.max() < 2.0 * 64_000 / R

    def test_single_bucket(self):
        h = MultiplyShiftHash(1, seed=1)
        assert (h(np.arange(100, dtype=np.uint64)) == 0).all()

    def test_accepts_int64_keys(self):
        h = MultiplyShiftHash(50, seed=5)
        a = h(np.arange(100, dtype=np.int64))
        b = h(np.arange(100, dtype=np.uint64))
        assert (a == b).all()

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            MultiplyShiftHash(0, seed=1)


class TestSignHash:
    def test_values_are_plus_minus_one(self):
        s = SignHash(seed=11)
        signs = s(np.arange(10_000, dtype=np.uint64))
        assert set(np.unique(signs).tolist()) == {-1.0, 1.0}

    def test_balanced(self):
        s = SignHash(seed=13)
        signs = s(np.arange(100_000, dtype=np.uint64))
        assert abs(signs.mean()) < 0.02

    def test_deterministic(self):
        keys = np.arange(1000, dtype=np.uint64)
        assert (SignHash(seed=3)(keys) == SignHash(seed=3)(keys)).all()


def test_multiply_shift_is_fast_path_default():
    h = MultiplyShiftHash(1000, seed=0)
    assert h.num_buckets == 1000
